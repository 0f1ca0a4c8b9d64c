"""URL splitting, percent-encoding, and query-string handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.http.url import QueryString, parse_url, percent_decode, percent_encode


class TestPercentEncoding:
    def test_unreserved_untouched(self):
        assert percent_encode("abcXYZ019-._~") == "abcXYZ019-._~"

    def test_space_becomes_plus_by_default(self):
        assert percent_encode("a b") == "a+b"

    def test_space_percent_form(self):
        assert percent_encode("a b", plus_spaces=False) == "a%20b"

    def test_reserved_encoded(self):
        assert percent_encode("a&b=c") == "a%26b%3Dc"

    def test_utf8_multibyte(self):
        assert percent_encode("日") == "%E6%97%A5"

    def test_decode_inverse(self):
        assert percent_decode("a%26b%3Dc") == "a&b=c"

    def test_decode_plus(self):
        assert percent_decode("a+b") == "a b"
        assert percent_decode("a+b", plus_spaces=False) == "a+b"

    def test_decode_tolerates_bare_percent(self):
        assert percent_decode("100%") == "100%"
        assert percent_decode("a%zzb") == "a%zzb"

    @given(st.text(max_size=40))
    def test_roundtrip(self, text):
        assert percent_decode(percent_encode(text)) == text


class TestParseUrl:
    def test_origin_form(self):
        assert parse_url("/p/a?x=1#f") == ("/p/a", "x=1", "f")

    def test_no_query(self):
        assert parse_url("/path") == ("/path", "", "")

    def test_absolute_url(self):
        assert parse_url("http://h.example.com/p?q=2") == ("/p", "q=2", "")

    def test_absolute_url_without_path(self):
        assert parse_url("http://h.example.com") == ("/", "", "")

    def test_relative_target_gets_leading_slash(self):
        path, __, __ = parse_url("p?x=1")
        assert path == "/p"

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_url("")


class TestQueryString:
    def test_parse_ordered(self):
        q = QueryString.parse("b=2&a=1&b=3")
        assert q.pairs == [("b", "2"), ("a", "1"), ("b", "3")]

    def test_bare_key(self):
        q = QueryString.parse("flag&a=1")
        assert q.pairs == [("flag", ""), ("a", "1")]

    def test_decodes_values(self):
        q = QueryString.parse("msg=hello+world%21")
        assert q.pairs == [("msg", "hello world!")]

    def test_empty(self):
        assert QueryString.parse("").pairs == []
