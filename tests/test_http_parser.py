"""Raw request parsing: happy paths, tolerance, rejection, roundtrip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HttpParseError
from repro.http.message import HttpRequest
from repro.http.parser import parse_request
from repro.http.serializer import serialize_request


class TestBasic:
    def test_get(self):
        req = parse_request(b"GET /p?a=1 HTTP/1.1\r\nHost: h.example.com\r\n\r\n")
        assert req.method == "GET"
        assert req.target == "/p?a=1"
        assert req.version == "HTTP/1.1"
        assert req.host == "h.example.com"
        assert req.body == b""

    def test_post_with_body(self):
        raw = (
            b"POST /t HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\nudid=99"
        )
        req = parse_request(raw)
        assert req.method == "POST"
        assert req.body == b"udid=99"

    def test_bare_lf_line_endings(self):
        req = parse_request(b"GET / HTTP/1.1\nHost: h\n\nignored-no-length")
        assert req.host == "h"

    def test_missing_version_defaults(self):
        req = parse_request(b"GET /old\r\nHost: h\r\n\r\n")
        assert req.version == "HTTP/1.0"

    def test_content_length_truncates_pipelined_data(self):
        raw = b"POST /t HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabcEXTRA"
        assert parse_request(raw).body == b"abc"

    def test_body_shorter_than_content_length_kept(self):
        raw = b"POST /t HTTP/1.1\r\nHost: h\r\nContent-Length: 100\r\n\r\nabc"
        assert parse_request(raw).body == b"abc"


class TestTolerance:
    def test_header_value_colons(self):
        req = parse_request(b"GET / HTTP/1.1\r\nReferer: http://x/y\r\n\r\n")
        assert req.header("Referer") == "http://x/y"

    def test_obsolete_folding(self):
        raw = b"GET / HTTP/1.1\r\nX-Long: part1\r\n  part2\r\n\r\n"
        assert parse_request(raw).header("X-Long") == "part1 part2"

    def test_lowercase_method(self):
        assert parse_request(b"get / HTTP/1.1\r\nHost: h\r\n\r\n").method == "GET"

    def test_blank_header_lines_skipped(self):
        raw = b"GET / HTTP/1.1\r\nHost: h\r\n   \r\nX: 1\r\n\r\n"
        # The padded blank line is the head/body split in the worst case;
        # here it has spaces so it is treated as a continuation-free skip.
        req = parse_request(raw)
        assert req.host == "h"


class TestHeadBodySplit:
    """Regression: the *earliest* blank line wins, regardless of flavour."""

    def test_lf_head_with_crlf_sequence_in_body(self):
        # Old first-match-wins searched \r\n\r\n first and split inside the
        # body, making "line1" parse as a (colonless) header line.
        raw = b"POST /u HTTP/1.1\nHost: x.com\n\nline1\r\n\r\nline2"
        req = parse_request(raw)
        assert req.host == "x.com"
        assert req.body == b"line1\r\n\r\nline2"

    def test_crlf_head_with_bare_lf_pair_in_body(self):
        raw = b"POST /u HTTP/1.1\r\nHost: x.com\r\n\r\na\n\nb"
        req = parse_request(raw)
        assert req.body == b"a\n\nb"

    def test_mixed_line_endings_in_head(self):
        raw = b"POST /u HTTP/1.1\r\nHost: x.com\nX-A: 1\r\n\r\nbody"
        req = parse_request(raw)
        assert req.header("X-A") == "1"
        assert req.body == b"body"

    def test_no_separator_means_no_body(self):
        req = parse_request(b"GET / HTTP/1.1\r\nHost: h")
        assert req.body == b""


class TestRejection:
    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"   \r\n\r\n",
            b"GARBAGE\r\n\r\n",
            b"ONE TWO THREE FOUR\r\n\r\n",
            b"BREW / HTTP/1.1\r\n\r\n",
            b"GET / NOTHTTP\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-line\r\n\r\n",
            b"GET / HTTP/1.1\r\n  orphan continuation\r\n\r\n",
        ],
    )
    def test_rejects(self, raw):
        with pytest.raises(HttpParseError):
            parse_request(raw)

    @pytest.mark.parametrize("declared", [b"\xb2", b"1\xb3", b"\xb9\xb9"])
    def test_non_ascii_digit_content_length(self, declared):
        # str.isdigit() accepts superscript digits; int() used to raise a
        # bare ValueError on them.
        raw = b"POST /t HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\nabc"
        with pytest.raises(HttpParseError, match="bad Content-Length") as caught:
            parse_request(raw)
        assert caught.value.data == declared.decode("latin-1")

    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"1e3", b""])
    def test_non_numeric_content_length_ignored(self, declared):
        raw = b"POST /t HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\nabc"
        assert parse_request(raw).body == b"abc"


class TestRoundtrip:
    def test_serialize_parse_identity(self):
        req = HttpRequest(
            method="POST",
            target="/ad?udid=123",
            headers=[("Host", "ads.x.com"), ("Cookie", "sid=9")],
            body=b"k=v&k2=v2",
        )
        again = parse_request(serialize_request(req))
        assert again.method == req.method
        assert again.target == req.target
        assert again.cookie == req.cookie
        assert again.body == req.body

    @given(
        method=st.sampled_from(["GET", "POST"]),
        path=st.text(alphabet="abc/123", min_size=1, max_size=12),
        value=st.text(alphabet="abcdef0123456789", max_size=20),
        body=st.binary(max_size=40).filter(lambda b: b.strip() or not b),
    )
    def test_roundtrip_property(self, method, path, value, body):
        target = "/" + path.lstrip("/")
        headers = [("Host", "h.example.com"), ("X-Token", value)]
        req = HttpRequest(method=method, target=target, headers=headers, body=body)
        again = parse_request(serialize_request(req))
        assert again.target == target
        assert again.header("X-Token") == value.strip()
        assert again.body == body
