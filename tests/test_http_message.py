"""HttpRequest model: header access, the paper's three content fields."""

import pytest

from repro.errors import HttpParseError
from repro.http.message import HttpRequest


def make(method="GET", target="/p?a=1", headers=None, body=b""):
    return HttpRequest(
        method=method,
        target=target,
        headers=headers if headers is not None else [("Host", "h.example.com")],
        body=body,
    )


class TestConstruction:
    def test_method_uppercased(self):
        assert make(method="get").method == "GET"

    def test_unknown_method_rejected(self):
        with pytest.raises(HttpParseError):
            make(method="BREW")

    def test_empty_target_rejected(self):
        with pytest.raises(HttpParseError):
            make(target="")


class TestHeaders:
    def test_case_insensitive_lookup(self):
        req = make(headers=[("HOST", "h"), ("X-One", "1")])
        assert req.header("host") == "h"
        assert req.header("x-one") == "1"

    def test_missing_header_default(self):
        assert make().header("X-Missing") == ""
        assert make().header("X-Missing", "d") == "d"

    def test_set_header_replaces_first(self):
        req = make(headers=[("X", "1"), ("X", "2")])
        req.set_header("x", "9")
        assert req.headers == [("X", "9"), ("X", "2")]

    def test_set_header_appends_when_missing(self):
        req = make()
        req.set_header("X-New", "v")
        assert req.header("X-New") == "v"


class TestContentFields:
    def test_request_line(self):
        assert make().request_line == "GET /p?a=1 HTTP/1.1"

    def test_cookie_field(self):
        req = make(headers=[("Host", "h"), ("Cookie", "sid=1")])
        assert req.cookie == "sid=1"

    def test_cookie_absent_is_empty(self):
        assert make().cookie == ""

    def test_content_text_contains_all_fields(self):
        req = make(headers=[("Host", "h"), ("Cookie", "sid=1")], body=b"x=2")
        text = req.content_text()
        assert "GET /p?a=1 HTTP/1.1" in text
        assert "sid=1" in text
        assert "x=2" in text


class TestViews:

    def test_path_and_query(self):
        req = make(target="/a/b?k=v&k2=v2")
        assert req.path == "/a/b"
        assert req.query.pairs == [("k", "v"), ("k2", "v2")]

    def test_form_requires_content_type(self):
        req = make(body=b"a=1&b=2")
        assert req.form().pairs == []

    def test_form_parses_urlencoded(self):
        req = make(
            headers=[("Host", "h"), ("Content-Type", "application/x-www-form-urlencoded")],
            body=b"a=1&b=two+words",
        )
        assert req.form().pairs == [("a", "1"), ("b", "two words")]

    def test_copy_is_independent(self):
        req = make()
        clone = req.copy()
        clone.set_header("X", "1")
        assert req.header("X") == ""
        assert clone.header("X") == "1"
