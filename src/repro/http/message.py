"""The HTTP request message model.

A :class:`HttpRequest` is the parsed form of one GET/POST request captured
from a simulated application.  The three fields the paper's content
distance consumes are exposed directly:

- :attr:`HttpRequest.request_line` — ``"GET /path?q HTTP/1.1"``,
- :attr:`HttpRequest.cookie` — the raw ``Cookie`` header value (``""`` if
  absent),
- :attr:`HttpRequest.body` — the message body bytes (``b""`` for GET).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HttpParseError
from repro.http.url import QueryString, parse_url

#: Methods the dataset contains; the paper collected "GET/POST HTTP packets".
SUPPORTED_METHODS = ("GET", "POST", "HEAD", "PUT", "DELETE")


@dataclass(slots=True)
class HttpRequest:
    """One parsed HTTP/1.x request.

    Headers are stored as an ordered list of ``(name, value)`` pairs to keep
    the captured wire order; lookups are case-insensitive per RFC 2616.

    :param method: request method, upper-case.
    :param target: request target as sent (path + optional query).
    :param version: protocol version string, e.g. ``"HTTP/1.1"``.
    :param headers: ordered header pairs.
    :param body: message body bytes.
    """

    method: str
    target: str
    version: str = "HTTP/1.1"
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    def __post_init__(self) -> None:
        method = self.method.upper()
        if method not in SUPPORTED_METHODS:
            raise HttpParseError("unsupported method", self.method)
        self.method = method
        if not self.target:
            raise HttpParseError("empty request target")

    @classmethod
    def from_checked(
        cls,
        method: str,
        target: str,
        version: str,
        headers: list[tuple[str, str]],
        body: bytes,
    ) -> "HttpRequest":
        """A request from fields its caller has already checked.

        ``method`` must be upper-case and in :data:`SUPPORTED_METHODS` and
        ``target`` non-empty; :meth:`__post_init__` is not run again.
        """
        request = object.__new__(cls)
        request.method = method
        request.target = target
        request.version = version
        request.headers = headers
        request.body = body
        return request

    # -- header access -----------------------------------------------------

    def header(self, name: str, default: str = "") -> str:
        """First header value matching ``name`` (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return default

    def set_header(self, name: str, value: str) -> None:
        """Replace the first occurrence of ``name`` or append it."""
        wanted = name.lower()
        for i, (key, __) in enumerate(self.headers):
            if key.lower() == wanted:
                self.headers[i] = (key, value)
                return
        self.headers.append((name, value))

    # -- the three content fields of the paper ------------------------------

    @property
    def request_line(self) -> str:
        """``rline``: method, target and version joined by single spaces."""
        return f"{self.method} {self.target} {self.version}"

    @property
    def cookie(self) -> str:
        """``cookie``: the raw Cookie header value, empty when absent."""
        return self.header("Cookie")

    # ``body`` is a plain dataclass field.

    # -- convenience views ---------------------------------------------------

    @property
    def path(self) -> str:
        """Path component of the target, without the query string."""
        path, __, __ = parse_url(self.target)
        return path

    @property
    def query(self) -> QueryString:
        """Parsed query parameters of the target."""
        __, raw_query, __ = parse_url(self.target)
        return QueryString.parse(raw_query)

    def form(self) -> QueryString:
        """Body parsed as ``application/x-www-form-urlencoded`` parameters.

        Returns an empty mapping for non-form bodies; ad SDKs in the corpus
        POST form-encoded payloads, JSON bodies are left to the caller.
        """
        content_type = self.header("Content-Type").lower()
        if "x-www-form-urlencoded" not in content_type:
            return QueryString([])
        return QueryString.parse(self.body.decode("utf-8", "replace"))

    def content_text(self) -> str:
        """All inspected content concatenated, for search-style matching."""
        return "\n".join(
            (self.request_line, self.cookie, self.body.decode("latin-1"))
        )

    def copy(self) -> "HttpRequest":
        """A deep-enough copy (headers list is duplicated; body is bytes)."""
        return HttpRequest(
            method=self.method,
            target=self.target,
            version=self.version,
            headers=list(self.headers),
            body=self.body,
        )
