"""Tolerant HTTP/1.x request parser over raw bytes.

Captured mobile traffic is messy: mixed line endings, missing
``Content-Length``, folded headers.  The parser accepts what real HTTP
stacks emit while rejecting inputs that cannot be a request at all, raising
:class:`repro.errors.HttpParseError` with the offending fragment.
"""

from __future__ import annotations

from repro.errors import HttpParseError
from repro.http.message import SUPPORTED_METHODS, HttpRequest

_MAX_HEADER_COUNT = 256
_MAX_LINE_LENGTH = 16 * 1024


def _split_head_body(raw: bytes) -> tuple[bytes, bytes]:
    """Split at the first blank line, accepting CRLF or bare LF endings.

    The *earliest* separator occurrence wins regardless of flavour: with
    first-match-wins in tuple order, an LF-terminated head followed by a
    body containing ``\\r\\n\\r\\n`` would be split inside the body.
    """
    best_idx = -1
    best_len = 0
    for sep in (b"\r\n\r\n", b"\n\n"):
        idx = raw.find(sep)
        if idx >= 0 and (best_idx < 0 or idx < best_idx):
            best_idx, best_len = idx, len(sep)
    if best_idx < 0:
        return raw, b""
    return raw[:best_idx], raw[best_idx + best_len:]


def _too_long(line: str) -> HttpParseError:
    """The over-long-line error, carrying the line's first 40 raw bytes."""
    return HttpParseError("header line too long", line[:40].encode("latin-1"))


def parse_request(raw: bytes) -> HttpRequest:
    """Parse raw request bytes into a :class:`HttpRequest`.

    Rules applied, in order:

    1. head and body split at the first blank line (CRLF or LF);
    2. request-line must be ``METHOD SP TARGET [SP VERSION]``; a missing
       version defaults to ``HTTP/1.0`` (as HTTP/0.9-style clients do);
    3. header lines must contain a colon; obsolete line folding
       (continuation lines starting with whitespace) is unfolded;
    4. if a ``Content-Length`` header is present and shorter than the
       remaining bytes, the body is truncated to it (trailing pipelined
       data is not this request's body); a value of digits that are not
       ASCII is an error, any other non-numeric value is ignored.

    :raises HttpParseError: when no request-line can be extracted, or for
        a ``Content-Length`` of non-ASCII digits.
    """
    if not raw or not raw.strip():
        raise HttpParseError("empty request")
    head, body = _split_head_body(raw)
    # latin-1 maps each byte to one character, so string lengths and
    # slices are byte lengths and slices.
    lines = head.decode("latin-1").replace("\r\n", "\n").split("\n")
    request_line = lines[0]
    if len(request_line) > _MAX_LINE_LENGTH:
        raise _too_long(request_line)
    request_line = request_line.strip()
    parts = request_line.split()
    if len(parts) == 2:
        method, target = parts
        version = "HTTP/1.0"
    elif len(parts) == 3:
        method, target, version = parts
    else:
        raise HttpParseError("malformed request line", request_line)
    if method.upper() not in SUPPORTED_METHODS:
        raise HttpParseError("unsupported method", method)
    if not version.upper().startswith("HTTP/"):
        raise HttpParseError("malformed version", version)

    headers: list[tuple[str, str]] = []
    for text in lines[1:]:
        if len(text) > _MAX_LINE_LENGTH:
            raise _too_long(text)
        if not text.strip():
            continue
        if text[0] in " \t":
            # Obsolete folding: continuation of the previous header value.
            if not headers:
                raise HttpParseError("continuation line before any header", text)
            name, value = headers[-1]
            headers[-1] = (name, value + " " + text.strip())
            continue
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpParseError("header line without colon", text)
        headers.append((name.strip(), value.strip()))
        if len(headers) > _MAX_HEADER_COUNT:
            raise HttpParseError("too many headers")

    request = HttpRequest(
        method=method,
        target=target,
        version=version.upper(),
        headers=headers,
        body=body,
    )
    declared = request.header("Content-Length")
    if declared.isdigit():
        if not declared.isascii():  # "\xb2" is a digit that int() refuses
            raise HttpParseError("bad Content-Length", declared)
        length = int(declared)
        if length < len(body):
            request.body = body[:length]
    return request
