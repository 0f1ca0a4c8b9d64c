"""URL and query-string handling (percent-encoding, query parsing).

Implemented from scratch so the library controls exactly which characters
are escaped — advertisement SDK wire formats in the paper's corpus embed
device identifiers in query parameters, and byte-faithful round-tripping
matters for signature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError

#: Characters never percent-encoded in a query component (RFC 3986
#: unreserved set).
_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")

_HEX = "0123456789ABCDEF"


def percent_encode(text: str, *, plus_spaces: bool = True) -> str:
    """Percent-encode ``text`` for use in a query component.

    :param plus_spaces: encode ``" "`` as ``"+"`` (``application/x-www-form-
        urlencoded`` convention used by the ad SDK wire formats) rather than
        ``"%20"``.
    """
    out: list[str] = []
    for byte in text.encode("utf-8"):
        ch = chr(byte)
        if ch in _UNRESERVED:
            out.append(ch)
        elif ch == " " and plus_spaces:
            out.append("+")
        else:
            out.append(f"%{_HEX[byte >> 4]}{_HEX[byte & 0xF]}")
    return "".join(out)


def percent_decode(text: str, *, plus_spaces: bool = True) -> str:
    """Inverse of :func:`percent_encode`; tolerant of stray ``%`` signs.

    A ``%`` not followed by two hex digits is passed through literally, the
    way browsers and mobile HTTP stacks behave, so that slightly malformed
    captured traffic still parses.
    """
    out = bytearray()
    i = 0
    raw = text.encode("utf-8")
    while i < len(raw):
        byte = raw[i]
        if byte == 0x25 and i + 2 < len(raw) + 1:  # '%'
            hex_pair = raw[i + 1 : i + 3].decode("ascii", "replace")
            if len(hex_pair) == 2 and all(c in "0123456789abcdefABCDEF" for c in hex_pair):
                out.append(int(hex_pair, 16))
                i += 3
                continue
        if byte == 0x2B and plus_spaces:  # '+'
            out.append(0x20)
            i += 1
            continue
        out.append(byte)
        i += 1
    return out.decode("utf-8", "replace")


@dataclass(slots=True)
class QueryString:
    """An ordered multimap of query parameters.

    Order is preserved because conjunction signatures are ordered token
    sequences: ``udid=X&carrier=Y`` and ``carrier=Y&udid=X`` produce
    different invariant substrings.
    """

    pairs: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def parse(cls, raw: str) -> "QueryString":
        """Parse ``a=1&b=two`` text; bare keys get an empty value."""
        pairs: list[tuple[str, str]] = []
        if not raw:
            return cls(pairs)
        for chunk in raw.split("&"):
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            pairs.append((percent_decode(key), percent_decode(value) if sep else ""))
        return cls(pairs)

    def keys(self) -> list[str]:
        return [k for k, _v in self.pairs]


def parse_url(url: str) -> tuple[str, str, str]:
    """Split a request target into ``(path, raw_query, fragment)``.

    Accepts either an origin-form target (``/path?q``) or an absolute URL
    (``http://host/path?q``); in the latter case the scheme and authority
    are discarded (the packet model carries the host separately).

    :raises ParseError: when the target is empty.
    """
    if not url:
        raise ParseError("empty request target")
    rest = url
    if "://" in rest:
        __, __, rest = rest.partition("://")
        slash = rest.find("/")
        rest = rest[slash:] if slash >= 0 else "/"
    rest, __, fragment = rest.partition("#")
    path, __, query = rest.partition("?")
    if not path.startswith("/"):
        path = "/" + path
    return path, query, fragment
