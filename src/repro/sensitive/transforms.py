"""The transform lattice: how identifiers appear on the wire.

Ad modules in the paper's corpus do not always send identifiers verbatim —
many transmit the MD5 or SHA1 of a UDID ("some modules compute UDID's hash
... at the time of transmission").  On top of hashing, HTTP transport adds
encodings (percent-encoding, upper/lower hex, base64).  The payload check
must recognize every plausible on-wire spelling, so this module enumerates
a closed set of transforms and derives all spellings of a value.
"""

from __future__ import annotations

import base64
import enum
import hashlib

from repro.http.url import percent_encode


class Transform(enum.Enum):
    """How a sensitive value was transformed before transmission.

    ``PLAIN`` covers byte-identical transmission; ``MD5``/``SHA1`` are the
    hashed forms the paper tracks as separate Table III rows; ``SHA256`` is
    included as a forward-looking extension (modern SDKs use it).
    """

    PLAIN = "PLAIN"
    MD5 = "MD5"
    SHA1 = "SHA1"
    SHA256 = "SHA256"

    @property
    def is_hash(self) -> bool:
        return self is not Transform.PLAIN


def transform_value(value: str, transform: Transform) -> str:
    """Apply ``transform`` to ``value``; hashes return lowercase hex digests.

    >>> transform_value("abc", Transform.MD5)
    '900150983cd24fb0d6963f7d28e17f72'
    """
    if transform is Transform.PLAIN:
        return value
    data = value.encode("utf-8")
    if transform is Transform.MD5:
        return hashlib.md5(data).hexdigest()
    if transform is Transform.SHA1:
        return hashlib.sha1(data).hexdigest()
    if transform is Transform.SHA256:
        return hashlib.sha256(data).hexdigest()
    raise ValueError(f"unknown transform {transform!r}")


def wire_spellings(text: str) -> tuple[str, ...]:
    """All wire encodings of one literal string, canonical form first.

    Covers: the literal itself, upper-case hex variant (for hex-shaped
    values), percent-encoding, and standard base64 of the UTF-8 bytes.
    Every element is a spelling the payload check's scanner searches for,
    so any substitution *within* this tuple keeps a leak detectable —
    the contract the evasion arena's encoding-churn mutation relies on.
    """
    variants = [text]
    if any(c in "abcdef" for c in text) and all(c in "0123456789abcdef" for c in text):
        variants.append(text.upper())
    encoded = percent_encode(text)
    if encoded != text:
        variants.append(encoded)
    variants.append(base64.b64encode(text.encode("utf-8")).decode("ascii"))
    return tuple(dict.fromkeys(variants))


def _encodings(text: str) -> set[str]:
    """Set view of :func:`wire_spellings` (the scanner's search table)."""
    return set(wire_spellings(text))


def transform_variants(value: str, transform: Transform) -> set[str]:
    """Every on-wire spelling of ``transform(value)``.

    The result is what a scanner should search packet text for.  Spellings
    shorter than 4 characters are dropped — they would anchor on noise.
    """
    transformed = transform_value(value, transform)
    return {v for v in _encodings(transformed) if len(v) >= 4}
