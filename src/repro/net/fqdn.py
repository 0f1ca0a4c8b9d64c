"""Fully-qualified domain name handling.

The paper treats the HTTP host as "the character string of the FQDN" for
the host distance; the corpus statistics (Table II) are reported per
*registered domain* ("admob.com", "yahoo.co.jp") rather than per raw host.
This module provides normalization and a small public-suffix table that is
sufficient for the domains appearing in the paper's dataset (``.com``,
``.net``, ``.info``, ``.jp``, ``.co.jp``, ``.ne.jp``, ``.or.jp``, ``.mobi``
...).
"""

from __future__ import annotations

import re

from repro.errors import ParseError

#: Multi-label public suffixes seen in Japanese mobile traffic; single-label
#: TLDs are implicit (any final label is a suffix).
_MULTI_LABEL_SUFFIXES: frozenset[tuple[str, ...]] = frozenset(
    {
        ("co", "jp"),
        ("ne", "jp"),
        ("or", "jp"),
        ("ac", "jp"),
        ("go", "jp"),
        ("ad", "jp"),
        ("gr", "jp"),
        ("co", "uk"),
        ("com", "cn"),
        ("com", "tw"),
    }
)

_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

#: A whole legal host: non-empty labels of :data:`_ALLOWED` characters.
#: A host it matches in full is its own :func:`normalize_host`.
LEGAL_HOST = re.compile(r"[a-z0-9_-]+(?:\.[a-z0-9_-]+)*")


def normalize_host(host: str) -> str:
    """Lowercase, strip the trailing dot and surrounding space of a host.

    :raises ParseError: on an empty host or one with illegal characters.
    """
    cleaned = host.strip().rstrip(".").lower()
    if LEGAL_HOST.fullmatch(cleaned) is None:
        # Rejected: walk the labels only to name the first fault.
        if not cleaned:
            raise ParseError("empty host name", host)
        for label in cleaned.split("."):
            if not label:
                raise ParseError("empty label in host", host)
            if any(ch not in _ALLOWED for ch in label):
                raise ParseError("illegal character in host", host)
    return cleaned


def registered_domain(host: str) -> str:
    """The registrable domain of ``host`` ("a.b.admob.com" -> "admob.com").

    Uses the embedded suffix table for two-label public suffixes and falls
    back to "last two labels" otherwise, which matches how the paper's
    Table II aggregates destinations.  A bare TLD or single label is
    returned unchanged.
    """
    return registered_domain_of_normalized(normalize_host(host))


def registered_domain_of_normalized(cleaned: str) -> str:
    """:func:`registered_domain` of a host already through :func:`normalize_host`."""
    labels = cleaned.split(".")
    if len(labels) <= 2:
        return cleaned
    if tuple(labels[-2:]) in _MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])
