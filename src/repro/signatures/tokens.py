"""Invariant-token extraction across a cluster of packet texts.

The paper: "Compute a signature S_i as longest common strings of HTTP
contents in C_i."  We follow the Polygraph conjunction-signature recipe:
the tokens of a cluster are the maximal substrings present in *every*
member.  Extraction is iterative refinement — start from the first member
as one giant candidate token, then intersect against each further member.
A candidate that occurs whole in the member is kept after one C-level
substring test; only the rest are split, into the maximal common spans of
:meth:`repro.signatures.lcs.SuffixAutomaton.maximal_spans`, over at most
one automaton build per member.

The paper also warns that careless generation yields signatures "that match
most network packets (e.g POST *, GET *, * HTTP/1.1)"; :class:`TokenFilter`
prunes exactly that boilerplate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.signatures.lcs import SuffixAutomaton

#: Substrings every HTTP request contains; a token equal to (or consisting
#: only of) these carries no discriminating power.
DEFAULT_BOILERPLATE: tuple[str, ...] = (
    "GET /",
    "POST /",
    "GET ",
    "POST ",
    " HTTP/1.1",
    " HTTP/1.0",
    "HTTP/1.",
    "Cookie: ",
    "Host: ",
    "http://",
    "https://",
)


@dataclass(frozen=True, slots=True)
class TokenFilter:
    """Policy for which extracted tokens are worth keeping.

    :param min_length: tokens shorter than this are dropped (the paper's
        pathological examples are all short boilerplate).
    :param boilerplate: exact strings to strip from token *edges* and to
        reject when a token is nothing but boilerplate.
    :param reject_numeric_only: drop tokens that are purely digits or
        punctuation — timestamps and sequence counters, not invariants.
    """

    min_length: int = 5
    boilerplate: tuple[str, ...] = DEFAULT_BOILERPLATE
    reject_numeric_only: bool = True

    def clean(self, token: str) -> str | None:
        """Return the cleaned token, or ``None`` if it should be dropped."""
        cleaned = token
        # Strip boilerplate prefixes/suffixes repeatedly (longest first so
        # "POST /" wins over "POST ").
        changed = True
        while changed:
            changed = False
            for pattern in sorted(self.boilerplate, key=len, reverse=True):
                if cleaned.startswith(pattern):
                    cleaned = cleaned[len(pattern):]
                    changed = True
                if cleaned.endswith(pattern):
                    cleaned = cleaned[: -len(pattern)]
                    changed = True
        cleaned = cleaned.strip("\n")
        if len(cleaned) < self.min_length:
            return None
        if self.reject_numeric_only and all(not ch.isalpha() for ch in cleaned):
            return None
        return cleaned

    def apply(self, tokens: Iterable[str]) -> list[str]:
        """Clean every token, dropping rejects and duplicates (keeps order)."""
        seen: set[str] = set()
        kept: list[str] = []
        for token in tokens:
            cleaned = self.clean(token)
            if cleaned is not None and cleaned not in seen:
                seen.add(cleaned)
                kept.append(cleaned)
        return kept


def common_substrings(texts: Sequence[str], min_length: int = 2) -> list[str]:
    """Maximal substrings occurring in *every* text, ordered by their
    position in the first text.

    Iterative refinement: the candidate set starts as the whole first text
    and is intersected against each subsequent member.  A span whose text
    occurs whole in the member survives unchanged, so it costs one
    C-level ``in`` test; only a span that has to split walks a suffix
    automaton of the member, built the first time the member needs one
    and shared by all its spans.  Cluster members are near-copies, so most
    members never build one, and an exact duplicate costs only ``in``
    tests.

    >>> common_substrings(["x=1&udid=abcdef&t=9", "udid=abcdef&t=10&x=2"])
    ['x=', '=1', 'udid=abcdef&t=']
    """
    if not texts:
        return []
    reference = texts[0]
    if len(texts) == 1:
        return [reference] if len(reference) >= min_length else []
    if min_length < 1:
        return []  # maximal_spans keeps nothing then, so no span survives a member
    # Candidates are spans of the reference text.
    spans = [(0, len(reference))] if len(reference) >= min_length else []
    for other in texts[1:]:
        if not spans:
            return []
        refined: list[tuple[int, int]] = []
        automaton: SuffixAutomaton | None = None
        for start, end in spans:
            fragment = reference[start:end]
            # A fragment found whole matches its full length at its last
            # position, and every span is at least min_length long, so its
            # maximal spans would be exactly [(0, len(fragment))].
            if fragment in other:
                refined.append((start, end))
                continue
            if automaton is None:
                automaton = SuffixAutomaton(other)
            for sub_start, sub_end in automaton.maximal_spans(fragment, min_length):
                refined.append((start + sub_start, start + sub_end))
        spans = _dedupe_spans(refined)
    spans.sort()
    out: list[str] = []
    seen: set[str] = set()
    for start, end in spans:
        text = reference[start:end]
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def _dedupe_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop spans contained in other spans (and exact duplicates)."""
    unique = sorted(set(spans), key=lambda s: (s[0], -s[1]))
    kept: list[tuple[int, int]] = []
    best_end = -1
    for start, end in unique:
        if end > best_end:
            kept.append((start, end))
            best_end = end
    return kept


def invariant_tokens(
    texts: Sequence[str],
    token_filter: TokenFilter | None = None,
) -> list[str]:
    """Filtered invariant tokens of a cluster, in first-member order.

    This is the full Section IV-E step 2 for one cluster: extract common
    substrings, then apply the anti-boilerplate filter.  Returns an empty
    list when the cluster shares nothing distinctive — the generator skips
    such clusters rather than emit a match-everything signature.
    """
    if token_filter is None:
        token_filter = TokenFilter()
    raw = common_substrings(texts, min_length=max(2, token_filter.min_length))
    return token_filter.apply(raw)


def ordered_in_all(tokens: Sequence[str], texts: Sequence[str]) -> list[str]:
    """The longest prefix-greedy subsequence of ``tokens`` that occurs
    left-to-right (non-overlapping) in every text.

    Conjunction signatures assert token *order*; extraction order (position
    in the first member) may not hold in other members, so the generator
    verifies order and drops violating tokens greedily.
    """
    kept: list[str] = []
    for token in tokens:
        trial = kept + [token]
        if all(_occurs_in_order(trial, text) for text in texts):
            kept.append(token)
    return kept


def _occurs_in_order(tokens: Sequence[str], text: str) -> bool:
    """Whether all tokens appear left-to-right, non-overlapping, in text."""
    position = 0
    for token in tokens:
        found = text.find(token, position)
        if found < 0:
            return False
        position = found + len(token)
    return True
