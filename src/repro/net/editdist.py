"""Levenshtein edit distance, written from scratch.

The HTTP host distance in the paper is

    d_host(p_x, p_y) = ed(host_x, host_y) / max(len(host_x), len(host_y))

where ``ed`` is the classic edit distance.  We implement the iterative
two-row dynamic program (O(len_a * len_b) time, O(min) space).
"""

from __future__ import annotations

from collections.abc import Sequence


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Exact edit distance (insert / delete / substitute, unit costs).

    Accepts any sequences with comparable elements — in practice the FQDN
    strings of two HTTP packets.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    # Keep the inner loop over the shorter sequence to bound memory.
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i]
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance normalized to ``[0, 1]`` by the longer operand.

    This is exactly the paper's ``d_host`` formula.  Two empty strings are
    defined to be at distance 0 (they are identical).
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest
