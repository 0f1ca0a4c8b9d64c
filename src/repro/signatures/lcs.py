"""Common-substring machinery built on a suffix automaton.

Signature generation needs, repeatedly: "which (maximal) substrings of
string A also occur in string B?"  A suffix automaton of B answers the
longest-match-ending-at-each-position query for the whole of A in a single
linear walk, which keeps token extraction fast even for kilobyte POST
bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class _State:
    length: int
    link: int
    transitions: dict[str, int] = field(default_factory=dict)


class SuffixAutomaton:
    """Suffix automaton over one string (online construction, O(n) states).

    :param text: the string whose substring set the automaton recognizes.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._states: list[_State] = [_State(length=0, link=-1)]
        self._last = 0
        for ch in text:
            self._extend(ch)

    def _extend(self, ch: str) -> None:
        states = self._states
        current = len(states)
        states.append(_State(length=states[self._last].length + 1, link=-1))
        p = self._last
        while p != -1 and ch not in states[p].transitions:
            states[p].transitions[ch] = current
            p = states[p].link
        if p == -1:
            states[current].link = 0
        else:
            q = states[p].transitions[ch]
            if states[p].length + 1 == states[q].length:
                states[current].link = q
            else:
                clone = len(states)
                states.append(
                    _State(
                        length=states[p].length + 1,
                        link=states[q].link,
                        transitions=dict(states[q].transitions),
                    )
                )
                while p != -1 and states[p].transitions.get(ch) == q:
                    states[p].transitions[ch] = clone
                    p = states[p].link
                states[q].link = clone
                states[current].link = clone
        self._last = current

    def match_lengths(self, query: str) -> list[int]:
        """For each position ``i`` of ``query``, the length of the longest
        substring of the indexed text ending at ``query[i]``.

        The classic matching walk: follow transitions when possible,
        otherwise chase suffix links shortening the current match.
        """
        lengths = [0] * len(query)
        state = 0
        length = 0
        states = self._states
        for i, ch in enumerate(query):
            while state != 0 and ch not in states[state].transitions:
                state = states[state].link
                length = states[state].length
            if ch in states[state].transitions:
                state = states[state].transitions[ch]
                length += 1
            else:
                state = 0
                length = 0
            lengths[i] = length
        return lengths

    def maximal_spans(self, query: str, min_length: int = 1) -> list[tuple[int, int]]:
        """Maximal ``(start, end)`` spans of ``query`` whose text occurs in
        the indexed text, sorted by start; spans shorter than ``min_length``
        are dropped.

        "Maximal" means not contained in a longer qualifying span.
        """
        if not query or not self.text or min_length < 1:
            return []
        candidates = [
            (i - length + 1, i + 1)
            for i, length in enumerate(self.match_lengths(query))
            if length >= min_length
        ]
        # A candidate ending at i is contained in one ending at i+1 iff the
        # latter starts at or before it; keep only spans not covered by the
        # next longer overlapping one.  Generic containment filter, O(k log k):
        candidates.sort(key=lambda s: (s[0], -s[1]))
        maximal: list[tuple[int, int]] = []
        best_end = -1
        for start, end in candidates:
            if end > best_end:
                maximal.append((start, end))
                best_end = end
        return maximal
