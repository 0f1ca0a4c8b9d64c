"""Suffix automaton and common-substring machinery, checked brute-force."""

from hypothesis import given
from hypothesis import strategies as st

from repro.signatures.lcs import SuffixAutomaton

small_text = st.text(alphabet="abc=&1", max_size=16)


def brute_lcs_length(a, b):
    best = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            if a[i:j] in b:
                best = max(best, j - i)
    return best


def contains(automaton, needle):
    """Substring test through the match walk: the whole needle matches at its end."""
    return not needle or automaton.match_lengths(needle)[-1] == len(needle)


def longest_common_substring(a, b):
    """Leftmost longest common substring of ``a`` and ``b`` from one match walk."""
    lengths = SuffixAutomaton(b).match_lengths(a)
    best = max(lengths, default=0)
    if not best:
        return ""
    end = lengths.index(best) + 1
    return a[end - best : end]


class TestSuffixAutomaton:
    def test_contains_all_substrings(self):
        text = "udid=abc123&x=1"
        automaton = SuffixAutomaton(text)
        for i in range(len(text)):
            for j in range(i + 1, len(text) + 1):
                assert contains(automaton, text[i:j])

    def test_does_not_contain_foreign(self):
        automaton = SuffixAutomaton("aaabbb")
        assert not contains(automaton, "ba" * 3)
        assert not contains(automaton, "c")

    def test_empty_needle_contained(self):
        assert contains(SuffixAutomaton("xyz"), "")
        assert SuffixAutomaton("xyz").match_lengths("") == []

    def test_match_lengths_known(self):
        automaton = SuffixAutomaton("abcab")
        # query "zabz": longest matches ending at each position
        assert automaton.match_lengths("zabz") == [0, 1, 2, 0]

    @given(small_text, small_text)
    def test_contains_agrees_with_in(self, text, needle):
        assert contains(SuffixAutomaton(text), needle) == (needle in text)


class TestLcs:
    def test_known(self):
        assert longest_common_substring("udid=abc123&x=1", "y=9&udid=abc123") == "udid=abc123"

    def test_no_overlap(self):
        assert longest_common_substring("aaa", "bbb") == ""

    def test_empty_operands(self):
        assert longest_common_substring("", "abc") == ""
        assert longest_common_substring("abc", "") == ""

    def test_full_containment(self):
        assert longest_common_substring("abc", "xxabcxx") == "abc"

    @given(small_text, small_text)
    def test_length_matches_brute_force(self, a, b):
        result = longest_common_substring(a, b)
        assert len(result) == brute_lcs_length(a, b)
        if result:
            assert result in a and result in b


class TestMaximalSpans:
    def test_single_common_region(self):
        spans = SuffixAutomaton("yyHELLOyy").maximal_spans("xxHELLOxx", 2)
        texts = {"xxHELLOxx"[start:end] for start, end in spans}
        assert "HELLO" in texts

    def test_min_length_filters(self):
        assert SuffixAutomaton("ab").maximal_spans("ab", 3) == []

    def test_no_common(self):
        assert SuffixAutomaton("bbb").maximal_spans("aaa", 1) == []

    def test_spans_are_maximal(self):
        assert SuffixAutomaton("abcdef").maximal_spans("abcdef", 1) == [(0, 6)]

    def test_empty_inputs(self):
        assert SuffixAutomaton("abc").maximal_spans("", 1) == []
        assert SuffixAutomaton("").maximal_spans("abc", 1) == []

    @given(small_text, small_text)
    def test_every_span_text_occurs_in_other(self, a, b):
        for start, end in SuffixAutomaton(b).maximal_spans(a, 2):
            assert a[start:end] in b
            assert end - start >= 2

    @given(small_text, small_text)
    def test_no_span_contains_another(self, a, b):
        spans = SuffixAutomaton(b).maximal_spans(a, 1)
        for i, (s_start, s_end) in enumerate(spans):
            for j, (t_start, t_end) in enumerate(spans):
                if i != j:
                    assert not (s_start <= t_start and t_end <= s_end)
