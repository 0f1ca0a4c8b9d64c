"""Exact and probabilistic signature matching."""

import pytest

from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import MatchResult, ProbabilisticMatcher, SignatureMatcher
from tests.conftest import make_packet


def sig(*tokens, scope=""):
    return ConjunctionSignature(tokens=tokens, scope_domain=scope)


class TestExactMatcher:
    def test_first_firing_signature_reported(self):
        matcher = SignatureMatcher([sig("nomatch==="), sig("udid=abc")])
        result = matcher.match(make_packet(target="/p?udid=abc"))
        assert result.matched
        assert result.signature.tokens == ("udid=abc",)
        assert result.score == 1.0

    def test_clean_packet(self):
        matcher = SignatureMatcher([sig("udid=abc")])
        result = matcher.match(make_packet(target="/p?x=1"))
        assert not result.matched
        assert result.signature is None

    def test_domain_index_scopes_candidates(self):
        matcher = SignatureMatcher(
            [sig("token=one", scope="admob.com"), sig("token=one", scope="nend.net")]
        )
        p = make_packet(host="r.admob.com", target="/p?token=one")
        candidates = matcher.candidates_for(p)
        assert len(candidates) == 1
        assert candidates[0].scope_domain == "admob.com"

    def test_unscoped_always_candidate(self):
        matcher = SignatureMatcher([sig("anything=x")])
        p = make_packet(host="whatever.org")
        assert len(matcher.candidates_for(p)) == 1

    def test_len(self):
        assert len(SignatureMatcher([sig("a=bcd"), sig("e=fgh")])) == 2


class TestProbabilisticMatcher:
    def test_threshold_one_equals_exact(self):
        signatures = [sig("alpha=1", "beta=2")]
        exact = SignatureMatcher(signatures)
        prob = ProbabilisticMatcher(signatures, threshold=1.0)
        full = make_packet(target="/p?alpha=1&beta=2")
        partial = make_packet(target="/p?alpha=1")
        assert exact.match(full).matched == prob.match(full).matched is True
        assert exact.match(partial).matched == prob.match(partial).matched is False

    def test_partial_match_above_threshold(self):
        # "alpha=1" is 7 of 14 total chars -> score 0.5
        matcher = ProbabilisticMatcher([sig("alpha=1", "beta=2x")], threshold=0.5)
        result = matcher.match(make_packet(target="/p?alpha=1"))
        assert result.matched
        assert result.score == pytest.approx(0.5)

    def test_partial_match_below_threshold(self):
        matcher = ProbabilisticMatcher([sig("alpha=1", "beta=2x")], threshold=0.8)
        assert not matcher.match(make_packet(target="/p?alpha=1")).matched

    def test_score_weighs_token_length(self):
        s = sig("zq", "longtoken=abcdef")
        matcher = ProbabilisticMatcher([s], threshold=0.5)
        # only the long token matches: score 16/18
        result = matcher.match(make_packet(target="/p?longtoken=abcdef"))
        assert result.matched
        assert result.score > 0.8

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ProbabilisticMatcher([sig("x=yz")], threshold=0.0)
        with pytest.raises(ValueError):
            ProbabilisticMatcher([sig("x=yz")], threshold=1.5)

    def test_best_scoring_signature_wins(self):
        weak = sig("alpha=1", "zzzz=9")
        strong = sig("alpha=1", "beta=2")
        matcher = ProbabilisticMatcher([weak, strong], threshold=0.4)
        result = matcher.match(make_packet(target="/p?alpha=1&beta=2"))
        assert result.signature is strong


class TestLiteralPrefilter:
    """The inverted literal index narrows candidates without changing verdicts."""

    def corpus_packets(self, small_corpus):
        return small_corpus.trace.packets[:300]

    def reference_match(self, matcher, packet):
        """The pre-index behaviour: full scan of every scope-admitted signature."""
        text = packet.canonical_text()
        for signature in matcher.candidates_for(packet):
            if signature.matches_text(text):
                return MatchResult(matched=True, signature=signature, score=1.0)
        return MatchResult(matched=False)

    def test_equivalent_to_full_scan_over_corpus(self, small_corpus):
        from tests.test_serving_shards import corpus_signatures

        matcher = SignatureMatcher(corpus_signatures(small_corpus))
        hits = 0
        for packet in self.corpus_packets(small_corpus):
            expected = self.reference_match(matcher, packet)
            assert matcher.match(packet) == expected
            hits += expected.matched
        assert hits > 0  # the equivalence run saw real matches

    def test_prefilter_is_pure_narrowing(self):
        matcher = SignatureMatcher(
            [sig("udid=abc"), sig("absent-token"), sig("udid=abc", scope="admob.com")]
        )
        p = make_packet(host="r.admob.com", target="/p?udid=abc")
        text = p.canonical_text()
        narrowed = matcher.candidates_for(p, text)
        assert set(map(id, narrowed)) <= set(map(id, matcher.candidates_for(p)))
        # every actually-matching signature survives the prefilter
        for signature in matcher.candidates_for(p):
            if signature.matches_text(text):
                assert signature in narrowed

    def test_prefilter_drops_absent_literals(self):
        matcher = SignatureMatcher([sig("udid=abc"), sig("never-present")])
        p = make_packet(target="/p?udid=abc")
        narrowed = matcher.candidates_for(p, p.canonical_text())
        assert [s.tokens for s in narrowed] == [("udid=abc",)]

    def test_inverted_index_shape(self):
        short_long = sig("ab", "longest-literal")
        other = sig("longest-literal")
        matcher = SignatureMatcher([short_long, other])
        assert matcher.by_literal["longest-literal"] == [short_long, other]

    def test_probabilistic_matcher_sees_all_candidates(self):
        # Partial-coverage scoring must not be prefiltered: here the longest
        # token is absent but the threshold is met by the other token.
        signatures = [sig("alpha=1", "longest-token-absent")]
        matcher = ProbabilisticMatcher(signatures, threshold=0.2)
        assert matcher.match(make_packet(target="/p?alpha=1")).matched
