"""Invariant-token extraction and boilerplate filtering."""

from hypothesis import given, seed
from hypothesis import strategies as st

from repro.signatures.tokens import (
    TokenFilter,
    common_substrings,
    invariant_tokens,
    ordered_in_all,
)


class TestCommonSubstrings:
    def test_two_texts(self):
        result = common_substrings(["x=1&udid=abcdef&t=9", "udid=abcdef&t=10&x=2"])
        assert "udid=abcdef&t=" in result

    def test_three_texts_intersection_shrinks(self):
        texts = [
            "a=1&udid=SECRET&b=2",
            "udid=SECRET&c=3",
            "zz&udid=SECRET",
        ]
        result = common_substrings(texts)
        assert any("udid=SECRET" in token for token in result)
        assert not any("a=1" in token for token in result)

    def test_single_text_returns_itself(self):
        assert common_substrings(["whole text"]) == ["whole text"]

    def test_empty_input(self):
        assert common_substrings([]) == []

    def test_nothing_in_common(self):
        assert common_substrings(["aaaa", "bbbb"]) == []

    def test_ordered_by_position_in_first(self):
        result = common_substrings(["AAA...BBB", "BBBxAAA"], min_length=3)
        assert result.index("AAA") < result.index("BBB")

    @seed(1904)
    @given(st.lists(st.text(alphabet="ab=&12", min_size=1, max_size=20), min_size=2, max_size=4))
    def test_every_token_occurs_in_every_text(self, texts):
        for token in common_substrings(texts, min_length=2):
            assert all(token in text for text in texts)


class TestTokenFilter:
    def test_boilerplate_only_token_dropped(self):
        assert TokenFilter().clean("GET /") is None
        assert TokenFilter().clean(" HTTP/1.1") is None

    def test_boilerplate_edges_stripped(self):
        cleaned = TokenFilter().clean("GET /api/v2/imp?sid=")
        assert cleaned == "api/v2/imp?sid="

    def test_short_tokens_dropped(self):
        assert TokenFilter(min_length=5).clean("ab=c") is None

    def test_numeric_only_dropped(self):
        assert TokenFilter().clean("1330000000000") is None
        assert TokenFilter(reject_numeric_only=False).clean("1330000000") == "1330000000"

    def test_good_token_kept(self):
        assert TokenFilter().clean("udid=abc123def") == "udid=abc123def"

    def test_apply_dedupes_preserving_order(self):
        tokens = ["udid=abc123", "GET /", "udid=abc123", "carrier=docomo"]
        assert TokenFilter().apply(tokens) == ["udid=abc123", "carrier=docomo"]


class TestInvariantTokens:
    def test_extracts_identifier_token(self):
        texts = [
            "GET /ad?udid=deadbeef12345678&r=111 HTTP/1.1\n\n",
            "GET /ad?udid=deadbeef12345678&r=222 HTTP/1.1\n\n",
        ]
        tokens = invariant_tokens(texts)
        assert any("udid=deadbeef12345678" in t for t in tokens)

    def test_no_boilerplate_in_result(self):
        texts = ["GET /a?x=11111 HTTP/1.1\n\n", "GET /b?y=22222 HTTP/1.1\n\n"]
        tokens = invariant_tokens(texts)
        for token in tokens:
            assert "HTTP/1.1" not in token
            assert token != "GET /"

    def test_disjoint_texts_no_tokens(self):
        assert invariant_tokens(["aaaaaaaa", "bbbbbbbb"]) == []


class TestOrderedInAll:
    def test_keeps_in_order_tokens(self):
        texts = ["..alpha..beta..", "xxalphayybeta"]
        assert ordered_in_all(["alpha", "beta"], texts) == ["alpha", "beta"]

    def test_drops_order_violator(self):
        texts = ["alpha..beta", "beta..alpha"]
        kept = ordered_in_all(["alpha", "beta"], texts)
        assert kept == ["alpha"]

    def test_non_overlapping_requirement(self):
        # "aaa" twice needs 6 chars of 'a'; text two has only 4.
        kept = ordered_in_all(["aaa", "aaa"], ["aaaaaaaa", "aaaa"])
        assert kept == ["aaa"]

    def test_empty_tokens(self):
        assert ordered_in_all([], ["anything"]) == []
