"""Sharded batched matching must be bit-identical to the scalar matcher."""

import pytest

from repro.errors import SignatureError
from repro.serving.shards import ShardedMatcher
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import SignatureMatcher
from tests.conftest import make_packet


def sig(*tokens, scope=""):
    return ConjunctionSignature(tokens=tokens, scope_domain=scope)


def corpus_signatures(corpus, limit=30):
    """Signatures cut from real corpus packets, scoped and unscoped mixed."""
    signatures = []
    for index, packet in enumerate(corpus.trace.packets[::7]):
        text = packet.canonical_text()
        third = len(text) // 3
        first, second = text[third : third + 6], text[2 * third : 2 * third + 6]
        if len(first) < 6 or len(second) < 6:
            continue
        scope = packet.destination.registered_domain if index % 2 else ""
        signatures.append(ConjunctionSignature(tokens=(first, second), scope_domain=scope))
        if len(signatures) >= limit:
            break
    assert len(signatures) >= 10
    return signatures


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_bit_identical_over_corpus(self, small_corpus, n_shards):
        signatures = corpus_signatures(small_corpus)
        scalar = SignatureMatcher(signatures)
        sharded = ShardedMatcher(signatures, n_shards)
        packets = small_corpus.trace.packets[:400]
        scalar_results = [scalar.match(p) for p in packets]
        sharded_results = sharded.match_batch(packets)
        assert scalar_results == sharded_results
        assert any(r.matched for r in scalar_results)  # the comparison saw hits
        assert any(not r.matched for r in scalar_results)

    def test_more_shards_than_signatures(self):
        signatures = [sig("udid=abc")]
        sharded = ShardedMatcher(signatures, n_shards=8)
        packet = make_packet(target="/p?udid=abc")
        assert sharded.match(packet) == SignatureMatcher(signatures).match(packet)


class TestWinOrder:
    def test_scoped_beats_earlier_unscoped(self):
        # The scalar matcher screens the destination bucket first, so the
        # scoped signature wins even though the unscoped one is listed first.
        signatures = [sig("x=1"), sig("x=1", scope="example.com")]
        packet = make_packet(host="ads.example.com", target="/p?x=1")
        for n_shards in (1, 2):
            winner = ShardedMatcher(signatures, n_shards).match(packet).signature
            assert winner is not None and winner.scope_domain == "example.com"
            assert winner == SignatureMatcher(signatures).match(packet).signature

    def test_first_listed_wins_within_class(self):
        signatures = [sig("x=1", scope="example.com"), sig("=1", scope="example.com")]
        packet = make_packet(host="ads.example.com", target="/p?x=1")
        for n_shards in (1, 2, 3):
            winner = ShardedMatcher(signatures, n_shards).match(packet).signature
            assert winner == signatures[0]

    def test_clean_packet_everywhere(self):
        signatures = [sig("absent-token"), sig("gone", scope="example.com")]
        packet = make_packet(host="ads.example.com", target="/p?x=1")
        result = ShardedMatcher(signatures, 2).match(packet)
        assert not result.matched and result.signature is None


class TestShape:
    def test_round_robin_sizes_balanced(self):
        signatures = [sig(f"tok{i}=v") for i in range(10)]
        sharded = ShardedMatcher(signatures, n_shards=3)
        sizes = sorted(len(shard.entries) for shard in sharded.shards)
        assert sizes == [3, 3, 4]
        assert len(sharded) == 10

    def test_rejects_bad_shard_count(self):
        with pytest.raises(SignatureError):
            ShardedMatcher([sig("a=b")], n_shards=0)
