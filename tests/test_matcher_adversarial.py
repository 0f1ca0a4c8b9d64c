"""Prefilter soundness under attack: match == match_full_scan, always.

The longest-literal prefilter skips the conjunction scan when a
signature's filter literal is absent from the packet text.  That is only
sound if the literal's absence truly falsifies the conjunction — which
holds because the literal is one of the signature's own tokens, and
matchers are rebuilt from scratch on every reload so literals can never
go stale against a regenerated set.  These tests make the argument
empirical across mutated traffic and post-regeneration sets.
"""

import pytest

from repro.arena.defender import DefenderLoop
from repro.arena.mutations import MutationFamily, plans_for
from repro.eval.crossval import generate_from
from repro.serving.gateway import GatewayConfig, ScreeningGateway
from repro.serving.loadgen import ScreeningEvent
from repro.signatures.matcher import SignatureMatcher, filter_literal


@pytest.fixture(scope="module")
def check(small_corpus):
    return small_corpus.payload_check()


@pytest.fixture(scope="module")
def traffic(small_corpus, check):
    suspicious, normal = check.split(small_corpus.trace)
    return list(suspicious[:60]), list(suspicious[60:100]), list(normal[:60])


@pytest.fixture(scope="module")
def boot(traffic):
    train, __, ___ = traffic
    return generate_from(train)


@pytest.fixture(scope="module")
def mutated_streams(check, traffic):
    """Every family's mutants over two rounds, plus untouched benign."""
    __, held_out, benign = traffic
    streams = []
    for plan in plans_for(check, seed=11):
        for round_no in (1, 2):
            streams.append(plan.mutate_all(held_out, round_no))
    streams.append(benign)
    return streams


@pytest.fixture(scope="module")
def regenerated(boot, check, traffic):
    """The defender's merged set after healing one evading family."""
    __, held_out, ___ = traffic
    (plan,) = plans_for(check, seed=11, families=[MutationFamily.PADDING_CHAFF])
    defender = DefenderLoop(boot)
    defender.observe_misses(plan.mutate_all(held_out, 1), round_no=1)
    assert len(defender.signatures) > len(boot)  # regeneration happened
    return defender.signatures


def assert_equivalent(matcher, packets):
    for packet in packets:
        fast = matcher.match(packet)
        slow = matcher.match_full_scan(packet)
        assert fast.matched == slow.matched, packet.canonical_text()
        assert fast.signature == slow.signature


class TestPrefilterEquivalence:
    def test_boot_set_over_mutated_traffic(self, boot, mutated_streams):
        matcher = SignatureMatcher(boot)
        for stream in mutated_streams:
            assert_equivalent(matcher, stream)

    def test_regenerated_set_over_mutated_traffic(
        self, regenerated, mutated_streams
    ):
        matcher = SignatureMatcher(regenerated)
        for stream in mutated_streams:
            assert_equivalent(matcher, stream)

    def test_regenerated_set_actually_flags_new_traffic(
        self, regenerated, boot, check, traffic
    ):
        """Guard against a vacuous equivalence (nothing matching at all)."""
        __, held_out, ___ = traffic
        (plan,) = plans_for(
            check, seed=11, families=[MutationFamily.PADDING_CHAFF]
        )
        mutants = plan.mutate_all(held_out, 1)
        base = sum(1 for m in mutants if SignatureMatcher(boot).is_sensitive(m))
        healed = sum(
            1 for m in mutants if SignatureMatcher(regenerated).is_sensitive(m)
        )
        assert healed > base


class TestShardedAgreement:
    """The gateway's batched scan agrees with the reference scan.

    The gateway screens through ``SignatureMatcher.match_batch``, the
    method ``bench/`` still patches as ``ShardedMatcher.match_batch``.
    """

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_sharded_matches_full_scan(
        self, regenerated, mutated_streams, batch_size
    ):
        reference = SignatureMatcher(regenerated)
        gateway = ScreeningGateway(
            regenerated, config=GatewayConfig(batch_size=batch_size)
        )
        for stream in mutated_streams:
            events = [
                ScreeningEvent(seq=seq, tick=float(seq), device_id="d", packet=packet)
                for seq, packet in enumerate(stream)
            ]
            results = gateway.run(events)
            assert all(result.screened for result in results)
            assert [result.match for result in results] == [
                reference.match_full_scan(packet) for packet in stream
            ]


class TestLiteralInvariants:
    def test_filter_literal_is_one_of_the_signatures_tokens(self, regenerated):
        for signature in regenerated:
            literal = filter_literal(signature)
            assert literal in signature.tokens
            assert all(len(literal) >= len(t) for t in signature.tokens)

    def test_match_full_scan_without_prefilter_index(self, boot, traffic):
        """The reference path ignores literals entirely: dropping a
        packet's literal from the text flips both paths identically."""
        matcher = SignatureMatcher(boot)
        __, held_out, ___ = traffic
        flagged = [p for p in held_out if matcher.is_sensitive(p)]
        assert flagged  # precondition: something to compare
        assert_equivalent(matcher, flagged)
