"""The defender loop: publish-on-change, version monotonicity, never-regress."""

import pytest

from repro.arena.defender import DefenderConfig, DefenderLoop
from repro.arena.mutations import MutationFamily, plans_for
from repro.eval.crossval import generate_from
from repro.signatures.matcher import SignatureMatcher


@pytest.fixture(scope="module")
def check(small_corpus):
    return small_corpus.payload_check()


@pytest.fixture(scope="module")
def split_packets(small_corpus, check):
    suspicious, __ = check.split(small_corpus.trace)
    return list(suspicious[:60]), list(suspicious[60:100])


@pytest.fixture(scope="module")
def boot(split_packets):
    train, __ = split_packets
    return generate_from(train)


@pytest.fixture(scope="module")
def evading_misses(check, split_packets):
    """Held-out leaks reshaped by one attacker family (clusterable misses)."""
    __, held_out = split_packets
    (plan,) = plans_for(
        check, seed=3, families=[MutationFamily.PADDING_CHAFF]
    )
    return plan.mutate_all(held_out, 1)


class TestPublication:
    def test_base_set_published_as_version_one(self, boot):
        defender = DefenderLoop(boot)
        assert defender.repository.latest_version() == 1
        envelope = defender.latest_envelope
        assert envelope.set_version == 1
        assert len(envelope.signatures) == len(boot)

    def test_no_misses_no_republish(self, boot):
        defender = DefenderLoop(boot)
        outcome = defender.observe_misses([], round_no=1)
        assert outcome.published_version is None
        assert outcome.misses_ingested == 0
        assert defender.repository.latest_version() == 1

    def test_misses_regenerate_and_republish(self, boot, evading_misses):
        defender = DefenderLoop(boot)
        outcome = defender.observe_misses(evading_misses, round_no=1)
        assert outcome.misses_ingested == len(evading_misses)
        assert outcome.miss_clusters >= 1
        assert outcome.regenerated >= 1
        assert outcome.published_version == 2
        assert defender.repository.latest_version() == 2

    def test_unchanged_set_is_not_republished_again(self, boot, evading_misses):
        defender = DefenderLoop(boot)
        defender.observe_misses(evading_misses, round_no=1)
        version = defender.repository.latest_version()
        # Same cumulative miss population => same merged set => no publish.
        again = defender.observe_misses([], round_no=2)
        assert again.published_version is None
        assert defender.repository.latest_version() == version

    def test_versions_advance_monotonically(self, boot, check, split_packets):
        __, held_out = split_packets
        defender = DefenderLoop(boot)
        versions = []
        for round_no, family in enumerate(
            (MutationFamily.PADDING_CHAFF, MutationFamily.HEADER_REORDER), start=1
        ):
            (plan,) = plans_for(check, seed=3, families=[family])
            outcome = defender.observe_misses(
                plan.mutate_all(held_out, round_no), round_no
            )
            if outcome.published_version is not None:
                versions.append(outcome.published_version)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert defender.repository.latest_version() == versions[-1]


class TestNeverRegress:
    def test_merged_set_keeps_base_coverage(self, boot, evading_misses, check,
                                            small_corpus):
        """Regeneration must not lose packets the base set already caught."""
        defender = DefenderLoop(boot)
        defender.observe_misses(evading_misses, round_no=1)
        suspicious, __ = check.split(small_corpus.trace)
        base_matcher = SignatureMatcher(boot)
        merged_matcher = SignatureMatcher(defender.signatures)
        for packet in suspicious[:120]:
            if base_matcher.is_sensitive(packet):
                assert merged_matcher.is_sensitive(packet)

    def test_regenerated_set_catches_the_misses_it_learned_from(
        self, boot, evading_misses
    ):
        defender = DefenderLoop(boot)
        defender.observe_misses(evading_misses, round_no=1)
        matcher = SignatureMatcher(defender.signatures)
        caught = sum(1 for m in evading_misses if matcher.is_sensitive(m))
        assert caught / len(evading_misses) >= 0.8


class TestBoundedMemory:
    def test_pair_cache_respects_the_configured_bound(
        self, boot, check, split_packets
    ):
        __, held_out = split_packets
        defender = DefenderLoop(boot, DefenderConfig(max_cached_pairs=64))
        (plan,) = plans_for(
            check, seed=3, families=[MutationFamily.PADDING_CHAFF]
        )
        for round_no in (1, 2, 3):
            outcome = defender.observe_misses(
                plan.mutate_all(held_out, round_no), round_no
            )
            assert outcome.pair_cache_size <= 64
        assert outcome.pair_cache_evictions > 0
