"""Deterministic fault injection."""

import pytest

from repro.errors import SimulationError
from repro.reliability.faults import FaultKind, FaultPlan

PAYLOAD = b'{"format_version": 2, "signatures": ["x" * 4]}' * 8


def outcomes(plan, n=200):
    return [plan.apply(PAYLOAD) for __ in range(n)]


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = outcomes(FaultPlan(seed=3, drop=0.2, corrupt=0.2, truncate=0.2))
        b = outcomes(FaultPlan(seed=3, drop=0.2, corrupt=0.2, truncate=0.2))
        assert a == b

    def test_different_seed_different_sequence(self):
        a = outcomes(FaultPlan(seed=3, drop=0.3, corrupt=0.3))
        b = outcomes(FaultPlan(seed=4, drop=0.3, corrupt=0.3))
        assert a != b

    def test_labels_fork_the_stream(self):
        plan_a = FaultPlan(seed=3, drop=0.5)
        plan_b = FaultPlan(seed=3, drop=0.5)
        a = [plan_a.apply(PAYLOAD, "device-1") for __ in range(50)]
        b = [plan_b.apply(PAYLOAD, "device-2") for __ in range(50)]
        assert a != b


class TestTaxonomy:
    def test_clean_plan_never_faults(self):
        plan = FaultPlan(seed=0)
        for outcome in outcomes(plan, 50):
            assert outcome.kind is FaultKind.NONE
            assert outcome.payload == PAYLOAD

    def test_all_kinds_occur_at_high_rates(self):
        plan = FaultPlan(seed=1, drop=0.15, truncate=0.15, corrupt=0.15, delay=0.15, stale=0.15)
        outcomes(plan, 400)
        for kind in FaultKind:
            assert plan.counts[kind] > 0, kind

    def test_drop_loses_payload(self):
        plan = FaultPlan(seed=2, drop=1.0)
        outcome = plan.apply(PAYLOAD)
        assert outcome.kind is FaultKind.DROP
        assert outcome.payload is None

    def test_truncate_yields_strict_prefix(self):
        plan = FaultPlan(seed=2, truncate=1.0)
        for __ in range(50):
            outcome = plan.apply(PAYLOAD)
            assert outcome.kind is FaultKind.TRUNCATE
            assert len(outcome.payload) < len(PAYLOAD)
            assert PAYLOAD.startswith(outcome.payload)

    def test_corrupt_changes_bytes_not_length(self):
        plan = FaultPlan(seed=2, corrupt=1.0)
        for __ in range(50):
            outcome = plan.apply(PAYLOAD)
            assert outcome.kind is FaultKind.CORRUPT
            assert len(outcome.payload) == len(PAYLOAD)
            assert outcome.payload != PAYLOAD

    def test_delay_keeps_payload_and_adds_ticks(self):
        plan = FaultPlan(seed=2, delay=1.0, max_delay_ticks=5.0)
        outcome = plan.apply(PAYLOAD)
        assert outcome.kind is FaultKind.DELAY
        assert outcome.payload == PAYLOAD
        assert 0.0 <= outcome.delay_ticks <= 5.0

    def test_stale_passes_payload_through(self):
        plan = FaultPlan(seed=2, stale=1.0)
        outcome = plan.apply(PAYLOAD)
        assert outcome.kind is FaultKind.STALE
        assert outcome.payload == PAYLOAD

    def test_empirical_rate_tracks_nominal(self):
        plan = FaultPlan(seed=5, drop=0.25)
        results = outcomes(plan, 1000)
        dropped = sum(1 for o in results if o.kind is FaultKind.DROP)
        assert 0.18 <= dropped / 1000 <= 0.32


class TestStream:
    def test_stream_applies_per_packet(self):
        plan = FaultPlan(seed=9, drop=0.5)
        payloads = [b"packet-%d" % i for i in range(40)]
        results = [plan.apply(payload, str(i)) for i, payload in enumerate(payloads)]
        assert len(results) == 40
        kinds = {o.kind for o in results}
        assert FaultKind.DROP in kinds and FaultKind.NONE in kinds

    def test_uniform_splits_rate(self):
        plan = FaultPlan.uniform(0.4, seed=1)
        assert sum(plan.rates.values()) == pytest.approx(0.4)
        assert plan.rates[FaultKind.DROP] == pytest.approx(0.16)


class TestValidation:
    def test_rejects_rate_out_of_range(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop=1.5)

    def test_rejects_rates_summing_past_one(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop=0.6, corrupt=0.6)

    def test_rejects_negative_delay_bound(self):
        with pytest.raises(SimulationError):
            FaultPlan(max_delay_ticks=-1)
