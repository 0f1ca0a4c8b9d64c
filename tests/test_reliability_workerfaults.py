"""Seeded chunk-level worker fault injection (crash / hang / poison)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.reliability.workerfaults import ChunkFaultKind, WorkerFaultPlan


class TestWorkerFaultPlan:
    def test_outcome_is_pure_function_of_chunk_and_attempt(self):
        plan = WorkerFaultPlan(seed=3, crash=0.2, hang=0.2, poison=0.2)
        first = [plan.outcome(chunk, attempt) for chunk in range(20) for attempt in range(3)]
        again = [plan.outcome(chunk, attempt) for chunk in range(20) for attempt in range(3)]
        assert first == again

    def test_same_seed_same_plan(self):
        a = WorkerFaultPlan(seed=9, crash=0.3, hang=0.1, poison=0.1)
        b = WorkerFaultPlan(seed=9, crash=0.3, hang=0.1, poison=0.1)
        assert [a.outcome(c, 0) for c in range(50)] == [b.outcome(c, 0) for c in range(50)]

    def test_different_attempts_draw_independently(self):
        # A chunk that faults on attempt 0 need not fault on attempt 1 —
        # that independence is what makes retry effective.
        plan = WorkerFaultPlan(seed=1, crash=0.5)
        outcomes = {plan.outcome(chunk, attempt) for chunk in range(30) for attempt in range(4)}
        assert ChunkFaultKind.NONE in outcomes
        assert ChunkFaultKind.CRASH in outcomes

    def test_zero_rates_never_fault(self):
        plan = WorkerFaultPlan(seed=5)
        assert all(
            plan.outcome(chunk, attempt) is ChunkFaultKind.NONE
            for chunk in range(40)
            for attempt in range(3)
        )

    def test_rates_roughly_respected(self):
        plan = WorkerFaultPlan(seed=2, crash=0.5)
        n = 400
        crashes = sum(plan.outcome(chunk, 0) is ChunkFaultKind.CRASH for chunk in range(n))
        assert 0.35 * n <= crashes <= 0.65 * n

    def test_uniform_mixes_all_kinds(self):
        plan = WorkerFaultPlan.uniform(0.9, seed=4)
        kinds = {plan.outcome(chunk, 0) for chunk in range(200)}
        assert {ChunkFaultKind.CRASH, ChunkFaultKind.HANG, ChunkFaultKind.POISON} <= kinds
        assert sum(plan.rates.values()) == pytest.approx(0.9)

    def test_corrupt_changes_values_but_stays_finite(self):
        plan = WorkerFaultPlan(seed=6, poison=1.0)
        values = np.linspace(0.0, 1.0, 32)
        mangled = plan.corrupt(values, chunk_index=0, attempt=0)
        assert mangled.shape == values.shape
        assert not np.array_equal(mangled, values)
        assert np.isfinite(mangled).all()
        # deterministic corruption: same (chunk, attempt) -> same bytes
        again = plan.corrupt(np.linspace(0.0, 1.0, 32), chunk_index=0, attempt=0)
        assert np.array_equal(mangled, again)

    def test_record_counts_by_kind(self):
        plan = WorkerFaultPlan(seed=0, crash=0.1)
        plan.record(ChunkFaultKind.CRASH)
        plan.record(ChunkFaultKind.CRASH)
        plan.record(ChunkFaultKind.POISON)
        plan.record(ChunkFaultKind.NONE)
        assert plan.counts[ChunkFaultKind.CRASH] == 2
        assert plan.counts[ChunkFaultKind.POISON] == 1
        assert plan.counts[ChunkFaultKind.NONE] == 1

    def test_rejects_bad_rates(self):
        with pytest.raises(SimulationError):
            WorkerFaultPlan(crash=-0.1)
        with pytest.raises(SimulationError):
            WorkerFaultPlan(crash=0.6, hang=0.6)
        with pytest.raises(SimulationError):
            WorkerFaultPlan(poison=1.5)
        with pytest.raises(SimulationError):
            WorkerFaultPlan(deadline_ticks=0)
