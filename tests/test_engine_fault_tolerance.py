"""Distance-engine dispatch under injected worker faults.

The contract: with any :class:`WorkerFaultPlan` the engine recovers — by
re-dispatching crashed/hung chunks and serially recomputing poisoned or
retry-exhausted ones — and the resulting matrix is **bit-identical** to
the fault-free run, at every rate, worker count, and chunking.
"""

import numpy as np
import pytest

from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance
from repro.obs import Observability
from repro.reliability.retry import RetryPolicy
from repro.reliability.workerfaults import WorkerFaultPlan
from tests.conftest import make_packet

# 40 packets (780 pairs) over 3 hosts and 2 cookie jars.
ITEMS = [
    make_packet(
        host=["ads.alpha.com", "track.beta.net", "cdn.gamma.org"][i % 3],
        ip=["198.51.100.7", "203.0.113.9", "192.0.2.33"][i % 3],
        target=f"/imp?sid=s{i}&udid=deadbeef{i:04d}",
        cookie=["", "uid=abc123; session=xyz"][i % 2],
    )
    for i in range(40)
]
METRIC = PacketDistance.paper()


@pytest.fixture(scope="module")
def baseline():
    return DistanceEngine(METRIC, chunk_pairs=16).matrix(ITEMS)


class TestFaultRecovery:
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.5])
    def test_recovered_matrix_bit_identical(self, baseline, rate):
        plan = WorkerFaultPlan.uniform(rate, seed=11)
        engine = DistanceEngine(METRIC, chunk_pairs=16, fault_plan=plan)
        built = engine.matrix(ITEMS)
        assert built.values.tobytes() == baseline.values.tobytes()
        assert engine.stats.recovered

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_across_worker_counts(self, baseline, workers):
        plan = WorkerFaultPlan.uniform(0.4, seed=23)
        engine = DistanceEngine(METRIC, chunk_pairs=16, workers=workers, fault_plan=plan)
        built = engine.matrix(ITEMS)
        assert built.values.tobytes() == baseline.values.tobytes()
        assert engine.stats.recovered

    def test_fault_accounting_deterministic_across_worker_counts(self):
        # Faults are a pure function of (seed, chunk, attempt), so the
        # recovery ledger must not depend on the pool size either.
        ledgers = []
        for workers in (1, 2):
            plan = WorkerFaultPlan.uniform(0.5, seed=7)
            engine = DistanceEngine(
                METRIC, chunk_pairs=16, workers=workers, fault_plan=plan
            )
            engine.matrix(ITEMS)
            ledgers.append(
                (
                    engine.stats.chunks_retried,
                    engine.stats.chunks_quarantined,
                    engine.stats.faults_injected,
                )
            )
        assert ledgers[0] == ledgers[1]

    def test_ledger_identical_at_default_chunking(self):
        # 210 pairs is one default-size chunk at every worker count, so
        # the chunk list, and with it the fault ledger, cannot depend on
        # the pool size.
        ledgers = []
        for workers in (1, 2, 4):
            plan = WorkerFaultPlan.uniform(0.5, seed=7)
            engine = DistanceEngine(METRIC, workers=workers, fault_plan=plan)
            built = engine.matrix(ITEMS[:21])
            assert len(built.values) == 210
            assert engine.stats.chunks == 1
            assert engine.stats.recovered
            ledgers.append(
                (
                    engine.stats.chunks_retried,
                    engine.stats.chunks_quarantined,
                    engine.stats.faults_injected,
                )
            )
        assert ledgers[0] == ledgers[1] == ledgers[2]

    def test_in_process_batch_reports_one_worker(self):
        # Regression: under a fault plan a batch below one full chunk
        # reported workers_used == 0, where the fault-free path reports 1.
        for plan in (None, WorkerFaultPlan.uniform(0.5, seed=7)):
            engine = DistanceEngine(METRIC, workers=2, fault_plan=plan)
            built = engine.matrix(ITEMS[:30])
            assert len(built.values) == 435
            assert engine.stats.workers_used == 1

    def test_poison_detected_and_quarantined(self, baseline):
        plan = WorkerFaultPlan(seed=3, poison=1.0)
        engine = DistanceEngine(METRIC, chunk_pairs=16, fault_plan=plan)
        built = engine.matrix(ITEMS)
        # every chunk is poisoned, every chunk must be caught and recomputed
        assert built.values.tobytes() == baseline.values.tobytes()
        assert engine.stats.chunks_quarantined == engine.stats.chunks
        assert engine.stats.recovered
        assert len(engine.quarantine) > 0

    def test_pure_crash_exhausts_retries_then_recomputes(self, baseline):
        # crash=1.0 means every dispatch attempt fails; the retry budget
        # runs dry and every chunk falls back to parent-side recompute.
        plan = WorkerFaultPlan(seed=5, crash=1.0)
        retry = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        engine = DistanceEngine(METRIC, chunk_pairs=16, fault_plan=plan, retry=retry)
        built = engine.matrix(ITEMS)
        assert built.values.tobytes() == baseline.values.tobytes()
        assert engine.stats.chunks_retried == engine.stats.chunks  # one retry each
        assert engine.stats.chunks_quarantined == engine.stats.chunks
        assert engine.stats.recovered

    def test_hang_charges_deadline_ticks(self):
        plan = WorkerFaultPlan(seed=2, hang=1.0, deadline_ticks=50)
        obs = Observability.create(seed=0)
        retry = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
        engine = DistanceEngine(
            METRIC, chunk_pairs=500, fault_plan=plan, retry=retry, obs=obs
        )
        engine.matrix(ITEMS[:20])  # 190 pairs -> 1 chunk, hangs, recomputed
        spans = obs.tracer.spans_named("engine_chunk_recompute")
        assert len(spans) == 1
        # the hung attempt costs its full deadline on the logical clock
        assert spans[0].start_tick >= 50

    def test_stats_surface_in_to_dict(self):
        plan = WorkerFaultPlan.uniform(0.5, seed=7)
        engine = DistanceEngine(METRIC, chunk_pairs=16, fault_plan=plan)
        engine.matrix(ITEMS)
        snapshot = engine.stats.to_dict()
        for key in ("chunks_retried", "chunks_quarantined", "faults_injected", "recovered"):
            assert key in snapshot
        assert snapshot["recovered"] is True

    def test_obs_counters_and_retry_spans(self):
        plan = WorkerFaultPlan(seed=5, crash=1.0)
        retry = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        obs = Observability.create(seed=0)
        engine = DistanceEngine(
            METRIC, chunk_pairs=16, fault_plan=plan, retry=retry, obs=obs
        )
        engine.matrix(ITEMS)
        assert obs.counter("engine_faults_injected") == engine.stats.faults_injected
        assert obs.counter("engine_chunks_retried") == engine.stats.chunks_retried
        assert obs.counter("engine_chunks_quarantined") == engine.stats.chunks_quarantined
        retry_spans = obs.tracer.spans_named("engine_chunk_retry")
        assert len(retry_spans) == engine.stats.chunks_retried
        assert all(span.attrs["reason"] == "crash" for span in retry_spans)

    def test_no_fault_plan_means_no_supervision_overhead(self, baseline):
        engine = DistanceEngine(METRIC, chunk_pairs=16)
        built = engine.matrix(ITEMS)
        assert engine.quarantine is None
        assert engine.stats.faults_injected == 0
        assert engine.stats.recovered  # vacuously true on the clean path
        assert np.array_equal(built.values, baseline.values)

    def test_packet_metric_under_faults(self, small_corpus):
        # Real corpus packets through the faulted dispatcher.
        from repro.dataset.split import sample_packets
        from repro.distance.packet import PacketDistance

        check = small_corpus.payload_check()
        suspicious, _ = check.split(small_corpus.trace)
        sample = sample_packets(suspicious, 24, seed=1)
        clean = DistanceEngine(PacketDistance.paper(), chunk_pairs=32).matrix(sample)
        plan = WorkerFaultPlan.uniform(0.5, seed=13)
        engine = DistanceEngine(
            PacketDistance.paper(), chunk_pairs=32, fault_plan=plan
        )
        built = engine.matrix(sample)
        assert built.values.tobytes() == clean.values.tobytes()
        assert engine.stats.recovered
