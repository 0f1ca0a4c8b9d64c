"""The parallel, cached distance-matrix engine.

The engine's contract is strict: whatever the worker count, chunking, or
caching, its output must be bit-identical to the serial
:func:`repro.distance.matrix.distance_matrix` loop.
"""

import os

import numpy as np
import pytest

from repro.distance import engine as engine_module
from repro.distance.engine import (
    DEFAULT_CHUNK_PAIRS,
    DistanceEngine,
    PairStream,
    usable_cpus,
)
from repro.distance.matrix import distance_matrix
from repro.distance.ncd import NcdCalculator
from repro.distance.packet import PacketDistance
from repro.errors import DistanceError
from tests.conftest import make_packet


@pytest.fixture
def nan_destination(monkeypatch):
    """Make ``d_dst`` invalid for one host pair; forked workers inherit it."""
    real = engine_module.destination_distance

    def patched(a, b, registry=None):
        if {a.host, b.host} == {"ads.alpha.com", "cdn.gamma.org"}:
            return float("nan")
        return real(a, b, registry=registry)

    monkeypatch.setattr(engine_module, "destination_distance", patched)


@pytest.fixture(scope="module")
def packets():
    """A varied population: repeated hosts/cookies, distinct rlines."""
    out = []
    for i in range(14):
        out.append(
            make_packet(
                host=["ads.alpha.com", "track.beta.net", "cdn.gamma.org"][i % 3],
                ip=["198.51.100.7", "203.0.113.9", "192.0.2.33"][i % 3],
                port=[80, 8080][i % 2],
                target=f"/imp?sid=s{i}&udid=deadbeef{i:04d}",
                cookie=["", "uid=abc123; session=xyz"][i % 2],
                body=b"" if i % 3 else b"lat=35.6;lon=139.7;id=%d" % i,
            )
        )
    return out


@pytest.fixture(scope="module")
def reference(packets):
    return distance_matrix(packets, PacketDistance.paper())


class TestBitIdentical:
    def test_serial_engine_matches_legacy_loop(self, packets, reference):
        built = DistanceEngine(PacketDistance.paper(), workers=1).matrix(packets)
        assert np.array_equal(built.values, reference.values)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_deterministic_across_worker_counts(self, packets, reference, workers):
        engine = DistanceEngine(PacketDistance.paper(), workers=workers, chunk_pairs=8)
        built = engine.matrix(packets)
        assert np.array_equal(built.values, reference.values)

    def test_parallel_uses_multiple_workers(self, packets):
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=8)
        engine.matrix(packets)
        assert engine.stats.workers_used == 2
        assert engine.stats.chunks > 2

    def test_ablation_metrics_match(self, packets):
        for metric in (PacketDistance.destination_only(), PacketDistance.content_only()):
            reference = distance_matrix(packets, metric)
            built = DistanceEngine(metric, workers=2, chunk_pairs=16).matrix(packets)
            assert np.array_equal(built.values, reference.values)


class TestCacheAccounting:
    def test_pair_lookups_cover_all_components(self, packets):
        engine = DistanceEngine(PacketDistance.paper())
        built = engine.matrix(packets)
        n_pairs = built.values.shape[0]
        # Paper metric: one destination + three content components per pair.
        assert engine.stats.pair_lookups == 4 * n_pairs
        assert 0.0 < engine.stats.pair_hit_rate < 1.0

    def test_singles_all_precomputed(self, packets):
        engine = DistanceEngine(PacketDistance.paper())
        engine.matrix(packets)
        assert engine.stats.singles.precomputed > 0
        assert engine.stats.singles.misses == 0
        assert engine.stats.singles.hits > 0

    def test_parallel_accounting_aggregates_workers(self, packets):
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=8)
        built = engine.matrix(packets)
        assert engine.stats.pair_lookups == 4 * built.values.shape[0]


class TestErrorPaths:
    def test_worker_error_propagates_as_distance_error(self, packets, nan_destination):
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=8)
        with pytest.raises(DistanceError):
            engine.matrix(packets)

    def test_serial_error_matches(self, packets, nan_destination):
        with pytest.raises(DistanceError):
            DistanceEngine(PacketDistance.paper(), workers=1).matrix(packets)

    def test_non_packet_metric_rejected(self):
        with pytest.raises(DistanceError, match="PacketDistance"):
            DistanceEngine(lambda a, b: abs(a - b))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(DistanceError):
            DistanceEngine(workers=-1)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(DistanceError):
            DistanceEngine(chunk_pairs=0)


class TestEdges:
    def test_zero_workers_means_auto(self):
        engine = DistanceEngine(workers=0)
        assert engine.workers >= 1

    def test_empty_and_singleton(self, packets):
        engine = DistanceEngine()
        assert engine.matrix([]).n == 0
        assert engine.matrix(packets[:1]).n == 1

    def test_default_metric_is_paper(self, packets):
        built = DistanceEngine().matrix(packets[:4])
        reference = distance_matrix(packets[:4], PacketDistance.paper())
        assert np.array_equal(built.values, reference.values)

    def test_one_shot_wrapper(self, monkeypatch, packets, reference):
        # Small chunks, so the 91-pair build reaches the 2-worker pool.
        pools = []
        pool_context = engine_module._pool_context
        monkeypatch.setattr(
            engine_module, "_pool_context", lambda: pools.append(1) or pool_context()
        )
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=16)
        built = engine.matrix(packets)
        assert np.array_equal(built.values, reference.values)
        assert pools


def _no_pool():
    raise AssertionError("a process pool was created")


def _chunk_spans(obs):
    return [
        (s.attrs["chunk"], s.attrs["pairs"], s.start_tick, s.end_tick)
        for s in obs.tracer.closed_spans
        if s.name == "engine_chunk"
    ]


class TestRouting:
    """One rule picks serial or pool: at least two full chunks and two workers."""

    ITEMS = [  # 210 pairs: one default chunk
        make_packet(host=["ads.alpha.com", "cdn.gamma.org"][i % 2], target=f"/imp?sid=s{i}")
        for i in range(21)
    ]

    def test_zero_workers_follow_cpu_affinity(self, monkeypatch, packets):
        # Pinned to one CPU of a larger machine (taskset, cgroup cpuset):
        # the engine must not fork several workers onto that one CPU.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(engine_module, "_pool_context", _no_pool)
        assert usable_cpus() == 1
        engine = DistanceEngine(chunk_pairs=8)  # 91 pairs -> 12 chunks
        built = engine.matrix(packets)
        assert engine.workers == 1
        assert engine.stats.workers_used == 1
        assert engine.stats.chunks == 12
        reference = distance_matrix(packets, PacketDistance.paper())
        assert built.values.tobytes() == reference.values.tobytes()

    def test_one_chunk_batch_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_pool_context", _no_pool)
        engine = DistanceEngine(PacketDistance.paper(), workers=4)
        built = engine.matrix(self.ITEMS)
        assert len(built.values) < DEFAULT_CHUNK_PAIRS
        assert engine.stats.chunks == 1
        assert engine.stats.workers_used == 1

    def test_pool_needs_two_full_chunks(self, monkeypatch):
        # 210 pairs: two full chunks of 105 take the pool; one chunk of
        # 106 plus a remainder of 104 stays in-process.
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=105)
        engine.matrix(self.ITEMS)
        assert (engine.stats.chunks, engine.stats.workers_used) == (2, 2)
        monkeypatch.setattr(engine_module, "_pool_context", _no_pool)
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=106)
        engine.matrix(self.ITEMS)
        assert (engine.stats.chunks, engine.stats.workers_used) == (2, 1)

    def test_chunk_spans_independent_of_worker_count(self):
        from repro.obs import Observability

        span_lists = []
        for workers in (1, 2, 4):
            obs = Observability.create(seed=0)
            DistanceEngine(PacketDistance.paper(), workers=workers, obs=obs).matrix(self.ITEMS)
            span_lists.append(_chunk_spans(obs))
        assert [span[:2] for span in span_lists[0]] == [(0, 210)]
        assert span_lists[0] == span_lists[1] == span_lists[2]

    def test_pool_chunks_match_serial_chunks(self):
        from repro.obs import Observability

        span_lists = []
        for workers in (1, 2):
            obs = Observability.create(seed=0)
            engine = DistanceEngine(
                PacketDistance.paper(), workers=workers, chunk_pairs=64, obs=obs
            )
            engine.matrix(self.ITEMS)
            assert engine.stats.workers_used == workers
            span_lists.append(_chunk_spans(obs))
        assert [pairs for __, pairs, *__ in span_lists[0]] == [64, 64, 64, 18]
        assert span_lists[0] == span_lists[1]

    def test_pair_stream_pool_batch_matches_serial(self, packets):
        chunk = 16
        pairs = [(i, j) for i in range(len(packets)) for j in range(i + 1, len(packets))]
        pairs = pairs[: 2 * chunk]
        results = []
        for workers in (1, 2):
            engine = DistanceEngine(PacketDistance.paper(), workers=workers, chunk_pairs=chunk)
            stream = PairStream(engine)
            stream.extend(packets)
            results.append(stream.distances(pairs))
            assert stream.pairs_evaluated == 2 * chunk
            # The 2-worker miss batch holds two full chunks, so it took the pool.
            assert engine.stats.workers_used == workers
        assert results[0].tobytes() == results[1].tobytes()
        reference = distance_matrix(packets, PacketDistance.paper())
        expected = [reference.get(i, j) for i, j in pairs]
        assert results[0].tolist() == expected


class TestNcdPrecompute:
    def test_precompute_fills_cache_once(self):
        calc = NcdCalculator()
        new = calc.precompute([b"alpha", b"beta", b"alpha", b""])
        assert new == 2
        assert len(calc._length_cache) == 2
        assert calc.stats.precomputed == 2
        # Lazy lookups after precompute are pure hits.
        calc.distance(b"alpha", b"beta")
        assert calc.stats.misses == 0
        assert calc.stats.hits == 2

    def test_hit_rate(self):
        calc = NcdCalculator()
        calc.distance(b"xx", b"yy")  # two misses
        calc.distance(b"xx", b"yy")  # two hits
        assert (calc.stats.hits, calc.stats.misses) == (2, 2)
