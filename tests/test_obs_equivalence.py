"""The observability determinism contract.

Instrumentation must be *free*: an observed run produces bit-identical
results to an unobserved one (pipeline metrics, signatures, distance
matrices).
"""

import numpy as np

from repro.core.pipeline import DetectionPipeline, PipelineConfig
from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance
from repro.obs import Observability


class TestPipelineUnchanged:
    def test_observed_run_is_bit_identical(self, small_corpus):
        check = small_corpus.payload_check()
        plain = DetectionPipeline(small_corpus.trace, check, PipelineConfig())
        obs = Observability.create(seed=0, config={"equivalence": True})
        traced = DetectionPipeline(small_corpus.trace, check, PipelineConfig(), obs=obs)
        for n_sample, seed in ((20, 0), (35, 3)):
            a = plain.run(n_sample, seed=seed)
            b = traced.run(n_sample, seed=seed)
            assert a.metrics == b.metrics
            assert [s.to_dict() for s in a.signatures] == [s.to_dict() for s in b.signatures]
        # ...and the traced run actually recorded something.
        assert [s for s in obs.tracer.closed_spans if s.name == "distance_matrix"]
        assert obs.metrics.counters["pipeline_runs"] == 2


class TestEngineUnchanged:
    def test_matrix_identical_with_observation(self, small_split):
        suspicious, __ = small_split
        packets = suspicious[:24]
        plain = DistanceEngine(PacketDistance.paper(), workers=1).matrix(packets)
        obs = Observability.create(seed=0)
        observed = DistanceEngine(PacketDistance.paper(), workers=1, obs=obs).matrix(packets)
        assert np.array_equal(plain.values, observed.values)
        chunks = [s for s in obs.tracer.closed_spans if s.name == "engine_chunk"]
        assert chunks and sum(s.attrs["pairs"] for s in chunks) == len(packets) * (
            len(packets) - 1
        ) // 2
        assert obs.metrics.counters["engine_pair_misses"] > 0

    def test_parallel_matrix_identical_with_observation(self, small_split):
        suspicious, __ = small_split
        packets = suspicious[:24]
        # 276 pairs in chunks of 64: enough full chunks for the 2-worker pool.
        plain_engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=64)
        plain = plain_engine.matrix(packets)
        obs = Observability.create(seed=0)
        engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=64, obs=obs)
        observed = engine.matrix(packets)
        assert plain_engine.stats.workers_used == engine.stats.workers_used == 2
        assert np.array_equal(plain.values, observed.values)
        assert len([s for s in obs.tracer.closed_spans if s.name == "engine_chunk"]) == 5
