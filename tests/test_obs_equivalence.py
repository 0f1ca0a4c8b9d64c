"""The observability determinism contract.

Instrumentation must be *free*: an observed run produces bit-identical
results to an unobserved one (pipeline metrics, signatures, distance
matrices, screening decisions), and the migrated ``ServingTelemetry``
shim must export byte-for-byte what the pre-``repro.obs`` implementation
did.  The legacy implementation is embedded below as the frozen
reference oracle.
"""

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.pipeline import DetectionPipeline, PipelineConfig
from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance
from repro.obs import Observability
from repro.service.repository import InMemorySignatureRepository
from repro.serving.gateway import GatewayConfig, ReloadEvent, ScreeningGateway
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile
from repro.serving.telemetry import DEPTH_BOUNDS, LATENCY_BOUNDS, Histogram, ServingTelemetry
from tests.test_serving_shards import corpus_signatures


class LegacyServingTelemetry:
    """The pre-``repro.obs`` implementation, frozen as a regression oracle.

    Byte-for-byte equivalent output from the shim proves the migration
    changed the plumbing, not the format.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.histograms: dict[str, Histogram] = {
            "latency_ticks": Histogram(LATENCY_BOUNDS),
            "shed_latency_ticks": Histogram(LATENCY_BOUNDS),
            "queue_depth": Histogram(DEPTH_BOUNDS),
            "batch_size": Histogram(DEPTH_BOUNDS),
        }
        self.spans: list[dict[str, Any]] = []

    def increment(self, name: str, by: int = 1) -> None:
        if by < 0:
            raise ValueError(f"counters are monotonic; cannot add {by}")
        self.counters[name] += by

    def observe(self, name: str, value: float) -> None:
        self.histograms[name].observe(value)

    def span(self, kind: str, **fields: Any) -> None:
        self.spans.append({"kind": kind, **fields})

    def spans_of(self, kind: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["kind"] == kind]

    def snapshot(self) -> dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: h.to_dict() for name, h in sorted(self.histograms.items())},
            "spans": len(self.spans),
        }

    def export_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        lines = [json.dumps(span, sort_keys=True) for span in self.spans]
        lines.append(json.dumps({"kind": "summary", **self.snapshot()}, sort_keys=True))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


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
        assert obs.tracer.spans_named("distance_matrix")
        assert obs.metrics.counters["pipeline_runs"] == 2


class TestEngineUnchanged:
    def test_matrix_identical_with_observation(self, small_split):
        suspicious, __ = small_split
        packets = suspicious[:24]
        plain = DistanceEngine(PacketDistance.paper(), workers=1).matrix(packets)
        obs = Observability.create(seed=0)
        observed = DistanceEngine(PacketDistance.paper(), workers=1, obs=obs).matrix(packets)
        assert np.array_equal(plain.values, observed.values)
        chunks = obs.tracer.spans_named("engine_chunk")
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
        assert len(obs.tracer.spans_named("engine_chunk")) == 5


class TestServingTelemetryShim:
    def _run_gateway(self, corpus, telemetry):
        repository = InMemorySignatureRepository()
        boot = repository.publish(corpus_signatures(corpus))
        reload = repository.publish(list(reversed(corpus_signatures(corpus, limit=18))))
        stream = FleetLoadGenerator(
            corpus, LoadProfile(mean_interarrival_ticks=0.5), seed=3
        ).events(250)
        gateway = ScreeningGateway(
            list(boot.signatures),
            config=GatewayConfig(batch_size=4, n_shards=2),
            telemetry=telemetry,
            set_version=boot.set_version,
        )
        gateway.run(
            stream,
            reloads=[ReloadEvent(tick=stream[125].tick, envelope=reload)],
        )
        return telemetry

    def test_shim_export_byte_identical_to_legacy(self, small_corpus, tmp_path):
        shim = self._run_gateway(small_corpus, ServingTelemetry())
        legacy = self._run_gateway(small_corpus, LegacyServingTelemetry())
        assert shim.snapshot() == legacy.snapshot()
        shim_path = shim.export_jsonl(tmp_path / "shim.jsonl")
        legacy_path = legacy.export_jsonl(tmp_path / "legacy.jsonl")
        assert shim_path.read_bytes() == legacy_path.read_bytes()
