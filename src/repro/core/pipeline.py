"""End-to-end pipeline wiring for experiments, examples and supervised runs.

:class:`DetectionPipeline` bundles the whole Fig 3 loop — ingest a corpus
trace, generate signatures from an N-packet sample, screen the entire
dataset — and returns the paper's metrics.  The Fig 4 bench, the ablation
benches, the examples and the chaos sweeps all drive this one class.

Given a :class:`~repro.supervision.checkpoint.CheckpointStore`, a run
journals each of the seven :data:`PIPELINE_STAGES`; a run killed between
stages resumes by running again, and its outputs are bit-identical to an
uninterrupted run and to a run without a store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.clustering.linkage import Linkage
from repro.core.server import ServerConfig, SignatureServer
from repro.dataset.trace import Trace
from repro.distance.engine import DEFAULT_CHUNK_PAIRS
from repro.distance.matrix import CondensedMatrix
from repro.distance.packet import PacketDistance
from repro.errors import SignatureError, SupervisionError
from repro.eval.metrics import DetectionMetrics, compute_metrics
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability
from repro.reliability.retry import RetryPolicy
from repro.reliability.workerfaults import WorkerFaultPlan
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.generator import GeneratorConfig
from repro.signatures.matcher import SignatureMatcher
from repro.supervision.checkpoint import CheckpointStore, checkpoint_key
from repro.supervision.crash import CrashPlan, InjectedCrash

#: Stage order; with a checkpoint store, each entry is one checkpoint boundary.
PIPELINE_STAGES = (
    "collect",
    "payload_check",
    "sample",
    "distance_matrix",
    "linkage",
    "cut",
    "signature_gen",
)


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Pipeline policy: distance + clustering + generation knobs.

    :param workers: process count for the distance-matrix build (``0``,
        the default, = one per usable CPU; ``1`` = serial); output is
        bit-identical either way.
    """

    distance: PacketDistance = field(default_factory=PacketDistance.paper)
    linkage: Linkage = Linkage.GROUP_AVERAGE
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 0


def config_fingerprint(config: PipelineConfig, n_sample: int) -> dict:
    """A stable, JSON-ready identity of one run's policy.

    Built from semantic fields only — object reprs that embed memory
    addresses would break cross-process resume, and ``workers`` is
    excluded because worker count never changes outputs (the engine's
    bit-identity contract).
    """
    distance: PacketDistance = config.distance
    return {
        "distance": {
            "destination_weight": distance.destination_weight,
            "content_weight": distance.content_weight,
            "compressor": distance.content.calculator.compressor.name,
            "registry": distance.registry is not None,
        },
        "linkage": config.linkage.name,
        "generator": repr(config.generator),
        "n_sample": n_sample,
    }


def _input_digest(trace: Trace, payload_check: PayloadCheck) -> str:
    """SHA-256 over every packet and the labeler's identifier spellings.

    Part of every checkpoint key, so runs over different corpora or
    devices never replay each other's stages from one shared store.
    """
    digest = hashlib.sha256()
    for packet in trace:
        digest.update(json.dumps(packet.to_dict(), sort_keys=True, default=str).encode("utf-8"))
    digest.update(json.dumps(payload_check.spellings()).encode("utf-8"))
    return digest.hexdigest()


@dataclass(slots=True)
class PipelineResult:
    """One full run: signatures, metrics, the sample's distance matrix,
    and which stages were computed or replayed from the checkpoint store."""

    n_sample: int
    signatures: list[ConjunctionSignature]
    metrics: DetectionMetrics
    matrix: CondensedMatrix
    stages_executed: list[str]
    stages_replayed: list[str]


class DetectionPipeline:
    """Runs the complete experiment of Section V on one corpus.

    :param trace: the full captured dataset.
    :param payload_check: ground-truth labeler for the capture device.
    :param config: policy knobs (defaults reproduce the paper).
    :param obs: optional observability bundle.  When given, each
        :meth:`run` emits a ``pipeline_run`` root with one child span per
        executed stage plus ``eval``; without a store, the constructor's
        ingest emits ``collect`` and ``payload_check`` under
        ``pipeline_ingest``.  The :class:`PipelineResult` is bit-identical
        with or without it.
    :param store: optional checkpoint store.  With one, ingest moves from
        the constructor into each run as its first two stages, and every
        stage output is journaled; journaled stages replay (no span,
        ``pipeline_stage_replayed`` counted) instead of recomputing.
    :param crash_plan: seeded between-stage crash injector; needs a store.
    :param fault_plan: optional chunk-fault injector for the distance engine.
    :param retry: chunk re-dispatch policy when ``fault_plan`` is set.
    :param chunk_pairs: pairs per distance-engine chunk.
    :raises SupervisionError: for a ``crash_plan`` without a ``store``.
    """

    def __init__(
        self,
        trace: Trace,
        payload_check: PayloadCheck,
        config: PipelineConfig | None = None,
        obs: Observability | None = None,
        *,
        store: CheckpointStore | None = None,
        crash_plan: CrashPlan | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        retry: RetryPolicy | None = None,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> None:
        if crash_plan is not None and store is None:
            raise SupervisionError("a crash plan needs a checkpoint store to resume from")
        self.trace = trace
        self.payload_check = payload_check
        self.config = config or PipelineConfig()
        self.obs = obs or NULL_OBS
        self.store = store
        self.crash_plan = crash_plan
        self.server = SignatureServer(
            payload_check,
            distance=self.config.distance,
            config=ServerConfig(
                linkage=self.config.linkage,
                generator=self.config.generator,
                workers=self.config.workers,
            ),
            obs=self.obs,
            fault_plan=fault_plan,
            retry=retry,
            chunk_pairs=chunk_pairs,
        )
        if store is not None:
            self._inputs = _input_digest(trace, payload_check)
            return
        with self.obs.span("pipeline_ingest", track="pipeline"):
            with self.obs.span("collect", track="pipeline", n_packets=len(trace)):
                self.obs.advance(len(trace))
            with self.obs.span("payload_check", track="pipeline") as check_span:
                counts = self.server.ingest(trace)
                if check_span is not None:
                    check_span.attrs["n_suspicious"], check_span.attrs["n_normal"] = counts

    @property
    def n_suspicious(self) -> int:
        """Suspicious packets ingested by the constructor (none with a store)."""
        return len(self.server.suspicious)

    @property
    def n_normal(self) -> int:
        return len(self.server.normal)

    def run(self, n_sample: int, seed: int = 0) -> PipelineResult:
        """Generate from an ``n_sample`` and evaluate on the full dataset.

        :raises InjectedCrash: when ``crash_plan`` kills the run between
            stages; running again resumes from the store.
        """
        if n_sample <= 0:
            raise SignatureError(f"sample size must be positive, got {n_sample}")
        executed: list[str] = []
        replayed: list[str] = []

        def stage(name, compute, **span_attrs):
            key = None
            if self.store is not None:
                config = {**config_fingerprint(self.config, n_sample), "inputs": self._inputs}
                key = checkpoint_key(seed, config, name)
                cached = self.store.load(key)
                if cached is not None:
                    replayed.append(name)
                    self.obs.inc("pipeline_stage_replayed")
                    return cached
            value = self.server.stage(name, compute, **span_attrs)
            executed.append(name)
            if key is not None:
                self.store.save(key, name, value)
                self.obs.inc("pipeline_stage_executed")
                if self.crash_plan is not None and self.crash_plan.should_crash(name):
                    self.obs.inc("pipeline_injected_crashes")
                    raise InjectedCrash(name)
            return value

        with self.obs.span("pipeline_run", track="pipeline", n_sample=n_sample, seed=seed):
            if self.store is None:
                suspicious, normal = self.server.suspicious, self.server.normal
            else:
                packets = stage("collect", self._collect)
                suspicious, normal = stage("payload_check", lambda: self._split(packets))
            generation = self.server.generate(n_sample, seed, suspicious=suspicious, stage=stage)
            with self.obs.span("eval", track="pipeline") as eval_span:
                matcher = SignatureMatcher(generation.signatures)
                metrics = compute_metrics(
                    matcher=matcher,
                    suspicious=suspicious,
                    normal=normal,
                    n_sample=len(generation.sample),
                    training_sample=generation.sample,
                )
                self.obs.advance(len(suspicious) + len(normal))
                if eval_span is not None:
                    eval_span.attrs["tp_percent"] = metrics.tp_percent
                    eval_span.attrs["fp_percent"] = metrics.fp_percent
        self.obs.inc("pipeline_runs")
        return PipelineResult(
            n_sample=len(generation.sample),
            signatures=generation.signatures,
            metrics=metrics,
            matrix=generation.matrix,
            stages_executed=executed,
            stages_replayed=replayed,
        )

    def sweep(self, sample_sizes: list[int], seed: int = 0) -> list[PipelineResult]:
        """The Fig 4 sweep: one run per N, same corpus, fresh samples."""
        return [self.run(n, seed=seed + i) for i, n in enumerate(sample_sizes)]

    # -- ingest stages, run by each call only with a store --------------------------

    def _collect(self) -> list[HttpPacket]:
        packets = list(self.trace)
        self.obs.advance(len(packets))
        return packets

    def _split(self, packets: list[HttpPacket]) -> tuple[list[HttpPacket], list[HttpPacket]]:
        suspicious, normal = self.payload_check.split(packets)
        self.obs.advance(len(suspicious) + len(normal))
        return suspicious, normal
