"""End-to-end pipeline wiring for experiments and examples.

:class:`DetectionPipeline` bundles the whole Fig 3 loop — ingest a corpus
trace, generate signatures from an N-packet sample, screen the entire
dataset — and returns the paper's metrics.  The Fig 4 bench, the ablation
benches, and the examples all drive this one class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clustering.linkage import Linkage
from repro.core.server import ServerConfig, SignatureServer
from repro.dataset.trace import Trace
from repro.distance.blocking import BlockingConfig
from repro.distance.packet import PacketDistance
from repro.eval.metrics import DetectionMetrics, compute_metrics
from repro.obs import NULL_OBS, Observability
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.generator import GeneratorConfig
from repro.signatures.matcher import SignatureMatcher


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Pipeline policy: distance + clustering + generation knobs.

    :param workers: process count for the distance-matrix build (``0``,
        the default, = one per usable CPU; ``1`` = serial); output is
        bit-identical either way.
    :param blocking: optional candidate-pair prefilter for the matrix
        build (see :class:`~repro.core.server.ServerConfig`).
    """

    distance: PacketDistance = field(default_factory=PacketDistance.paper)
    linkage: Linkage = Linkage.GROUP_AVERAGE
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 0
    blocking: BlockingConfig | None = None


@dataclass(slots=True)
class PipelineResult:
    """One full run: the generated signatures and the detection metrics."""

    n_sample: int
    signatures: list[ConjunctionSignature]
    metrics: DetectionMetrics


class DetectionPipeline:
    """Runs the complete experiment of Section V on one corpus.

    :param trace: the full captured dataset.
    :param payload_check: ground-truth labeler for the capture device.
    :param config: policy knobs (defaults reproduce the paper).
    :param obs: optional observability bundle.  When given, ingest emits
        ``collect`` and ``payload_check`` spans and each :meth:`run` emits
        a ``pipeline_run`` root with one child span per stage
        (sample/distance_matrix/linkage/cut/signature_gen/eval).  The
        :class:`PipelineResult` is bit-identical with or without it.
    """

    def __init__(
        self,
        trace: Trace,
        payload_check: PayloadCheck,
        config: PipelineConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.trace = trace
        self.payload_check = payload_check
        self.config = config or PipelineConfig()
        self.obs = obs or NULL_OBS
        self.server = SignatureServer(
            payload_check,
            distance=self.config.distance,
            config=ServerConfig(
                linkage=self.config.linkage,
                generator=self.config.generator,
                workers=self.config.workers,
                blocking=self.config.blocking,
            ),
            obs=self.obs,
        )
        with self.obs.span("pipeline_ingest", track="pipeline"):
            with self.obs.span("collect", track="pipeline", n_packets=len(trace)):
                self.obs.advance(len(trace))
            with self.obs.span("payload_check", track="pipeline") as check_span:
                counts = self.server.ingest(trace)
                if check_span is not None:
                    check_span.attrs["n_suspicious"], check_span.attrs["n_normal"] = counts

    @property
    def n_suspicious(self) -> int:
        return len(self.server.suspicious)

    @property
    def n_normal(self) -> int:
        return len(self.server.normal)

    def run(self, n_sample: int, seed: int = 0) -> PipelineResult:
        """Generate from an ``n_sample`` and evaluate on the full dataset."""
        with self.obs.span("pipeline_run", track="pipeline", n_sample=n_sample, seed=seed):
            generation = self.server.generate(n_sample, seed=seed)
            with self.obs.span("eval", track="pipeline") as eval_span:
                matcher = SignatureMatcher(generation.signatures)
                metrics = compute_metrics(
                    matcher=matcher,
                    suspicious=self.server.suspicious,
                    normal=self.server.normal,
                    n_sample=len(generation.sample),
                    training_sample=generation.sample,
                )
                self.obs.advance(len(self.server.suspicious) + len(self.server.normal))
                if eval_span is not None:
                    eval_span.attrs["tp_percent"] = metrics.tp_percent
                    eval_span.attrs["fp_percent"] = metrics.fp_percent
        self.obs.inc("pipeline_runs")
        return PipelineResult(
            n_sample=len(generation.sample),
            signatures=generation.signatures,
            metrics=metrics,
        )

    def sweep(self, sample_sizes: list[int], seed: int = 0) -> list[PipelineResult]:
        """The Fig 4 sweep: one run per N, same corpus, fresh samples."""
        return [self.run(n, seed=seed + i) for i, n in enumerate(sample_sizes)]

    def supervised(self, **kwargs):
        """A checkpointed :class:`~repro.supervision.runner.StagedPipeline`
        over the same trace, labeler, and configuration.

        Keyword arguments (``store``, ``crash_plan``, ``fault_plan``,
        ``retry``, ``obs``) pass through to the staged runner; ``obs``
        defaults to this pipeline's bundle.  Imported lazily so the plain
        pipeline never pays for the supervision layer.
        """
        from repro.supervision.runner import StagedPipeline

        kwargs.setdefault("obs", self.obs)
        return StagedPipeline(self.trace, self.payload_check, self.config, **kwargs)
