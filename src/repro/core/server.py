"""The signature-generation server (paper Fig 3a, Sections IV-A..IV-E).

Pipeline: ingest collected traffic -> payload check separates suspicious
from normal -> sample M suspicious packets -> pairwise HTTP packet
distances -> group-average hierarchical clustering -> conjunction
signatures from the dendrogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any, Callable, Iterable

from repro.clustering.dendrogram import Dendrogram
from repro.clustering.linkage import Linkage, agglomerate
from repro.dataset.split import sample_packets
from repro.dataset.trace import Trace
from repro.distance.engine import DEFAULT_CHUNK_PAIRS, DistanceEngine
from repro.distance.matrix import CondensedMatrix
from repro.distance.packet import PacketDistance
from repro.errors import ReproError, SignatureError
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability
from repro.reliability.quarantine import Quarantine
from repro.reliability.retry import RetryPolicy
from repro.reliability.workerfaults import WorkerFaultPlan
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.generator import GeneratorConfig, SignatureGenerator
from repro.signatures.store import SignatureStore


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Server tuning.

    :param linkage: clustering criterion (paper: group average).
    :param generator: signature-generation policy.
    :param workers: process count for the pairwise distance build
        (``0``, the default, = one per usable CPU; ``1`` = in-process
        serial; results are bit-identical for every setting).
    """

    linkage: Linkage = Linkage.GROUP_AVERAGE
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 0


@dataclass(slots=True)
class GenerationResult:
    """Everything one generation run produced (for inspection and tests)."""

    sample: list[HttpPacket]
    matrix: CondensedMatrix
    dendrogram: Dendrogram
    signatures: list[ConjunctionSignature]


class SignatureServer:
    """The collection/clustering/generation server.

    :param payload_check: ground-truth labeler (the server knows the
        capture device's identifiers — Section IV-A's "payload check").
    :param distance: the packet metric (defaults to the paper's d_pkt).
    :param config: clustering/generation policy.
    :param obs: optional observability bundle; the server then emits one
        span per generation stage (sample, distance_matrix, linkage, cut,
        signature_gen) plus ingest counters and a quarantine-depth gauge.
        Outputs are bit-identical with or without it.
    :param fault_plan: optional seeded chunk-fault injector for the
        distance engine (worker crash / hang / poison); the engine
        recovers from every injected fault, and the matrix stays
        bit-identical to the fault-free run.
    :param retry: chunk re-dispatch policy used with ``fault_plan``.
    :param chunk_pairs: pairs per distance-engine chunk.
    """

    def __init__(
        self,
        payload_check: PayloadCheck,
        distance: PacketDistance | None = None,
        config: ServerConfig | None = None,
        quarantine_capacity: int = 256,
        obs: Observability | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        retry: RetryPolicy | None = None,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> None:
        self.payload_check = payload_check
        self.distance = distance or PacketDistance.paper()
        self.config = config or ServerConfig()
        self.obs = obs or NULL_OBS
        self.engine = DistanceEngine(
            self.distance,
            workers=self.config.workers,
            chunk_pairs=chunk_pairs,
            obs=self.obs,
            fault_plan=fault_plan,
            retry=retry,
        )
        self.generator = SignatureGenerator(self.config.generator)
        self.quarantine = Quarantine(capacity=quarantine_capacity)
        self._suspicious: list[HttpPacket] = []
        self._normal: list[HttpPacket] = []

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, trace: Trace) -> tuple[int, int]:
        """Run the payload check over a trace, accumulating both groups.

        Packets that fail canonicalization land in :attr:`quarantine`
        instead of aborting the batch.

        :returns: ``(n_suspicious, n_normal)`` added by this call.
        """
        suspicious, normal = self.payload_check.split(trace, quarantine=self.quarantine)
        self._suspicious.extend(suspicious)
        self._normal.extend(normal)
        self.obs.advance(len(suspicious) + len(normal))
        self.obs.inc("server_ingested_suspicious", len(suspicious))
        self.obs.inc("server_ingested_normal", len(normal))
        self.obs.set_gauge("server_quarantine_depth", len(self.quarantine))
        return len(suspicious), len(normal)

    def ingest_raw(self, records: Iterable[dict[str, Any]]) -> tuple[int, int]:
        """Ingest serialized packet records as uploaded by devices.

        This is the crowd-collection entry point: each record is parsed
        with :meth:`HttpPacket.from_dict`; malformed records — truncated
        uploads, bit-flipped bytes, schema drift — are quarantined with
        counters rather than failing the whole batch.

        :returns: ``(n_suspicious, n_normal)`` added by this call.
        """
        packets: list[HttpPacket] = []
        for record in records:
            try:
                packets.append(HttpPacket.from_dict(record))
            except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
                self.quarantine.add(exc, payload=record)
        return self.ingest(Trace(packets))

    @property
    def suspicious(self) -> list[HttpPacket]:
        """Packets the payload check flagged (the clustering population)."""
        return self._suspicious

    @property
    def normal(self) -> list[HttpPacket]:
        return self._normal

    # -- generation ---------------------------------------------------------------

    def generate(
        self,
        n_sample: int,
        seed: int = 0,
        *,
        suspicious: list[HttpPacket] | None = None,
        stage: Callable[..., Any] | None = None,
    ) -> GenerationResult:
        """Sample, cluster, and generate signatures (Sections IV-D, IV-E).

        :param n_sample: M, the number of suspicious packets to cluster.
        :param seed: sampling seed.
        :param suspicious: the population to sample from (default: every
            suspicious packet ingested so far).
        :param stage: runs each stage as ``stage(name, compute, **span_attrs)``
            (default :meth:`stage`); the pipeline passes its checkpointing one.
        :raises SignatureError: when there is no suspicious traffic or
            the sample size is not positive.
        """
        population = self._suspicious if suspicious is None else suspicious
        stage = stage or self.stage
        if not population:
            raise SignatureError("no suspicious packets to cluster; call ingest() first")
        if n_sample <= 0:
            raise SignatureError(f"sample size must be positive, got {n_sample}")
        n_sample = min(n_sample, len(population))
        sample = stage(
            "sample",
            lambda: self.sample(population, n_sample, seed),
            n_sample=n_sample,
            seed=seed,
        )
        n = len(sample)
        matrix = stage(
            "distance_matrix",
            lambda: self.engine.matrix(sample),
            n_items=n,
            n_pairs=n * (n - 1) // 2,
        )
        dendrogram = stage("linkage", lambda: self.linkage(matrix), n_items=n)
        clusters = stage("cut", lambda: self.cut(dendrogram, sample), size_attr="n_clusters")
        signatures = stage(
            "signature_gen", lambda: self.signature_gen(clusters), size_attr="n_signatures"
        )
        self.obs.inc("server_generations")
        self.obs.inc("server_signatures_generated", len(signatures))
        return GenerationResult(sample, matrix, dendrogram, signatures)

    def stage(self, name: str, compute: Callable, size_attr: str | None = None, **span_attrs):
        """Run one generation stage inside its ``pipeline`` span.

        :param size_attr: span attribute set to ``len(output)`` once the
            stage has run.
        """
        with self.obs.span(name, track="pipeline", **span_attrs) as span:
            value = compute()
            if span is not None and size_attr is not None:
                span.attrs[size_attr] = len(value)
        return value

    # -- stage bodies: each advances the logical clock by the work it did ------------

    def sample(self, population: list[HttpPacket], n_sample: int, seed: int) -> list[HttpPacket]:
        sample = sample_packets(population, n_sample, seed=seed)
        self.obs.advance(len(sample))
        return sample

    def linkage(self, matrix: CondensedMatrix) -> Dendrogram:
        dendrogram = agglomerate(matrix, self.config.linkage)
        self.obs.advance(max(0, matrix.n - 1))
        return dendrogram

    def cut(self, dendrogram: Dendrogram, sample: list[HttpPacket]) -> list[list[HttpPacket]]:
        clusters = self.generator.clusters_from_dendrogram(dendrogram, sample)
        self.obs.advance(len(clusters))
        return clusters

    def signature_gen(self, clusters: list[list[HttpPacket]]) -> list[ConjunctionSignature]:
        signatures = self.generator.from_clusters(clusters)
        self.obs.advance(sum(len(cluster) for cluster in clusters))
        return signatures

    # -- publication -----------------------------------------------------------------

    def publish(self, signatures: list[ConjunctionSignature]) -> str:
        """Serialize a signature set for device-side consumption."""
        return SignatureStore.dumps(signatures)
