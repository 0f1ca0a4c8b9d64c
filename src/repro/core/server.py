"""The signature-generation server (paper Fig 3a, Sections IV-A..IV-E).

Pipeline: ingest collected traffic -> payload check separates suspicious
from normal -> sample M suspicious packets -> pairwise HTTP packet
distances -> group-average hierarchical clustering -> conjunction
signatures from the dendrogram.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from typing import Any, Iterable

from repro.clustering.dendrogram import Dendrogram
from repro.clustering.linkage import Linkage, agglomerate
from repro.dataset.split import sample_packets
from repro.dataset.trace import Trace
from repro.distance.blocking import BlockingConfig
from repro.distance.engine import DistanceEngine
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
    :param blocking: optional candidate-pair prefilter.  When set, the
        distance matrix is built blocked (NCD only inside candidate
        blocks) and the dendrogram cut uses the blocking threshold as an
        absolute height — in ``BlockingMode.EXACT`` the resulting flat
        clusters are provably identical to the unblocked pipeline's.
    """

    linkage: Linkage = Linkage.GROUP_AVERAGE
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 0
    blocking: BlockingConfig | None = None


@dataclass(slots=True)
class GenerationResult:
    """Everything one generation run produced (for inspection and tests)."""

    sample: list[HttpPacket]
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
        distance engine (worker crash / hang / poison); the engine then
        runs its supervised dispatch loop, and the matrix stays
        bit-identical to the fault-free run.
    :param retry: chunk re-dispatch policy used with ``fault_plan``.
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
    ) -> None:
        self.payload_check = payload_check
        self.distance = distance or PacketDistance.paper()
        self.config = config or ServerConfig()
        if (
            self.config.blocking is not None
            and self.config.generator.cut_height is None
        ):
            # Blocked matrices key on the absolute threshold; align the
            # cut so generation agrees with the blocking guarantee.
            self.config = dataclasses.replace(
                self.config,
                generator=dataclasses.replace(
                    self.config.generator,
                    cut_height=self.config.blocking.threshold,
                ),
            )
        self.obs = obs or NULL_OBS
        self.engine = DistanceEngine(
            self.distance,
            workers=self.config.workers,
            obs=self.obs,
            fault_plan=fault_plan,
            retry=retry,
        )
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

    def generate(self, n_sample: int, seed: int = 0) -> GenerationResult:
        """Sample, cluster, and generate signatures (Sections IV-D, IV-E).

        :param n_sample: M, the number of suspicious packets to cluster.
        :param seed: sampling seed.
        :raises SignatureError: when no suspicious traffic was ingested or
            the sample size is not positive.
        """
        if not self._suspicious:
            raise SignatureError("no suspicious packets ingested; call ingest() first")
        if n_sample <= 0:
            raise SignatureError(f"sample size must be positive, got {n_sample}")
        n_sample = min(n_sample, len(self._suspicious))
        with self.obs.span("sample", track="pipeline", n_sample=n_sample, seed=seed):
            sample = sample_packets(self._suspicious, n_sample, seed=seed)
            self.obs.advance(len(sample))
        dendrogram = self.cluster(sample)
        generator = SignatureGenerator(self.config.generator)
        with self.obs.span("cut", track="pipeline") as cut_span:
            clusters = generator.clusters_from_dendrogram(dendrogram, sample)
            self.obs.advance(len(clusters))
            if cut_span is not None:
                cut_span.attrs["n_clusters"] = len(clusters)
        with self.obs.span("signature_gen", track="pipeline") as gen_span:
            signatures = generator.from_clusters(clusters)
            self.obs.advance(sum(len(cluster) for cluster in clusters))
            if gen_span is not None:
                gen_span.attrs["n_signatures"] = len(signatures)
        self.obs.inc("server_generations")
        self.obs.inc("server_signatures_generated", len(signatures))
        return GenerationResult(sample=sample, dendrogram=dendrogram, signatures=signatures)

    def cluster(self, packets: list[HttpPacket]) -> Dendrogram:
        """Group-average hierarchical clustering over ``packets``.

        The pairwise matrix is built by the distance engine — cached and,
        when ``config.workers`` allows, computed across a process pool.
        """
        n = len(packets)
        with self.obs.span(
            "distance_matrix", track="pipeline", n_items=n, n_pairs=n * (n - 1) // 2
        ):
            if self.config.blocking is not None:
                matrix, __ = self.engine.blocked_matrix(
                    packets, blocking=self.config.blocking
                )
            else:
                matrix = self.engine.matrix(packets)
        with self.obs.span("linkage", track="pipeline", n_items=n):
            dendrogram = agglomerate(matrix, self.config.linkage)
            self.obs.advance(max(0, n - 1))
        return dendrogram

    # -- publication -----------------------------------------------------------------

    def publish(self, signatures: list[ConjunctionSignature]) -> str:
        """Serialize a signature set for device-side consumption."""
        return SignatureStore.dumps(signatures)
