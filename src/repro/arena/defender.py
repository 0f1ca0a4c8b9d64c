"""The defender: misses stream into clustering, signatures republish.

One :class:`DefenderLoop` owns the regeneration side of the arena:

1. screening misses (flagged ``False`` by the gateway but sensitive per
   payload-check ground truth) are ingested into a
   :class:`~repro.core.streaming.StreamingClusterer` with ``compact_every=1``
   — every round ends with an exactly-compacted partition over *all*
   misses seen so far, served by the bounded LRU pair cache;
2. clusters with enough mass regenerate candidate signatures at the same
   absolute cut height the clusterer blocks at (mirroring
   :class:`~repro.core.incremental.IncrementalSignatureSet`'s
   residue-then-merge policy);
3. candidates union-merge with the base set under subsumption dedup —
   the base set guarantees pre-attack coverage never regresses — and the
   merged set republishes through a
   :class:`~repro.service.repository.SignatureRepository` **only when
   it actually changed**, so ``set_version`` advances monotonically and
   the gateway's never-regress reload contract holds for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.streaming import StreamingClusterer, StreamingConfig
from repro.distance.blocking import BlockingConfig
from repro.distance.engine import DistanceEngine
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability
from repro.service.repository import InMemorySignatureRepository, SignatureRepository
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.generator import GeneratorConfig, SignatureGenerator, deduplicate
from repro.signatures.store import SignatureEnvelope, SignatureStore


@dataclass(frozen=True, slots=True)
class DefenderConfig:
    """Policy for one defender loop.

    :param threshold: absolute linkage height for both blocking and the
        generation cut (they must agree — see ``GeneratorConfig.cut_height``).
    :param min_cluster_size: miss clusters below this yield no signature.
    :param attach_exemplars: attach probe cap per candidate cluster.
    :param max_cached_pairs: LRU bound on the clusterer's pair cache so
        defender memory stays flat over unbounded arena rounds.
    :param workers: distance engine worker count (default 1 = serial:
        under a pool the engine's cache counters depend on which worker
        took which chunk, and arena reports must replay byte for byte).
    """

    threshold: float = 1.2
    min_cluster_size: int = 2
    attach_exemplars: int = 8
    max_cached_pairs: int | None = 50_000
    workers: int = 1


@dataclass(frozen=True, slots=True)
class DefenderRound:
    """What one :meth:`DefenderLoop.observe_misses` call did.

    :param published_version: the freshly published ``set_version``, or
        ``None`` when the merged set was unchanged (nothing republished).
    """

    round_no: int
    misses_ingested: int
    miss_clusters: int
    regenerated: int
    set_size: int
    published_version: int | None
    pair_cache_size: int
    pair_cache_evictions: int


class DefenderLoop:
    """Self-healing signature maintenance fed by screening misses.

    :param base_signatures: the pre-attack set; published as version 1 on
        construction so the serving side can boot from the repository.
    :param config: defender policy.
    :param metric: pair metric for miss clustering (defaults to the
        paper's packet distance).
    :param repository: where each changed set is published; a fresh
        in-memory repository by default.
    :param obs: observability bundle (``arena_defend`` spans,
        ``arena_*`` counters).
    """

    def __init__(
        self,
        base_signatures: Sequence[ConjunctionSignature],
        config: DefenderConfig | None = None,
        *,
        metric=None,
        repository: SignatureRepository | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or DefenderConfig()
        self.repository = repository or InMemorySignatureRepository()
        self.obs = obs or NULL_OBS
        self.base = list(base_signatures)
        engine = DistanceEngine(metric, workers=self.config.workers)
        self.clusterer = StreamingClusterer(
            config=StreamingConfig(
                blocking=BlockingConfig(threshold=self.config.threshold),
                attach_exemplars=self.config.attach_exemplars,
                compact_every=1,
                max_cached_pairs=self.config.max_cached_pairs,
            ),
            engine=engine,
            obs=self.obs,
        )
        self.generator = SignatureGenerator(
            GeneratorConfig(
                cut_height=self.config.threshold,
                min_cluster_size=self.config.min_cluster_size,
            )
        )
        self.signatures: list[ConjunctionSignature] = list(self.base)
        self._published_doc = SignatureStore.dumps(self.signatures)
        self.repository.publish(self.signatures)

    @property
    def latest_envelope(self) -> SignatureEnvelope:
        """The newest published envelope (what the gateway should load)."""
        return self.repository.latest()[1]

    def miss_clusters(self) -> list[list[HttpPacket]]:
        """Current miss clusters with enough mass to regenerate from."""
        items = self.clusterer.items
        return [
            [items[index] for index in members]
            for members in self.clusterer.partition()
            if len(members) >= self.config.min_cluster_size
        ]

    def observe_misses(
        self, misses: Sequence[HttpPacket], round_no: int = 0
    ) -> DefenderRound:
        """One healing round: ingest misses, regenerate, maybe republish.

        Regeneration always runs over the *cumulative* miss population —
        clusters grow across rounds until they carry enough invariant
        structure to anchor a signature, exactly like slow-cadence
        consolidation in the incremental maintainer.
        """
        misses = list(misses)
        with self.obs.span(
            "arena_defend", track="arena", round=round_no, misses=len(misses)
        ):
            if misses:
                self.clusterer.ingest(misses)
            clusters = self.miss_clusters()
            regenerated = self.generator.from_clusters(clusters)
            merged = deduplicate(self.base + regenerated)
            document = SignatureStore.dumps(merged)
            published_version: int | None = None
            if document != self._published_doc:
                self.signatures = merged
                self._published_doc = document
                published_version = self.repository.publish(merged).set_version
                self.obs.inc("arena_republishes")
        self.obs.inc("arena_misses_ingested", len(misses))
        self.obs.inc("arena_signatures_regenerated", len(regenerated))
        return DefenderRound(
            round_no=round_no,
            misses_ingested=len(misses),
            miss_clusters=len(clusters),
            regenerated=len(regenerated),
            set_size=len(self.signatures),
            published_version=published_version,
            pair_cache_size=self.clusterer.stream.cached_pairs,
            pair_cache_evictions=self.clusterer.stream.evictions,
        )
