"""Streaming blocked clustering — attach cheaply, compact exactly.

Full reclustering is quadratic in corpus size; this module is the
streaming half of the O(M²) escape hatch (the blocking prefilter in
:mod:`repro.distance.blocking` is the other).  Packets arrive in
batches and pass through two phases:

**Attach.**  Each new packet is assigned to a candidate block by the
incremental blocker, then probed against the existing clusters *of that
block only*: distances to at most ``attach_exemplars`` members per
cluster, scored with the linkage's own criterion (mean for group
average, min for single, max for complete).  If the best score is
within the linkage threshold the packet joins that cluster, otherwise
it starts a new one.  Per-packet cost is O(clusters-in-block × cap) —
independent of the corpus size M, which is what makes extension
sub-linear.

**Compact.**  Attachment is greedy and order-dependent, so blocks that
received new items (or were merged by a bridging packet) are marked
*dirty*.  Compaction reclusters each dirty block from scratch —
agglomerate over the block's full sub-matrix, flat cut at the absolute
threshold — and replaces that block's clusters.  The sub-matrices are
served by the :class:`~repro.distance.engine.PairStream` pair cache, so
pairs probed during attach (or by earlier compactions) are never
recomputed; only genuinely new pairs cost compression.  All dirty
blocks are served by one cache call, so their misses reach the engine
as one batch and a compaction starts the worker pool at most once.

With exact blocking and a reducible linkage, a compacted clusterer's
partition is **identical** to a full recluster of everything seen so
far: blocking is lossless at the threshold, and per-block reclustering
equals global reclustering when no merge below the threshold crosses
blocks.  ``tests/test_core_streaming.py`` asserts this, for the
partition and for the signatures generated from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.clustering.cut import cut_by_height
from repro.clustering.linkage import Linkage, agglomerate
from repro.distance.blocking import BlockingConfig, make_blocker
from repro.distance.engine import DistanceEngine, PairStream
from repro.distance.matrix import CondensedMatrix
from repro.errors import ClusteringError
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True, slots=True)
class StreamingConfig:
    """Policy for :class:`StreamingClusterer`.

    :param blocking: candidate-pair prefilter; its ``threshold`` is the
        absolute linkage height clusters are cut at.
    :param linkage: merge criterion.  Ward is rejected — its
        cluster-to-cluster distance is not bounded below by the cheapest
        cross pair, which breaks both the attach score and the exactness
        guarantee.
    :param attach_exemplars: members probed per candidate cluster during
        attach (caps per-packet cost).
    :param compact_every: ingest batches between automatic compactions;
        ``0`` leaves compaction to the caller.
    :param max_cached_pairs: optional LRU bound on the pair cache (see
        :class:`~repro.distance.engine.PairStream`): keeps memory flat
        over unbounded streams at the price of re-evaluating evicted
        pairs, without changing any distance or the partition.
    """

    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    linkage: Linkage = Linkage.GROUP_AVERAGE
    attach_exemplars: int = 8
    compact_every: int = 4
    max_cached_pairs: int | None = None

    def __post_init__(self) -> None:
        if self.linkage is Linkage.WARD:
            raise ClusteringError(
                "streaming attachment requires a reducible linkage "
                "(group average, single, or complete); Ward's criterion "
                "is not bounded by its cheapest cross pair"
            )
        if self.attach_exemplars < 1:
            raise ClusteringError(
                f"attach_exemplars must be positive, got {self.attach_exemplars}"
            )
        if self.compact_every < 0:
            raise ClusteringError(
                f"compact_every must be >= 0, got {self.compact_every}"
            )
        if self.max_cached_pairs is not None and self.max_cached_pairs < 1:
            raise ClusteringError(
                f"max_cached_pairs must be >= 1 when set, got {self.max_cached_pairs}"
            )


@dataclass(slots=True)
class StreamingStats:
    """Cumulative account of one clusterer's life (feeds the bench)."""

    items: int = 0
    batches: int = 0
    attached: int = 0
    new_clusters: int = 0
    blocks_merged: int = 0
    compactions: int = 0
    blocks_compacted: int = 0
    attach_probes: int = 0
    attach_pairs_evaluated: int = 0
    compact_pairs_evaluated: int = 0

    @property
    def pairs_evaluated(self) -> int:
        return self.attach_pairs_evaluated + self.compact_pairs_evaluated

    def to_dict(self) -> dict:
        return {
            "items": self.items,
            "batches": self.batches,
            "attached": self.attached,
            "new_clusters": self.new_clusters,
            "blocks_merged": self.blocks_merged,
            "compactions": self.compactions,
            "blocks_compacted": self.blocks_compacted,
            "attach_probes": self.attach_probes,
            "attach_pairs_evaluated": self.attach_pairs_evaluated,
            "compact_pairs_evaluated": self.compact_pairs_evaluated,
            "pairs_evaluated": self.pairs_evaluated,
        }


@dataclass(slots=True)
class BatchReport:
    """What one :meth:`StreamingClusterer.ingest` call did."""

    batch_size: int
    attached: int
    new_clusters: int
    blocks_merged: int
    probes: int
    compacted: bool


class StreamingClusterer:
    """Cluster a packet stream without ever touching the full pair space.

    State is three structures that all grow monotonically between
    compactions: the :class:`PairStream` (items + evaluated pair cache),
    the incremental blocker (union-find over candidate blocks), and the
    cluster map (cluster id = smallest member index, so identities are
    deterministic and stable under attachment).

    :param metric: pair metric; defaults to the paper's packet distance.
    :param config: streaming policy.
    :param engine: distance engine to evaluate pairs with (worker count,
        fault plan, chunking); defaults to an engine over ``metric`` on
        every usable CPU.
    :param obs: optional observability bundle (``stream_attach`` /
        ``stream_compact`` spans, ``stream_*`` counters).
    """

    def __init__(
        self,
        metric=None,
        config: StreamingConfig | None = None,
        *,
        engine: DistanceEngine | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or StreamingConfig()
        self.engine = engine or DistanceEngine(metric)
        self.metric = self.engine.metric
        self.obs = obs or NULL_OBS
        self.stream = PairStream(
            self.engine, max_cached_pairs=self.config.max_cached_pairs
        )
        self.blocker = make_blocker(self.metric, self.config.blocking)
        self.stats = StreamingStats()
        self._members: dict[int, list[int]] = {}  # cluster id -> item indices
        self._cluster_of: dict[int, int] = {}  # item index -> cluster id
        self._dirty: set[int] = set()  # item indices marking dirty blocks
        self._batches_since_compact = 0

    def __len__(self) -> int:
        return len(self.stream)

    @property
    def items(self) -> list:
        return self.stream.items

    @property
    def threshold(self) -> float:
        return self.config.blocking.threshold

    # -- ingestion ----------------------------------------------------------------

    def ingest(self, batch: Sequence[HttpPacket]) -> BatchReport:
        """Attach one batch of packets, compacting if the cadence is due."""
        batch = list(batch)
        start = len(self.stream)
        pairs_before = self.stream.pairs_evaluated
        report = BatchReport(
            batch_size=len(batch), attached=0, new_clusters=0,
            blocks_merged=0, probes=0, compacted=False,
        )
        with self.obs.span(
            "stream_attach", track="stream", batch=self.stats.batches,
            items=len(batch),
        ):
            self.stream.extend(batch)
            for offset, packet in enumerate(batch):
                index = start + offset
                self._attach(index, packet, report)
                self.obs.advance(1)
        self.stats.attach_pairs_evaluated += self.stream.pairs_evaluated - pairs_before
        self.stats.items += len(batch)
        self.stats.batches += 1
        self.stats.attached += report.attached
        self.stats.new_clusters += report.new_clusters
        self.stats.blocks_merged += report.blocks_merged
        self.stats.attach_probes += report.probes
        self.obs.inc("stream_items", len(batch))
        self.obs.inc("stream_attach_probes", report.probes)

        self._batches_since_compact += 1
        if (
            self.config.compact_every
            and self._batches_since_compact >= self.config.compact_every
        ):
            self.compact()
            report.compacted = True
        return report

    def _attach(self, index: int, packet: HttpPacket, report: BatchReport) -> None:
        merges = self.blocker.add(index, packet)
        if merges:
            report.blocks_merged += len(merges)
            self.obs.inc("stream_blocks_merged", len(merges))
            for root_a, root_b in merges:
                self._dirty.add(root_a)
                self._dirty.add(root_b)
        self._dirty.add(index)

        # Candidate clusters: every cluster living in this item's block.
        block_members = self.blocker.members(index)
        candidates = sorted(
            {
                self._cluster_of[member]
                for member in block_members
                if member in self._cluster_of
            }
        )
        probes: list[tuple[int, int]] = []
        spans: list[tuple[int, int, int]] = []  # (cluster, start, stop)
        cap = self.config.attach_exemplars
        for cluster in candidates:
            exemplars = self._members[cluster][:cap]
            spans.append((cluster, len(probes), len(probes) + len(exemplars)))
            probes.extend((index, member) for member in exemplars)
        report.probes += len(probes)

        best_cluster = -1
        best_score = float("inf")
        if probes:
            values = self.stream.distances(probes)
            for cluster, lo, hi in spans:
                window = values[lo:hi]
                if self.config.linkage is Linkage.SINGLE:
                    score = float(window.min())
                elif self.config.linkage is Linkage.COMPLETE:
                    score = float(window.max())
                else:
                    score = float(window.mean())
                if score < best_score:  # ties keep the smaller cluster id
                    best_score = score
                    best_cluster = cluster

        if best_cluster >= 0 and best_score <= self.threshold:
            self._members[best_cluster].append(index)
            self._cluster_of[index] = best_cluster
            report.attached += 1
        else:
            self._members[index] = [index]
            self._cluster_of[index] = index
            report.new_clusters += 1

    # -- compaction ---------------------------------------------------------------

    def compact(self, *, full: bool = False) -> int:
        """Recluster dirty blocks exactly; returns blocks reclustered.

        ``full=True`` reclusters every block regardless of dirtiness —
        the audit uses it to guarantee a fully settled partition.
        """
        if full:
            roots = {self.blocker.find(index) for index in range(len(self.stream))}
        else:
            roots = {self.blocker.find(index) for index in self._dirty}
        pairs_before = self.stream.pairs_evaluated
        with self.obs.span(
            "stream_compact", track="stream", blocks=len(roots), full=full
        ):
            blocks = [sorted(self.blocker.members(root)) for root in sorted(roots)]
            # One pair-cache call for every block: their misses form one batch.
            for members, matrix in zip(blocks, self.stream.matrices(blocks)):
                self._recluster(members, matrix)
                self.obs.advance(1)
        self.stats.compact_pairs_evaluated += self.stream.pairs_evaluated - pairs_before
        self.stats.compactions += 1
        self.stats.blocks_compacted += len(roots)
        self.obs.inc("stream_compactions")
        self.obs.inc("stream_blocks_compacted", len(roots))
        self._dirty.clear()
        self._batches_since_compact = 0
        return len(roots)

    def _recluster(self, members: list[int], matrix: CondensedMatrix) -> None:
        """Agglomerate one block over its matrix and cut it at the threshold."""
        if len(members) == 1:
            self._set_clusters(members, [members])
            return
        dendrogram = agglomerate(matrix, self.config.linkage)
        clusters = [
            sorted(members[leaf] for leaf in dendrogram.leaves(node))
            for node in cut_by_height(dendrogram, self.threshold)
        ]
        self._set_clusters(members, clusters)

    def _set_clusters(self, members: list[int], clusters: list[list[int]]) -> None:
        """Replace every cluster covering ``members`` with ``clusters``."""
        for member in members:
            old = self._cluster_of.pop(member, None)
            if old is not None:
                self._members.pop(old, None)
        for cluster in clusters:
            cluster_id = min(cluster)
            self._members[cluster_id] = list(cluster)
            for member in cluster:
                self._cluster_of[member] = cluster_id

    # -- read side ----------------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        return len(self._members)

    def partition(self) -> list[list[int]]:
        """Current clusters as sorted member lists, ordered by smallest member."""
        return [
            sorted(self._members[cluster]) for cluster in sorted(self._members)
        ]

    def clusters_of_items(self) -> dict[int, int]:
        """Item index -> cluster id (copy)."""
        return dict(self._cluster_of)
