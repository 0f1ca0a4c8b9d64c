"""Candidate-pair blocking: compute NCD only where clusters can form.

The distance-matrix engine made the M(M-1)/2 pair loop fast; blocking
makes most of it *unnecessary*.  Real leak traffic is bimodal: packets of
the same advertisement module sit at ``d_pkt`` ~0.1 of each other, while
cross-module pairs sit above ~2.0.  Clusters only form below an absolute
linkage threshold ``t``, so any pair provably farther than ``t`` never
influences the flat clustering at ``t`` — its NCD need not be computed.

The one prefilter, :attr:`BlockingMode.EXACT`, is *provably lossless*
destination blocking.  The packet metric decomposes as
``d_pkt = w_dst * d_dst + w_content * d_header`` with ``d_header >= 0``,
so ``w_dst * d_dst`` is a cheap lower bound on ``d_pkt`` (no compression
involved).  Packets whose destinations are within ``t`` of each other
(under the bound) are connected; blocks are the connected components.
Every cross-block pair satisfies ``d_pkt > t``, and for the reducible
linkages (group average, single, complete) no merge at height <= ``t``
can ever join two blocks — the flat clusters at any cut <= ``t`` are
**identical** to clustering the full matrix.  Destination values repeat
heavily (a 2000-packet corpus carries ~25 distinct destinations), so the
bound is evaluated on unique destinations only: O(U^2) cheap
comparisons, not O(M^2).

Blocking never changes a computed distance: a block's own matrix, built
by the same engine over its members in index order, is bit-identical to
the same entries of the full matrix, and cross-block pairs are simply
never evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.distance.destination import destination_distance
from repro.errors import DistanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.distance.packet import PacketDistance
    from repro.http.packet import Destination, HttpPacket


class BlockingMode(enum.Enum):
    """Candidate-pair prefilter strategy."""

    EXACT = "exact"  # destination lower bound; provably lossless


@dataclass(frozen=True, slots=True)
class BlockingConfig:
    """Blocking policy for blocked matrices and streaming clustering.

    :param mode: prefilter strategy (:class:`BlockingMode`).
    :param threshold: absolute linkage height ``t`` clusters are cut at;
        finite and positive.  Losslessness holds for any cut at or below it.
    """

    mode: BlockingMode = BlockingMode.EXACT
    threshold: float = 1.2

    def __post_init__(self) -> None:
        # ``not threshold > 0`` also catches NaN, which every comparison fails.
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise DistanceError(
                f"blocking threshold must be finite and positive, got {self.threshold}"
            )


@dataclass(slots=True)
class BlockingStats:
    """Account of one block assignment."""

    n_items: int = 0
    n_blocks: int = 0
    largest_block: int = 0
    pairs_total: int = 0
    pairs_within: int = 0

    @property
    def pairs_pruned(self) -> int:
        return self.pairs_total - self.pairs_within


@dataclass(slots=True)
class BlockAssignment:
    """Blocks over one item population, in deterministic order.

    Blocks are sorted by smallest member index; members ascend within a
    block, so downstream pair enumeration matches the full matrix's
    row-major orientation (row item = smaller index) bit-for-bit.
    """

    blocks: list[list[int]]
    stats: BlockingStats


class UnionFind:
    """Disjoint sets over item indices with member tracking.

    Roots are canonical (the smallest member index of the component), so
    component identity is deterministic regardless of union order.
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}

    def add(self, index: int) -> None:
        if index not in self._parent:
            self._parent[index] = index
            self._members[index] = [index]

    def find(self, index: int) -> int:
        root = index
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[index] != root:  # path compression
            self._parent[index], index = root, self._parent[index]
        return root

    def union(self, a: int, b: int) -> tuple[int, bool]:
        """Join the components of ``a`` and ``b``.

        :returns: ``(root, merged)`` — ``merged`` is False when they were
            already one component.  The surviving root is the smaller one,
            keeping representatives stable across insertion orders.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra, False
        keep, absorb = (ra, rb) if ra < rb else (rb, ra)
        self._parent[absorb] = keep
        self._members[keep].extend(self._members.pop(absorb))
        return keep, True

    def members(self, index: int) -> list[int]:
        """All indices in ``index``'s component (unsorted)."""
        return self._members[self.find(index)]

    def components(self) -> list[list[int]]:
        """Every component, members ascending, ordered by smallest member."""
        return sorted(
            (sorted(members) for members in self._members.values()),
            key=lambda block: block[0],
        )


class ExactBlocker:
    """Destination lower-bound blocking — the provably lossless mode.

    Incremental: :meth:`add` unions the new item with every destination
    component within reach of the bound.  The bound is evaluated once per
    *unique* destination pair, so a stream of M packets over U distinct
    destinations costs O(U^2) cheap comparisons total.

    With ``destination_weight == 0`` (content-only ablation) the bound is
    vacuous and everything lands in one block — still lossless, no pruning.
    """

    def __init__(self, metric: "PacketDistance", config: BlockingConfig) -> None:
        self.weight = metric.destination_weight
        self.registry = metric.registry
        self.threshold = config.threshold
        self.uf = UnionFind()
        self._dest_ids: dict["Destination", int] = {}
        self._destinations: list["Destination"] = []
        self._anchor: list[int] = []  # first item index per unique destination

    def add(self, index: int, packet: "HttpPacket") -> list[tuple[int, int]]:
        """Register ``packet`` as item ``index``.

        :returns: root pairs that were distinct components before this
            item bridged them (block merges the caller must dirty).
        """
        self.uf.add(index)
        if self.weight == 0.0:
            if index > 0:
                __, merged = self.uf.union(index, 0)
                return []  # one global block; never two real blocks merging
            return []
        destination = packet.destination
        known = self._dest_ids.get(destination)
        if known is not None:
            self.uf.union(index, self._anchor[known])
            return []
        self._dest_ids[destination] = len(self._destinations)
        self._destinations.append(destination)
        self._anchor.append(index)
        merges: list[tuple[int, int]] = []
        for other_id in range(len(self._destinations) - 1):
            bound = self.weight * destination_distance(
                destination, self._destinations[other_id], registry=self.registry
            )
            if bound <= self.threshold:
                root_new = self.uf.find(index)
                root_old = self.uf.find(self._anchor[other_id])
                if root_new != root_old:
                    self.uf.union(index, self._anchor[other_id])
                    merges.append((root_new, root_old))
        return merges

    def find(self, index: int) -> int:
        return self.uf.find(index)

    def members(self, index: int) -> list[int]:
        return self.uf.members(index)

    def components(self) -> list[list[int]]:
        return self.uf.components()


def make_blocker(metric: object, config: BlockingConfig) -> ExactBlocker:
    """Build the blocker for ``config``, validating metric compatibility."""
    # The lower bound needs the decomposed packet metric.
    from repro.distance.packet import PacketDistance

    if not isinstance(metric, PacketDistance):
        raise DistanceError(
            "exact blocking requires a PacketDistance metric "
            f"(got {type(metric).__name__})"
        )
    return ExactBlocker(metric, config)


def assign_blocks(
    items: Sequence, metric: object, config: BlockingConfig
) -> BlockAssignment:
    """One-shot block assignment over a full item population."""
    blocker = make_blocker(metric, config)
    for index, packet in enumerate(items):
        blocker.add(index, packet)
    blocks = blocker.components()
    n = len(items)
    stats = BlockingStats(
        n_items=n,
        n_blocks=len(blocks),
        largest_block=max((len(b) for b in blocks), default=0),
        pairs_total=n * (n - 1) // 2,
        pairs_within=sum(len(b) * (len(b) - 1) // 2 for b in blocks),
    )
    return BlockAssignment(blocks=blocks, stats=stats)
