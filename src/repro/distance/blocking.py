"""Candidate-pair blocking: compute NCD only where clusters can form.

The distance-matrix engine made the M(M-1)/2 pair loop fast; blocking
makes most of it *unnecessary*.  Real leak traffic is bimodal: packets of
the same advertisement module sit at ``d_pkt`` ~0.1 of each other, while
cross-module pairs sit above ~2.0.  Clusters only form below an absolute
linkage threshold ``t``, so any pair provably farther than ``t`` never
influences the flat clustering at ``t`` — its NCD need not be computed.

Two candidate-pair prefilters are provided, selected by
:class:`BlockingMode`:

``EXACT`` — *provably lossless* destination blocking.  The packet metric
    decomposes as ``d_pkt = w_dst * d_dst + w_content * d_header`` with
    ``d_header >= 0``, so ``w_dst * d_dst`` is a cheap lower bound on
    ``d_pkt`` (no compression involved).  Packets whose destinations are
    within ``t`` of each other (under the bound) are connected; blocks are
    the connected components.  Every cross-block pair satisfies
    ``d_pkt > t``, and for the reducible linkages (group average, single,
    complete) no merge at height <= ``t`` can ever join two blocks — the
    flat clusters at any cut <= ``t`` are **identical** to clustering the
    full matrix.  Destination values repeat heavily (a 2000-packet corpus
    carries ~25 distinct destinations), so the bound is evaluated on
    unique destinations only: O(U^2) cheap comparisons, not O(M^2).

``LSH`` — approximate blocking for metrics or corpora where the
    destination bound is too loose: exact destination-key blocking on
    ``host:port/path`` unioned with token-shingle minhash/LSH over the
    header fields (request line + cookie).  Pairs that share a block key
    or collide in any minhash band become candidates.  Not lossless;
    ``tests/test_distance_blocked_engine.py`` holds its pairwise F1
    against a full recluster at or above 0.97.

Blocking never changes a computed distance — within-block pairs go
through the same evaluator the full matrix build uses, bit-identically.
Cross-block entries are set to a fill value above the threshold, which
the <= ``t`` cut never looks at.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Sequence

from repro.distance.destination import destination_distance
from repro.errors import DistanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.distance.packet import PacketDistance
    from repro.http.packet import Destination, HttpPacket


class BlockingMode(enum.Enum):
    """Candidate-pair prefilter strategy."""

    EXACT = "exact"  # destination lower bound; provably lossless
    LSH = "lsh"  # destination key + minhash bands; audited, not lossless


@dataclass(frozen=True, slots=True)
class BlockingConfig:
    """Blocking policy for blocked matrices and streaming clustering.

    :param mode: prefilter strategy (:class:`BlockingMode`).
    :param threshold: absolute linkage height ``t`` clusters are cut at.
        Exact-mode losslessness holds for any cut at or below it.
    :param num_hashes: minhash signature length (LSH mode).
    :param bands: LSH bands; ``num_hashes`` must divide evenly into them.
        More bands = higher recall, more candidates.
    :param shingle: tokens per shingle for the header minhash.
    :param seed: seed for the minhash salt derivation.
    """

    mode: BlockingMode = BlockingMode.EXACT
    threshold: float = 1.2
    num_hashes: int = 32
    bands: int = 8
    shingle: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise DistanceError(f"blocking threshold must be positive, got {self.threshold}")
        if self.num_hashes < 1 or self.bands < 1:
            raise DistanceError("num_hashes and bands must be positive")
        if self.num_hashes % self.bands:
            raise DistanceError(
                f"bands ({self.bands}) must divide num_hashes ({self.num_hashes})"
            )
        if self.shingle < 1:
            raise DistanceError(f"shingle size must be positive, got {self.shingle}")

    def fill_value(self, metric: object) -> float:
        """Cross-block matrix entry: above the threshold *and* the metric's
        own ceiling, so cuts at or below the threshold never see it."""
        ceiling = getattr(metric, "max_distance", 0.0)
        return max(float(ceiling), self.threshold + 1.0)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "threshold": self.threshold,
            "num_hashes": self.num_hashes,
            "bands": self.bands,
            "shingle": self.shingle,
            "seed": self.seed,
        }


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

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the condensed pair space blocking removed."""
        return self.pairs_pruned / self.pairs_total if self.pairs_total else 0.0

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_blocks": self.n_blocks,
            "largest_block": self.largest_block,
            "pairs_total": self.pairs_total,
            "pairs_within": self.pairs_within,
            "pairs_pruned": self.pairs_pruned,
            "pruned_fraction": round(self.pruned_fraction, 4),
        }


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


def destination_block_key(packet: "HttpPacket") -> str:
    """Exact destination block key: ``host:port/path`` (LSH mode)."""
    return f"{packet.host}:{packet.port}{packet.request.path}"


_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def header_tokens(packet: "HttpPacket") -> list[str]:
    """Alphanumeric tokens of the header fields (request line + cookie)."""
    return _TOKEN_RE.findall(packet.request_line) + _TOKEN_RE.findall(packet.cookie)


def header_shingles(packet: "HttpPacket", k: int) -> set[bytes]:
    """Token k-shingles of the header fields, as hashable byte strings.

    Shorter inputs yield their single full-window shingle so no packet is
    left without a signature.
    """
    tokens = header_tokens(packet)
    if not tokens:
        return set()
    if len(tokens) <= k:
        return {"\x1f".join(tokens).encode("utf-8")}
    return {
        "\x1f".join(tokens[i : i + k]).encode("utf-8")
        for i in range(len(tokens) - k + 1)
    }


class MinHasher:
    """Seeded minhash over shingle sets (deterministic across processes).

    One stable 64-bit content hash per shingle (blake2b — Python's builtin
    ``hash`` is salted per process) xor-mixed with ``num_hashes`` seeded
    salts; the minimum per salt approximates a random permutation.
    """

    def __init__(self, num_hashes: int, seed: int) -> None:
        rng = Random(seed)
        self._salts = [rng.getrandbits(64) for __ in range(num_hashes)]

    @staticmethod
    def _base_hash(shingle: bytes) -> int:
        return int.from_bytes(
            hashlib.blake2b(shingle, digest_size=8).digest(), "big"
        )

    def signature(self, shingles: set[bytes]) -> tuple[int, ...]:
        """Minhash signature; empty shingle sets collide with each other."""
        if not shingles:
            return tuple(self._salts)
        bases = [self._base_hash(s) for s in shingles]
        return tuple(min(base ^ salt for base in bases) for salt in self._salts)


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


class LshBlocker:
    """Destination-key + minhash/LSH candidate blocking (approximate).

    Items sharing an exact ``host:port/path`` key, or colliding in any
    minhash band over their header shingles, join one block.  Recall on
    true merge pairs is audited, not guaranteed.
    """

    def __init__(self, config: BlockingConfig) -> None:
        self.config = config
        self.hasher = MinHasher(config.num_hashes, config.seed)
        self.rows = config.num_hashes // config.bands
        self.uf = UnionFind()
        self._dest_anchor: dict[str, int] = {}
        self._band_anchor: dict[tuple[int, tuple[int, ...]], int] = {}

    def add(self, index: int, packet: "HttpPacket") -> list[tuple[int, int]]:
        """Register ``packet`` as item ``index``; returns bridged root pairs."""
        self.uf.add(index)
        merges: list[tuple[int, int]] = []

        def link(anchor: int) -> None:
            root_new, root_old = self.uf.find(index), self.uf.find(anchor)
            if root_new != root_old:
                self.uf.union(index, anchor)
                merges.append((root_new, root_old))

        key = destination_block_key(packet)
        anchor = self._dest_anchor.setdefault(key, index)
        if anchor != index:
            link(anchor)
        signature = self.hasher.signature(
            header_shingles(packet, self.config.shingle)
        )
        for band in range(self.config.bands):
            window = signature[band * self.rows : (band + 1) * self.rows]
            band_key = (band, window)
            anchor = self._band_anchor.setdefault(band_key, index)
            if anchor != index:
                link(anchor)
        return merges

    def find(self, index: int) -> int:
        return self.uf.find(index)

    def members(self, index: int) -> list[int]:
        return self.uf.members(index)

    def components(self) -> list[list[int]]:
        return self.uf.components()


def make_blocker(metric: object, config: BlockingConfig):
    """Build the blocker for ``config``, validating metric compatibility."""
    if config.mode is BlockingMode.LSH:
        return LshBlocker(config)
    # Exact mode needs the decomposed packet metric for its lower bound.
    from repro.distance.packet import PacketDistance

    if not isinstance(metric, PacketDistance):
        raise DistanceError(
            "exact blocking requires a PacketDistance metric "
            f"(got {type(metric).__name__}); use BlockingMode.LSH for "
            "generic metrics"
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
