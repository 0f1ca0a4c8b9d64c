"""Per-block matrices and the sparse pair stream.

Two contracts: a block's own matrix is bit-identical to the same entries
of the full build (blocking never changes a distance it keeps), and the
union of per-block threshold cuts yields the same flat clusters as
cutting the full matrix — the exact-mode losslessness proof made
operational.
"""

from collections import Counter

import numpy as np
import pytest

from repro.clustering.cut import cut_by_height
from repro.clustering.linkage import Linkage, agglomerate
from repro.distance.blocking import BlockingConfig, BlockingMode, assign_blocks
from repro.distance.engine import DistanceEngine, MatrixCache, PairStream
from repro.distance.matrix import distance_matrix
from repro.distance.packet import PacketDistance
from repro.errors import DistanceError

THRESHOLD = 1.2


@pytest.fixture(scope="module")
def packets(small_split):
    suspicious, __ = small_split
    return list(suspicious[:80])


@pytest.fixture(scope="module")
def full(packets):
    return DistanceEngine(PacketDistance.paper()).matrix(packets)


def flat_clusters(matrix, linkage=Linkage.GROUP_AVERAGE):
    dendrogram = agglomerate(matrix, linkage)
    return sorted(
        (sorted(dendrogram.leaves(node)) for node in cut_by_height(dendrogram, THRESHOLD)),
        key=lambda cluster: cluster[0],
    )


def blocked_clusters(packets, full, mode=BlockingMode.EXACT, linkage=Linkage.GROUP_AVERAGE):
    """Flat clusters of each block's slice of ``full``, in global indices."""
    assignment = assign_blocks(
        packets, PacketDistance.paper(), BlockingConfig(mode=mode, threshold=THRESHOLD)
    )
    clusters = []
    for block in assignment.blocks:
        members = sorted(block)
        if len(members) == 1:
            clusters.append(members)
            continue
        for cluster in flat_clusters(full.subset(members), linkage):
            clusters.append([members[local] for local in cluster])
    return sorted(clusters, key=lambda cluster: cluster[0]), assignment


def partition_agreement(
    ours: list[list[int]], reference: list[list[int]], n_items: int
) -> dict:
    """Pairwise co-membership agreement between two partitions.

    Counting-based (contingency cells, no materialized pair sets).
    Precision/recall are over same-cluster pairs with ``reference`` as
    truth.
    """
    label_ours: dict[int, int] = {}
    for cluster_id, members in enumerate(ours):
        for member in members:
            label_ours[member] = cluster_id
    label_ref: dict[int, int] = {}
    for cluster_id, members in enumerate(reference):
        for member in members:
            label_ref[member] = cluster_id

    def same_pairs(counts: Counter) -> int:
        return sum(count * (count - 1) // 2 for count in counts.values())

    same_ours = same_pairs(Counter(label_ours.values()))
    same_ref = same_pairs(Counter(label_ref.values()))
    same_both = same_pairs(
        Counter((label_ours[item], label_ref[item]) for item in range(n_items))
    )
    precision = same_both / same_ours if same_ours else 1.0
    recall = same_both / same_ref if same_ref else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


class TestPartitionAgreement:
    def test_identical_partitions(self):
        result = partition_agreement([[0, 1, 2], [3, 4]], [[3, 4], [0, 1, 2]], 5)
        assert result["precision"] == result["recall"] == result["f1"] == 1.0

    def test_split_cluster_scores(self):
        # ours splits the reference's single 4-cluster into two halves:
        # all our co-pairs are true (precision 1), 2 of 6 survive (recall
        # 1/3), F1 = 0.5.
        result = partition_agreement([[0, 1], [2, 3]], [[0, 1, 2, 3]], 4)
        assert result["precision"] == 1.0
        assert result["recall"] == pytest.approx(1 / 3)
        assert result["f1"] == pytest.approx(0.5)

    def test_all_singletons_vs_one_cluster(self):
        result = partition_agreement([[0], [1], [2]], [[0, 1, 2]], 3)
        assert result["precision"] == 1.0  # vacuous: no same-pairs claimed
        assert result["recall"] == 0.0


class TestBlockedMatrix:
    def test_within_block_values_bit_identical(self, packets, full):
        assignment = assign_blocks(
            packets, PacketDistance.paper(), BlockingConfig(threshold=THRESHOLD)
        )
        owner = {item: index for index, block in enumerate(assignment.blocks) for item in block}
        for block in assignment.blocks:
            members = sorted(block)
            built = DistanceEngine(PacketDistance.paper()).matrix([packets[i] for i in members])
            assert built.values.tobytes() == full.subset(members).values.tobytes()
        # Under EXACT, every pair split across blocks lies above the threshold.
        cross = [
            full.get(i, j)
            for i in range(len(packets))
            for j in range(i + 1, len(packets))
            if owner[i] != owner[j]
        ]
        assert cross and min(cross) > THRESHOLD

    @pytest.mark.parametrize(
        "linkage", [Linkage.GROUP_AVERAGE, Linkage.SINGLE, Linkage.COMPLETE]
    )
    def test_threshold_cut_identical_to_full(self, packets, full, linkage):
        blocked, __ = blocked_clusters(packets, full, linkage=linkage)
        assert blocked == flat_clusters(full, linkage)

    def test_lsh_mode_cut_agrees_within_audit_floor(self, packets, full):
        # LSH is approximate: the contract is an agreement floor, not identity.
        blocked, assignment = blocked_clusters(packets, full, mode=BlockingMode.LSH)
        assert assignment.stats.pairs_pruned > 0
        agreement = partition_agreement(blocked, flat_clusters(full), len(packets))
        assert agreement["f1"] >= 0.97


class TestSubset:
    def test_subset_matches_direct_build(self, packets, full):
        indices = [3, 11, 12, 40, 41, 77]
        sub = full.subset(indices)
        direct = distance_matrix(
            [packets[i] for i in indices], PacketDistance.paper()
        )
        assert sub.n == len(indices)
        assert np.array_equal(sub.values, direct.values)

    def test_subset_under_two_items_is_empty(self, full):
        assert full.subset([5]).n == 1
        assert full.subset([]).n == 0
        assert full.subset([5]).values.size == 0

    def test_subset_rejects_out_of_range(self, full):
        with pytest.raises(DistanceError):
            full.subset([0, full.n])

    def test_subset_rejects_duplicates(self, full):
        with pytest.raises(DistanceError):
            full.subset([4, 4])


class TestMatrixCachePrune:
    def test_prune_keeps_exact_values_and_extends(self, packets):
        cache = MatrixCache(DistanceEngine(PacketDistance.paper()))
        cache.add(packets[:10])
        cache.prune(range(4, 10))
        reference = DistanceEngine(PacketDistance.paper()).matrix(packets[4:10])
        assert len(cache) == 6
        assert np.array_equal(cache.matrix.values, reference.values)
        # A later add extends from the pruned state, not from scratch.
        cache.add(packets[10:14])
        extended_reference = DistanceEngine(PacketDistance.paper()).matrix(
            packets[4:14]
        )
        assert np.array_equal(cache.matrix.values, extended_reference.values)

    def test_prune_without_matrix_trims_items_only(self, packets):
        cache = MatrixCache(DistanceEngine(PacketDistance.paper()))
        cache.items = list(packets[:6])
        assert cache.prune([2, 3]) is None
        assert len(cache) == 2


class TestPairStream:
    def test_distances_bit_identical_to_full(self, packets, full):
        stream = PairStream(DistanceEngine(PacketDistance.paper()))
        stream.extend(packets)
        pairs = [(0, 1), (5, 40), (79, 3), (17, 17)]
        values = stream.distances(pairs)
        for (i, j), value in zip(pairs, values):
            expected = 0.0 if i == j else full.get(i, j)
            assert value == expected

    def test_pairs_evaluated_at_most_once(self, packets):
        stream = PairStream(DistanceEngine(PacketDistance.paper()))
        stream.extend(packets[:20])
        stream.distances([(0, 1), (2, 3)])
        assert stream.pairs_evaluated == 2
        stream.distances([(1, 0), (2, 3), (4, 5)])  # two repeats, one new
        assert stream.pairs_evaluated == 3
        assert stream.cache_hits == 2

    def test_matrix_over_indices_matches_subset(self, packets, full):
        stream = PairStream(DistanceEngine(PacketDistance.paper()))
        stream.extend(packets)
        blocks = [[2, 9, 30, 55, 60], [70], [], [61, 3, 44]]
        for block, matrix in zip(blocks, stream.matrices(blocks), strict=True):
            assert np.array_equal(matrix.values, full.subset(block).values)

    def test_incremental_extend_equals_fresh(self, packets, full):
        grown = PairStream(DistanceEngine(PacketDistance.paper()))
        grown.extend(packets[:30])
        grown.extend(packets[30:])
        fresh = PairStream(DistanceEngine(PacketDistance.paper()))
        fresh.extend(packets)
        pairs = [(0, 79), (29, 30), (10, 50)]
        assert np.array_equal(grown.distances(pairs), fresh.distances(pairs))
        for (i, j), value in zip(pairs, grown.distances(pairs)):
            assert value == full.get(i, j)

    def test_large_miss_batches_use_engine_dispatch(self, packets, full):
        stream = PairStream(
            DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=16)
        )
        stream.extend(packets)
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 12)]
        values = stream.distances(pairs)
        for (i, j), value in zip(pairs, values):
            assert value == full.get(i, j)


class TestPairStreamEviction:
    """The LRU bound: memory stays flat and no distance ever changes."""

    def test_cache_never_exceeds_the_bound(self, packets, full):
        stream = PairStream(
            DistanceEngine(PacketDistance.paper()), max_cached_pairs=10
        )
        stream.extend(packets)
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 12)]
        values = stream.distances(pairs)
        assert stream.cached_pairs <= 10
        assert stream.evictions == len(pairs) - 10
        for (i, j), value in zip(pairs, values):
            assert value == full.get(i, j)

    def test_evicted_pairs_recompute_to_the_same_value(self, packets, full):
        stream = PairStream(
            DistanceEngine(PacketDistance.paper()), max_cached_pairs=3
        )
        stream.extend(packets)
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        first = list(stream.distances(pairs))
        evaluated = stream.pairs_evaluated
        second = list(stream.distances(pairs))
        assert first == second
        assert stream.pairs_evaluated > evaluated  # recomputed, not stale
        for (i, j), value in zip(pairs, second):
            assert value == full.get(i, j)

    def test_hits_refresh_recency(self, packets):
        stream = PairStream(
            DistanceEngine(PacketDistance.paper()), max_cached_pairs=2
        )
        stream.extend(packets)
        stream.distances([(0, 1), (2, 3)])
        stream.distances([(0, 1)])  # (0,1) now most recent
        stream.distances([(4, 5)])  # evicts (2,3), not (0,1)
        evaluated = stream.pairs_evaluated
        stream.distances([(0, 1)])
        assert stream.pairs_evaluated == evaluated  # still a hit

    def test_bound_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            PairStream(DistanceEngine(PacketDistance.paper()), max_cached_pairs=0)

    def test_unbounded_stream_never_evicts(self, packets):
        stream = PairStream(DistanceEngine(PacketDistance.paper()))
        stream.extend(packets)
        stream.distances([(i, j) for i in range(6) for j in range(i + 1, 10)])
        assert stream.evictions == 0

    def test_streaming_partition_unchanged_by_the_bound(self, packets):
        from repro.core.streaming import StreamingClusterer, StreamingConfig

        def run(max_cached_pairs):
            config = StreamingConfig(
                blocking=BlockingConfig(threshold=THRESHOLD),
                compact_every=1,
                max_cached_pairs=max_cached_pairs,
            )
            clusterer = StreamingClusterer(
                PacketDistance.paper(), config,
                engine=DistanceEngine(PacketDistance.paper()),
            )
            for start in range(0, 60, 20):
                clusterer.ingest(packets[start : start + 20])
            return clusterer

        capped = run(max_cached_pairs=50)
        unbounded = run(max_cached_pairs=None)
        assert capped.stream.evictions > 0
        assert capped.stream.cached_pairs <= 50
        assert capped.partition() == unbounded.partition()
