"""Candidate-pair blocking: exact losslessness and determinism."""

import pytest

from repro.distance.blocking import (
    BlockAssignment,
    BlockingConfig,
    BlockingMode,
    ExactBlocker,
    UnionFind,
    assign_blocks,
    make_blocker,
)
from repro.distance.matrix import distance_matrix
from repro.distance.packet import PacketDistance
from repro.errors import DistanceError
from repro.simulation.corpus import mini_corpus


def corpus_packets(seed: int, n: int = 70) -> list:
    """Deterministic suspicious packets for property tests."""
    corpus = mini_corpus(seed=seed, n_apps=30)
    suspicious, __ = corpus.payload_check().split(corpus.trace)
    assert len(suspicious) >= n
    return list(suspicious[:n])


def block_of(assignment: BlockAssignment) -> dict[int, int]:
    """Item index -> block ordinal."""
    return {
        member: ordinal
        for ordinal, block in enumerate(assignment.blocks)
        for member in block
    }


class TestConfig:
    def test_defaults_valid(self):
        config = BlockingConfig()
        assert config.mode is BlockingMode.EXACT
        assert config.threshold > 0

    def test_threshold_must_be_positive(self):
        with pytest.raises(DistanceError):
            BlockingConfig(threshold=0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # NaN fails every comparison, so ``threshold <= 0`` once let it through.
        with pytest.raises(DistanceError, match="finite and positive"):
            BlockingConfig(threshold=threshold)


class TestUnionFind:
    def test_components_are_order_independent(self):
        edges = [(0, 3), (3, 5), (1, 2), (4, 4)]
        forward, backward = UnionFind(), UnionFind()
        for index in range(6):
            forward.add(index)
            backward.add(index)
        for a, b in edges:
            forward.union(a, b)
        for a, b in reversed(edges):
            backward.union(b, a)
        assert forward.components() == backward.components()
        assert forward.components() == [[0, 3, 5], [1, 2], [4]]

    def test_canonical_root_is_smallest_member(self):
        uf = UnionFind()
        for index in (7, 2, 9):
            uf.add(index)
        uf.union(9, 7)
        uf.union(7, 2)
        assert uf.find(9) == 2
        assert sorted(uf.members(7)) == [2, 7, 9]

    def test_union_reports_whether_it_merged(self):
        uf = UnionFind()
        uf.add(0)
        uf.add(1)
        assert uf.union(0, 1) == (0, True)
        assert uf.union(1, 0) == (0, False)


class TestExactBlocking:
    """The losslessness property the whole streaming design rests on."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_true_merge_pairs_never_cross_blocks(self, seed):
        """Recall of true merge pairs is exactly 1: every pair within the
        linkage threshold shares a block."""
        packets = corpus_packets(seed)
        metric = PacketDistance.paper()
        config = BlockingConfig(threshold=1.2)
        assignment = assign_blocks(packets, metric, config)
        matrix = distance_matrix(packets, metric)
        owner = block_of(assignment)
        true_pairs = 0
        for i in range(len(packets)):
            for j in range(i + 1, len(packets)):
                if matrix.get(i, j) <= config.threshold:
                    true_pairs += 1
                    assert owner[i] == owner[j], (i, j, matrix.get(i, j))
        assert true_pairs > 0  # the property must not hold vacuously

    @pytest.mark.parametrize("seed", [3, 7])
    def test_cross_block_pairs_exceed_threshold(self, seed):
        packets = corpus_packets(seed)
        metric = PacketDistance.paper()
        config = BlockingConfig(threshold=1.2)
        owner = block_of(assign_blocks(packets, metric, config))
        matrix = distance_matrix(packets, metric)
        crossings = 0
        for i in range(len(packets)):
            for j in range(i + 1, len(packets)):
                if owner[i] != owner[j]:
                    crossings += 1
                    assert matrix.get(i, j) > config.threshold
        assert crossings > 0  # blocking must actually prune something

    def test_stats_account_for_the_pair_space(self):
        packets = corpus_packets(3)
        assignment = assign_blocks(
            packets, PacketDistance.paper(), BlockingConfig()
        )
        stats = assignment.stats
        n = len(packets)
        assert stats.n_items == n
        assert stats.pairs_total == n * (n - 1) // 2
        assert stats.pairs_within == sum(
            len(b) * (len(b) - 1) // 2 for b in assignment.blocks
        )
        assert stats.pairs_pruned == stats.pairs_total - stats.pairs_within
        assert 0 < stats.pairs_pruned < stats.pairs_total
        assert stats.largest_block == max(len(b) for b in assignment.blocks)

    def test_zero_destination_weight_is_one_vacuous_block(self):
        packets = corpus_packets(3, n=20)
        assignment = assign_blocks(
            packets, PacketDistance.content_only(), BlockingConfig()
        )
        assert assignment.stats.n_blocks == 1
        assert assignment.stats.pairs_pruned == 0

    def test_incremental_add_matches_one_shot(self):
        packets = corpus_packets(7, n=40)
        metric = PacketDistance.paper()
        config = BlockingConfig()
        blocker = make_blocker(metric, config)
        for index, packet in enumerate(packets):
            blocker.add(index, packet)
        assert blocker.components() == assign_blocks(packets, metric, config).blocks

    def test_exact_mode_requires_packet_metric(self):
        with pytest.raises(DistanceError):
            make_blocker(lambda a, b: abs(a - b), BlockingConfig())
        assert isinstance(
            make_blocker(PacketDistance.paper(), BlockingConfig()), ExactBlocker
        )
