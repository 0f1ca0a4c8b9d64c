"""Candidate-pair blocking: exact losslessness, LSH recall, determinism."""

import pytest

from repro.distance.blocking import (
    BlockAssignment,
    BlockingConfig,
    BlockingMode,
    ExactBlocker,
    LshBlocker,
    MinHasher,
    UnionFind,
    assign_blocks,
    destination_block_key,
    header_shingles,
    header_tokens,
    make_blocker,
)
from repro.distance.matrix import distance_matrix
from repro.distance.packet import PacketDistance
from repro.errors import DistanceError
from repro.simulation.corpus import mini_corpus
from tests.conftest import make_packet


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

    def test_bands_must_divide_hashes(self):
        with pytest.raises(DistanceError):
            BlockingConfig(num_hashes=32, bands=7)

    def test_shingle_must_be_positive(self):
        with pytest.raises(DistanceError):
            BlockingConfig(shingle=0)

    def test_to_dict_round_trips_policy(self):
        data = BlockingConfig(mode=BlockingMode.LSH, threshold=0.9).to_dict()
        assert data["mode"] == "lsh"
        assert data["threshold"] == 0.9
        assert data["num_hashes"] % data["bands"] == 0


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


class TestHeaderFeatures:
    def test_tokens_cover_request_line_and_cookie(self):
        packet = make_packet(target="/imp?sid=abc", cookie="uid=xyz9")
        tokens = header_tokens(packet)
        assert "imp" in tokens and "abc" in tokens
        assert "uid" in tokens and "xyz9" in tokens

    def test_shingle_window_count(self):
        packet = make_packet(target="/a?b=c&d=e&f=g")
        tokens = header_tokens(packet)
        shingles = header_shingles(packet, 3)
        assert len(shingles) <= len(tokens) - 2  # distinct 3-windows

    def test_short_input_yields_single_full_window(self):
        packet = make_packet(target="/x")
        tokens = header_tokens(packet)
        assert len(header_shingles(packet, len(tokens) + 5)) == 1

    def test_destination_key_includes_path_not_query(self):
        packet = make_packet(host="h.example.com", port=8080, target="/p/q?x=1")
        assert destination_block_key(packet) == "h.example.com:8080/p/q"


class TestMinHasher:
    def test_signatures_stable_across_instances(self):
        shingles = {b"alpha", b"beta", b"gamma"}
        assert (
            MinHasher(16, seed=4).signature(shingles)
            == MinHasher(16, seed=4).signature(shingles)
        )

    def test_seed_changes_signature(self):
        shingles = {b"alpha", b"beta"}
        assert MinHasher(16, seed=1).signature(shingles) != MinHasher(
            16, seed=2
        ).signature(shingles)

    def test_empty_sets_collide(self):
        hasher = MinHasher(8, seed=0)
        assert hasher.signature(set()) == hasher.signature(set())

    def test_signature_length(self):
        assert len(MinHasher(24, seed=0).signature({b"x"})) == 24


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
        assert 0.0 < stats.pruned_fraction < 1.0
        assert stats.largest_block == max(len(b) for b in assignment.blocks)
        assert sorted(stats.to_dict()) == sorted(
            [
                "n_items", "n_blocks", "largest_block", "pairs_total",
                "pairs_within", "pairs_pruned", "pruned_fraction",
            ]
        )

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


class TestLshBlocking:
    @pytest.mark.parametrize("seed", [3, 7])
    def test_recall_of_true_merge_pairs(self, seed):
        """LSH is approximate; the bench audits it, the test floors it."""
        packets = corpus_packets(seed)
        metric = PacketDistance.paper()
        config = BlockingConfig(mode=BlockingMode.LSH, threshold=1.2)
        owner = block_of(assign_blocks(packets, metric, config))
        matrix = distance_matrix(packets, metric)
        caught = missed = 0
        for i in range(len(packets)):
            for j in range(i + 1, len(packets)):
                if matrix.get(i, j) <= config.threshold:
                    if owner[i] == owner[j]:
                        caught += 1
                    else:
                        missed += 1
        assert caught + missed > 0
        assert caught / (caught + missed) >= 0.9

    def test_generic_metric_allowed(self):
        blocker = make_blocker(lambda a, b: abs(a - b), BlockingConfig(mode=BlockingMode.LSH))
        assert isinstance(blocker, LshBlocker)

    def test_shared_destination_key_joins_a_block(self):
        config = BlockingConfig(mode=BlockingMode.LSH)
        blocker = LshBlocker(config)
        blocker.add(0, make_packet(target="/same/path?a=1"))
        blocker.add(1, make_packet(target="/same/path?b=2"))
        assert blocker.find(0) == blocker.find(1)
