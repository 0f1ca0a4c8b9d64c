"""Streaming blocked clustering: attach, compact, and the exactness contract."""

import pytest

from repro.clustering.cut import cut_by_height
from repro.clustering.linkage import Linkage, agglomerate
from repro.core.streaming import StreamingClusterer, StreamingConfig
from repro.distance.blocking import BlockingConfig
from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance
from repro.errors import ClusteringError
from repro.signatures.generator import GeneratorConfig, SignatureGenerator
from repro.signatures.store import SignatureStore
from repro.simulation.corpus import build_corpus, mini_corpus
from tests.conftest import make_packet

THRESHOLD = 1.2


def corpus_packets(seed: int, n: int = 90) -> list:
    corpus = mini_corpus(seed=seed, n_apps=30)
    suspicious, __ = corpus.payload_check().split(corpus.trace)
    assert len(suspicious) >= n
    return list(suspicious[:n])


def full_recluster(packets, linkage=Linkage.GROUP_AVERAGE) -> list[list[int]]:
    matrix = DistanceEngine(PacketDistance.paper()).matrix(packets)
    dendrogram = agglomerate(matrix, linkage)
    return sorted(
        (sorted(dendrogram.leaves(node)) for node in cut_by_height(dendrogram, THRESHOLD)),
        key=lambda cluster: cluster[0],
    )


def streamed(packets, *, linkage=Linkage.GROUP_AVERAGE, batch=30, workers=1,
             compact_every=2) -> StreamingClusterer:
    config = StreamingConfig(
        blocking=BlockingConfig(threshold=THRESHOLD),
        linkage=linkage,
        compact_every=compact_every,
    )
    metric = PacketDistance.paper()
    clusterer = StreamingClusterer(
        metric, config, engine=DistanceEngine(metric, workers=workers, chunk_pairs=64)
    )
    for start in range(0, len(packets), batch):
        clusterer.ingest(packets[start : start + batch])
    return clusterer


class TestConfig:
    def test_ward_is_rejected(self):
        with pytest.raises(ClusteringError):
            StreamingConfig(linkage=Linkage.WARD)

    def test_attach_exemplars_must_be_positive(self):
        with pytest.raises(ClusteringError):
            StreamingConfig(attach_exemplars=0)

    def test_negative_compact_cadence_rejected(self):
        with pytest.raises(ClusteringError):
            StreamingConfig(compact_every=-1)

    def test_zero_cadence_means_manual_compaction(self):
        assert StreamingConfig(compact_every=0).compact_every == 0


class TestExactness:
    """Attach-then-compact must equal a full recluster in exact mode."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_streamed_partition_identical_to_full(self, seed):
        packets = corpus_packets(seed)
        clusterer = streamed(packets)
        clusterer.compact(full=True)
        assert clusterer.partition() == full_recluster(packets)

    @pytest.mark.parametrize("linkage", [Linkage.SINGLE, Linkage.COMPLETE])
    def test_holds_for_every_reducible_linkage(self, linkage):
        packets = corpus_packets(7)
        clusterer = streamed(packets, linkage=linkage)
        clusterer.compact(full=True)
        assert clusterer.partition() == full_recluster(packets, linkage)

    @pytest.mark.parametrize("batch", [15, 45])
    def test_batch_boundaries_do_not_matter(self, batch):
        packets = corpus_packets(3)
        clusterer = streamed(packets, batch=batch)
        clusterer.compact(full=True)
        assert clusterer.partition() == full_recluster(packets)


class TestDeterminism:
    def test_identical_across_worker_counts(self):
        packets = corpus_packets(7)
        serial = streamed(packets, workers=1)
        parallel = streamed(packets, workers=2)
        serial.compact(full=True)
        parallel.compact(full=True)
        assert serial.partition() == parallel.partition()
        assert serial.stats == parallel.stats

    def test_repeat_runs_are_identical(self):
        packets = corpus_packets(3)
        first = streamed(packets)
        second = streamed(packets)
        assert first.partition() == second.partition()
        assert first.stats == second.stats


class TestAttach:
    def test_partition_covers_every_item_exactly_once(self):
        packets = corpus_packets(3)
        clusterer = streamed(packets, compact_every=0)  # attach only
        seen = [item for cluster in clusterer.partition() for item in cluster]
        assert sorted(seen) == list(range(len(packets)))
        assert len(clusterer._cluster_of) == len(packets)

    def test_attach_cost_is_bounded_by_probe_cap(self):
        packets = corpus_packets(3)
        clusterer = streamed(packets, compact_every=0)
        # Attach evaluates at most attach_exemplars pairs per candidate
        # cluster — far below the M-1 a naive incremental scheme needs.
        naive = sum(range(len(packets)))
        assert 0 < clusterer.stats.attach_pairs_evaluated < naive

    def test_attached_plus_new_clusters_accounts_for_items(self):
        packets = corpus_packets(7, n=60)
        clusterer = streamed(packets, compact_every=0)
        assert clusterer.stats.attached + clusterer.stats.new_clusters == len(packets)


class TestCompaction:
    def test_cadence_triggers_automatic_compaction(self):
        packets = corpus_packets(3, n=60)
        config = StreamingConfig(
            blocking=BlockingConfig(threshold=THRESHOLD), compact_every=2
        )
        clusterer = StreamingClusterer(PacketDistance.paper(), config)
        first = clusterer.ingest(packets[:30])
        second = clusterer.ingest(packets[30:])
        assert not first.compacted
        assert second.compacted
        assert clusterer.stats.compactions == 1

    def test_dirty_compaction_converges_to_full(self):
        packets = corpus_packets(3)
        clusterer = streamed(packets, compact_every=1)  # compact every batch
        # Every block is compacted as soon as it is dirtied, so the final
        # state needs no full pass to agree with the reference.
        assert clusterer.partition() == full_recluster(packets)

    def test_compaction_repairs_a_greedy_attach(self):
        # The third packet attaches to the first (0.27 away).  A full
        # recluster then also merges the second: its group average to
        # {first, third} is 1.16, under the threshold, although it is
        # 1.27 from the first alone.  Only compaction can revisit that.
        packets = [
            make_packet(target="/ad?sid=alpha&udid=deadbeef0001&slot=banner"),
            make_packet(
                target="/ad?sid=alpha&udid=deadbeef0001&slot=interstitial",
                cookie="uid=abc123",
            ),
            make_packet(target="/ad?sid=alpha&udid=deadbeef0001&slot=interstitial"),
        ]
        config = StreamingConfig(blocking=BlockingConfig(threshold=THRESHOLD), compact_every=0)
        clusterer = StreamingClusterer(PacketDistance.paper(), config)
        clusterer.ingest(packets)
        assert clusterer.partition() == [[0, 2], [1]]
        clusterer.compact(full=True)
        assert clusterer.partition() == full_recluster(packets) == [[0, 1, 2]]

    def test_compaction_reuses_attach_pairs(self):
        packets = corpus_packets(3, n=60)
        clusterer = streamed(packets, compact_every=2)
        total = clusterer.stream.pairs_evaluated
        stats = clusterer.stats
        assert stats.attach_pairs_evaluated + stats.compact_pairs_evaluated == total
        assert clusterer.stream.cache_hits > 0  # compaction hit attach probes


class TestQuickScaleAudit:
    """Exact mode at smoke scale: 80 packets, then six batches of 40."""

    @pytest.fixture(scope="class")
    def audit(self):
        corpus = build_corpus(n_apps=60, seed=7)
        suspicious, __ = corpus.payload_check().split(corpus.trace)
        packets = list(suspicious[:320])
        assert len(packets) == 320
        config = StreamingConfig(blocking=BlockingConfig(threshold=THRESHOLD), compact_every=4)
        metric = PacketDistance.paper()
        clusterer = StreamingClusterer(metric, config, engine=DistanceEngine(metric, workers=1))
        attach = []  # (batch size, population before, attach pairs)
        for batch in [packets[:80]] + [packets[i : i + 40] for i in range(80, 320, 40)]:
            m_before, pairs_before = len(clusterer.stream), clusterer.stats.attach_pairs_evaluated
            clusterer.ingest(batch)
            pairs = clusterer.stats.attach_pairs_evaluated - pairs_before
            attach.append((len(batch), m_before, pairs))
        clusterer.compact(full=True)
        return packets, clusterer, full_recluster(packets), attach

    def test_signatures_identical_to_full_recluster(self, audit):
        packets, clusterer, full, __ = audit
        assert clusterer.partition() == full
        generator = SignatureGenerator(GeneratorConfig(cut_height=THRESHOLD))

        def signatures(partition):
            return SignatureStore.dumps(
                generator.from_clusters([[packets[i] for i in c] for c in partition])
            )

        assert signatures(clusterer.partition()) == signatures(full)

    def test_evaluates_at_most_sixty_percent_of_pair_space(self, audit):
        packets, clusterer, __, __ = audit
        m = len(packets)
        stats = clusterer.stats
        evaluated = stats.attach_pairs_evaluated + stats.compact_pairs_evaluated
        assert evaluated <= 0.6 * (m * (m - 1) // 2)

    def test_attach_cost_per_packet_stays_flat(self, audit):
        # Per-packet attach pairs in the last batch: at most twice the
        # first extension batch's, and at most a quarter of the
        # population then (a naive incremental scheme pays all of it).
        __, __, __, attach = audit
        (head_size, __, head_pairs), (tail_size, tail_m, tail_pairs) = attach[1], attach[-1]
        assert tail_pairs / tail_size <= 2.0 * head_pairs / head_size
        assert tail_pairs / tail_size <= 0.25 * tail_m
