"""Incremental signature-set maintenance over traffic batches."""


from repro.core.incremental import IncrementalSignatureSet
from repro.signatures.conjunction import ConjunctionSignature
from tests.conftest import make_packet


def module_packet(module, seq, token="tokval"):
    return make_packet(
        host=f"ads.{module}.com",
        ip="198.51.100.9",
        target=f"/{module}/imp?sid={token}&udid=deadbeef112233{module[:2]}&seq={seq}",
    )


class TestUpdate:
    def test_first_batch_creates_signatures(self):
        incset = IncrementalSignatureSet()
        batch = [module_packet("alpha", i) for i in range(8)]
        report = incset.update(batch)
        assert report.batch_size == 8
        assert report.already_covered == 0
        assert report.added
        assert len(incset) > 0

    def test_covered_packets_skipped(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        size_before = len(incset)
        report = incset.update([module_packet("alpha", i) for i in range(8, 16)])
        assert report.already_covered == 8
        assert report.residue == 0
        assert len(incset) == size_before

    def test_new_module_extends_set(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        report = incset.update([module_packet("beta", i) for i in range(8)])
        assert report.residue == 8
        assert report.added
        domains = {s.scope_domain for s in incset.signatures}
        assert "alpha.com" in domains and "beta.com" in domains

    def test_small_residue_carried_over(self):
        incset = IncrementalSignatureSet(min_residue=6)
        report = incset.update([module_packet("alpha", i) for i in range(3)])
        assert not report.added
        assert len(incset._carryover) == 3
        # Next batch adds enough mass; carryover is consumed.
        report = incset.update([module_packet("alpha", i) for i in range(3, 8)])
        assert report.added
        assert len(incset._carryover) == 0

    def test_matcher_reflects_current_set(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        fresh = module_packet("alpha", 999)
        assert incset.matcher().is_sensitive(fresh)


class TestRetirement:
    def test_unfired_signatures_retired(self):
        stale = ConjunctionSignature(tokens=("neverseen=zzz",), scope_domain="dead.com")
        incset = IncrementalSignatureSet([stale])
        incset.update([module_packet("alpha", i) for i in range(8)])
        retired = incset.retire_unmatched(min_matches=1)
        assert stale in retired
        assert stale not in incset.signatures

    def test_active_signatures_kept(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        incset.update([module_packet("alpha", i) for i in range(8, 14)])  # fires
        retired = incset.retire_unmatched(min_matches=1)
        assert not any(s.scope_domain == "alpha.com" for s in retired)

    def test_updates_count_matches_per_signature(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        incset.update([module_packet("alpha", i) for i in range(8, 12)])
        counts = incset._match_counts
        assert sum(counts.values()) == 4


def arrivals(incset):
    """Packets the next consolidation takes in, in arrival order."""
    return list(incset._carryover) + [
        packet for packets in incset._exemplars.values() for packet in packets
    ]


class TestConsolidationMaterial:
    def test_material_retained_across_consolidations(self):
        incset = IncrementalSignatureSet()
        incset.update([module_packet("alpha", i) for i in range(8)])
        incset.update([module_packet("alpha", i) for i in range(8, 16)])  # exemplars
        incset.consolidate()
        first = len(incset._material)
        assert first >= 6
        incset.update([module_packet("beta", i) for i in range(8)])
        incset.update([module_packet("beta", i) for i in range(8, 16)])
        incset.consolidate()
        # Earlier material is still in the pool.
        assert len(incset._material) > first

    def test_material_bounded_by_cap(self):
        incset = IncrementalSignatureSet(max_consolidation_material=10)
        incset.update([module_packet("alpha", i) for i in range(8)])
        incset.update([module_packet("alpha", i) for i in range(8, 16)])
        incset.consolidate()
        incset.update([module_packet("beta", i) for i in range(8)])
        incset.update([module_packet("beta", i) for i in range(8, 16)])
        incset.consolidate()
        assert len(incset._material) <= 10

    def test_consolidation_below_mass_is_a_noop(self):
        incset = IncrementalSignatureSet(min_residue=6)
        incset.update([module_packet("alpha", i) for i in range(3)])
        assert incset.consolidate() == 0
        assert len(incset._material) == 0

    def test_window_is_newest_material_clustered_in_full(self, monkeypatch):
        """Each consolidation clusters the newest ``max_consolidation_material``
        packets in arrival order, over the engine's full matrix of them."""
        import numpy as np

        from repro.core import incremental
        from repro.distance.engine import DistanceEngine
        from repro.distance.packet import PacketDistance

        clustered = []

        def recording_agglomerate(matrix, linkage):
            clustered.append(matrix)
            return agglomerate(matrix, linkage)

        agglomerate = incremental.agglomerate
        monkeypatch.setattr(incremental, "agglomerate", recording_agglomerate)
        incset = IncrementalSignatureSet(max_consolidation_material=12)
        expected: list = []
        for module in ("alpha", "beta", "gamma"):
            incset.update([module_packet(module, i) for i in range(8)])
            incset.update([module_packet(module, i) for i in range(8, 16)])
            expected = (expected + arrivals(incset))[-12:]
            incset.consolidate()
            assert incset._material == expected
            reference = DistanceEngine(PacketDistance.paper()).matrix(expected)
            assert np.array_equal(clustered[-1].values, reference.values)
        assert len(clustered) == 3
        # The window overflowed: the first module's packets aged out.
        assert len(expected) == 12
        assert not any(packet.host == "ads.alpha.com" for packet in expected)


class TestOnCorpus:
    def test_streaming_matches_batch_quality(self, small_corpus, small_split):
        """Feeding the suspicious group in batches converges to a set with
        recall comparable to one-shot generation on the same data."""
        from repro.eval.crossval import generate_from
        from repro.signatures.matcher import SignatureMatcher

        suspicious, __ = small_split
        packets = list(suspicious)
        incset = IncrementalSignatureSet()
        chunk = 60
        for start in range(0, min(300, len(packets)), chunk):
            incset.update(packets[start : start + chunk])
        evaluate = lambda m: sum(m.is_sensitive(p) for p in packets) / len(packets)
        streaming_recall_before = evaluate(incset.matcher())
        incset.consolidate()
        streaming_recall_after = evaluate(incset.matcher())
        oneshot_recall = evaluate(SignatureMatcher(generate_from(packets[:300])))
        # Consolidation strictly helps (union-merge cannot lose coverage)...
        assert streaming_recall_after >= streaming_recall_before
        # ...and lands within a bounded gap of one-shot generation — the
        # residual difference is the price of bounded memory over
        # app-sequential batches (documented in the module docstring).
        assert streaming_recall_after >= oneshot_recall - 0.25
