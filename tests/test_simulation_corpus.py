"""Corpus builder: determinism and paper-shape calibration bands.

The bench files assert the full-scale numbers; these tests run on the
shared 60-app corpus plus a slightly larger one and check the *shape*
invariants that must hold at any scale.
"""

import pytest

from repro.dataset.stats import fanout_summary, sensitive_table
from repro.simulation.corpus import (
    PAPER_SENSITIVE_FRACTION,
    PAPER_TABLE2,
    PAPER_TABLE3,
    build_corpus,
    mini_corpus,
)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = mini_corpus(seed=3, n_apps=30)
        b = mini_corpus(seed=3, n_apps=30)
        assert len(a.trace) == len(b.trace)
        assert [p.request.target for p in a.trace] == [p.request.target for p in b.trace]
        assert a.device.identity == b.device.identity

    def test_different_seed_different_corpus(self):
        a = mini_corpus(seed=3, n_apps=30)
        b = mini_corpus(seed=4, n_apps=30)
        assert [p.request.target for p in a.trace] != [p.request.target for p in b.trace]


class TestShape:
    def test_every_app_sends_traffic(self, small_corpus):
        assert len({p.app_id for p in small_corpus.trace}) == small_corpus.n_apps

    def test_sensitive_fraction_band(self, small_corpus, small_split):
        suspicious, __ = small_split
        fraction = len(suspicious) / len(small_corpus.trace)
        assert fraction == pytest.approx(PAPER_SENSITIVE_FRACTION, abs=0.08)

    def test_packet_volume_scales(self, small_corpus):
        per_app = len(small_corpus.trace) / small_corpus.n_apps
        # paper: 107859 / 1188 = 90.8 packets per app
        assert per_app == pytest.approx(90.8, rel=0.25)

    def test_fanout_mean_band(self, small_corpus):
        summary = fanout_summary(small_corpus.trace)
        assert summary.mean == pytest.approx(7.9, abs=2.0)

    def test_multi_destination_dominates(self, small_corpus):
        summary = fanout_summary(small_corpus.trace)
        # paper: 93% of apps connect to multiple destinations
        assert summary.single_fraction < 0.2

    def test_hashed_android_id_is_top_leak(self, small_corpus, small_split):
        check = small_corpus.payload_check()
        rows = {r.label: r.packets for r in sensitive_table(small_corpus.trace, check)}
        assert rows.get("ANDROID_ID MD5", 0) >= max(
            rows.get("IMSI", 0), rows.get("SIM_SERIAL", 0)
        )
        assert rows.get("ANDROID_ID", 0) > rows.get("SIM_SERIAL", 0)

    def test_ad_domains_receive_sensitive_traffic(self, small_corpus, small_split):
        suspicious, __ = small_split
        domains = {p.destination.registered_domain for p in suspicious}
        assert domains & {"ad-maker.info", "doubleclick.net", "admob.com", "nend.net"}

    def test_table2_domains_present(self, small_corpus):
        domains = {p.destination.registered_domain for p in small_corpus.trace}
        expected = set(PAPER_TABLE2)
        # At 5% scale the rarest services may miss a draw; most must appear.
        assert len(domains & expected) >= len(expected) * 0.7

    def test_table3_labels_covered_at_scale(self):
        corpus = build_corpus(n_apps=240, seed=2)
        check = corpus.payload_check()
        labels = {r.label for r in sensitive_table(corpus.trace, check)}
        assert labels >= set(PAPER_TABLE3) - {"IMSI", "SIM_SERIAL"}  # rarest may need full scale

    def test_payload_check_bound_to_device(self, small_corpus):
        check = small_corpus.payload_check()
        assert check.identity == small_corpus.device.identity
