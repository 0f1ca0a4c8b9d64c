"""Baselines: keyword regexes, exact-match memorization, pipeline variants."""

import pytest

from repro.baselines.exactmatch import ExactMatchDetector
from repro.baselines.keyword import KeywordDetector
from repro.baselines.variants import VARIANTS, ablation_config, run_variant
from repro.errors import ReproError
from tests.conftest import make_packet


class TestKeywordDetector:
    def test_catches_named_parameter(self):
        detector = KeywordDetector()
        assert detector.is_sensitive(make_packet(target="/x?imei=358537041234567"))

    def test_catches_imei_shape_without_name(self):
        detector = KeywordDetector()
        assert detector.is_sensitive(make_packet(target="/x?d=358537041234567"))

    def test_conservative_misses_android_id_shape(self):
        detector = KeywordDetector()
        assert not detector.is_sensitive(make_packet(target="/x?z=a1b2c3d4e5f60718"))

    def test_standard_catches_android_id_shape(self):
        detector = KeywordDetector("standard")
        assert detector.is_sensitive(make_packet(target="/x?z=a1b2c3d4e5f60718"))

    def test_standard_collides_with_session_tokens(self):
        detector = KeywordDetector("standard")
        assert detector.is_sensitive(make_packet(cookie="sid=0123456789abcdef"))

    def test_catches_carrier_name(self):
        detector = KeywordDetector()
        assert detector.is_sensitive(make_packet(body=b"op=SoftBank"))

    def test_misses_hashed_id_below_aggressive(self):
        md5ish = "d41d8cd98f00b204e9800998ecf8427e"
        for mode in ("conservative", "standard"):
            assert not KeywordDetector(mode).is_sensitive(
                make_packet(target=f"/x?z={md5ish}")
            )

    def test_aggressive_catches_hash_shapes(self):
        detector = KeywordDetector("aggressive")
        md5ish = "d41d8cd98f00b204e9800998ecf8427e"
        assert detector.is_sensitive(make_packet(target=f"/x?z={md5ish}"))

    def test_aggressive_false_positives_on_tokens(self):
        # A random 32-hex session token is indistinguishable from an MD5.
        detector = KeywordDetector("aggressive")
        assert detector.is_sensitive(make_packet(cookie="sid=0123456789abcdef0123456789abcdef"))

    def test_clean_traffic_passes(self):
        detector = KeywordDetector()
        assert not detector.is_sensitive(make_packet(target="/news?page=3"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            KeywordDetector("yolo")

    def test_evaluate_rates(self):
        detector = KeywordDetector()
        suspicious = [make_packet(target="/x?imei=358537041234567")] * 3
        normal = [make_packet(target="/n?q=1")] * 7
        tp, fp = detector.evaluate(suspicious, normal)
        assert tp == 1.0
        assert fp == 0.0

    def test_on_corpus_escalation_tradeoff(self, small_corpus, small_split):
        """The motivating comparison: each escalation step buys recall with
        false positives; signatures escape the trade-off entirely."""
        suspicious, normal = small_split
        tp_c, fp_c = KeywordDetector("conservative").evaluate(list(suspicious), list(normal))
        tp_s, fp_s = KeywordDetector("standard").evaluate(list(suspicious), list(normal))
        tp_a, fp_a = KeywordDetector("aggressive").evaluate(list(suspicious), list(normal))
        assert tp_c <= tp_s <= tp_a
        assert fp_c <= fp_s <= fp_a
        assert tp_a > 0.9  # shapes catch nearly everything...
        assert fp_a > 0.2  # ...by flagging every random token too


class TestExactMatch:
    def test_detects_only_memorized(self):
        train = [make_packet(target="/x?imei=1&ts=111")]
        detector = ExactMatchDetector(train)
        assert detector.is_sensitive(make_packet(target="/x?imei=1&ts=111"))
        assert not detector.is_sensitive(make_packet(target="/x?imei=1&ts=222"))

    def test_near_zero_recall_on_fresh_traffic(self, small_corpus, small_split):
        suspicious, __ = small_split
        train = list(suspicious)[:30]
        detector = ExactMatchDetector(train)
        fresh = list(suspicious)[30:]
        recall = sum(detector.is_sensitive(p) for p in fresh) / max(1, len(fresh))
        assert recall < 0.2  # timestamps/tokens change every request

    def test_evaluate_n_corrected(self):
        train = [make_packet(target=f"/x?imei=1&i={i}") for i in range(3)]
        suspicious = train + [make_packet(target="/x?imei=1&i=99")]
        normal = [make_packet(target=f"/n?q={i}") for i in range(10)]
        detector = ExactMatchDetector(train)
        tp, fp = detector.evaluate(suspicious, normal, n_sample=3)
        assert tp == 0.0  # only the memorized three matched
        assert fp == 0.0


class TestVariants:
    def test_all_named_variants_resolve(self):
        for name in VARIANTS:
            config = ablation_config(name)
            assert config.distance.destination_weight + config.distance.content_weight > 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError):
            ablation_config("nonsense")

    def test_destination_only_variant_runs(self, small_corpus):
        result = run_variant(
            small_corpus.trace, small_corpus.payload_check(), "destination_only", 30, seed=1
        )
        assert result.signatures is not None
        assert 0.0 <= result.metrics.true_positive_rate <= 1.0

    def test_paper_variant_beats_exact_match_baseline(self, small_corpus, small_split):
        suspicious, normal = small_split
        result = run_variant(small_corpus.trace, small_corpus.payload_check(), "paper", 40, seed=1)
        train = list(suspicious)[:40]
        exact = ExactMatchDetector(train)
        exact_tp, __ = exact.evaluate(list(suspicious), list(normal), n_sample=40)
        assert result.metrics.true_positive_rate > exact_tp + 0.3
