"""Signature-set analytics: coverage, verbosity, prompt rate."""

import pytest

from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.analysis import (
    coverage_by_label,
    expected_prompt_rate,
    render_coverage,
    verbosity_report,
)
from repro.signatures.conjunction import ConjunctionSignature
from tests.conftest import make_packet


def sig(*tokens, scope=""):
    return ConjunctionSignature(tokens=tokens, scope_domain=scope)


class TestCoverage:
    def test_per_label_recall(self, identity):
        check = PayloadCheck(identity)
        caught = make_packet(host="ads.adnet.com", target=f"/x?imei={identity.imei}&k=tok")
        missed = make_packet(host="ads.other.jp", target=f"/y?aid={identity.android_id}")
        signatures = [sig(f"imei={identity.imei}")]
        rows = coverage_by_label(signatures, [caught, missed], check)
        by_label = {r.label: r for r in rows}
        assert by_label["IMEI"].recall == 1.0
        assert by_label["ANDROID_ID"].recall == 0.0

    def test_render(self, identity):
        check = PayloadCheck(identity)
        packet = make_packet(target=f"/x?imei={identity.imei}")
        rows = coverage_by_label([sig("nomatch===")], [packet], check)
        text = render_coverage(rows)
        assert "IMEI" in text
        assert "0.0%" in text

    def test_corpus_coverage_improves_with_sample(self, small_corpus, small_split):
        from repro.dataset.split import sample_packets
        from repro.eval.crossval import generate_from

        suspicious, __ = small_split
        check = small_corpus.payload_check()
        small = generate_from(sample_packets(suspicious, 20, seed=8))
        large = generate_from(sample_packets(suspicious, 90, seed=8))
        recall = lambda sigs: sum(
            r.detected for r in coverage_by_label(sigs, list(suspicious), check)
        ) / max(1, sum(r.total for r in coverage_by_label(sigs, list(suspicious), check)))
        assert recall(large) >= recall(small) - 0.05


class TestVerbosity:
    def test_risky_flags_short_unscoped(self):
        risky = sig("ab=cd")
        safe_scoped = sig("ab=cd", scope="x.com")
        safe_long = sig("a-very-long-invariant-token=12345")
        reports = {r.signature: r for r in verbosity_report([risky, safe_scoped, safe_long])}
        assert reports[risky].risky
        assert not reports[safe_scoped].risky
        assert not reports[safe_long].risky

    def test_sorted_by_token_mass(self):
        reports = verbosity_report([sig("longertoken=abc"), sig("tiny1")])
        assert reports[0].total_token_length <= reports[1].total_token_length


class TestPromptRate:
    def test_zero_on_clean_traffic(self):
        signatures = [sig("imei=12345")]
        normal = [make_packet(target=f"/n?q={i}") for i in range(10)]
        assert expected_prompt_rate(signatures, normal) == 0.0

    def test_counts_false_fires(self):
        signatures = [sig("page=")]  # over-broad token
        normal = [make_packet(target=f"/n?page={i}") for i in range(4)] + [
            make_packet(target="/other")
        ]
        assert expected_prompt_rate(signatures, normal) == pytest.approx(0.8)

    def test_empty_traffic(self):
        assert expected_prompt_rate([sig("x=1y")], []) == 0.0
