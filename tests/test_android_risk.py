"""Static permission-risk assessment."""

import pytest

from repro.android.app import Application
from repro.android.permissions import (
    ACCESS_FINE_LOCATION,
    INTERNET,
    Manifest,
    READ_CONTACTS,
    READ_PHONE_STATE,
    VIBRATE,
)
from repro.android.risk import RiskLevel, assess, rank_population, risk_level, summarize


def manifest(*perms):
    return Manifest(package="jp.test.app", permissions=frozenset(perms))


def app_with(*perms, package="jp.test.app"):
    return Application(package=package, manifest=Manifest(package=package, permissions=frozenset(perms)))


class TestRiskLevel:
    def test_no_network_is_none(self):
        assert risk_level(manifest(READ_PHONE_STATE)) is RiskLevel.NONE

    def test_internet_only_is_low(self):
        assert risk_level(manifest(INTERNET)) is RiskLevel.LOW
        assert risk_level(manifest(INTERNET, VIBRATE)) is RiskLevel.LOW

    def test_one_sensitive_category_is_moderate(self):
        assert risk_level(manifest(INTERNET, READ_PHONE_STATE)) is RiskLevel.MODERATE

    def test_two_categories_is_high(self):
        assert risk_level(manifest(INTERNET, READ_PHONE_STATE, ACCESS_FINE_LOCATION)) is RiskLevel.HIGH

    def test_all_three_is_critical(self):
        level = risk_level(
            manifest(INTERNET, READ_PHONE_STATE, ACCESS_FINE_LOCATION, READ_CONTACTS)
        )
        assert level is RiskLevel.CRITICAL

    def test_ordering(self):
        assert RiskLevel.NONE < RiskLevel.LOW < RiskLevel.MODERATE < RiskLevel.CRITICAL


class TestAssess:
    def test_reasons_mention_capabilities(self):
        assessment = assess(app_with(INTERNET, READ_PHONE_STATE))
        text = " ".join(assessment.reasons)
        assert "IMEI" in text
        assert "network" in text

    def test_internet_only_noted(self):
        assessment = assess(app_with(INTERNET))
        assert any("no permission beyond INTERNET" in r for r in assessment.reasons)

    def test_ad_modules_reported(self):
        from repro.android.admodules import ADMAKER
        from repro.android.services import Service

        app = app_with(INTERNET, READ_PHONE_STATE)
        app.services.append(Service(ADMAKER))
        assessment = assess(app)
        assert any("admaker" in r for r in assessment.reasons)


class TestPopulation:
    def test_rank_most_dangerous_first(self):
        apps = [
            app_with(INTERNET, package="jp.low"),
            app_with(INTERNET, READ_PHONE_STATE, ACCESS_FINE_LOCATION, READ_CONTACTS, package="jp.critical"),
            app_with(INTERNET, READ_PHONE_STATE, package="jp.moderate"),
        ]
        ranked = rank_population(apps)
        assert [a.package for a in ranked] == ["jp.critical", "jp.moderate", "jp.low"]

    def test_summarize_matches_table1_proportions(self, small_corpus):
        histogram = summarize(small_corpus.apps)
        total = sum(histogram.values())
        assert total == small_corpus.n_apps
        dangerous = sum(
            count for level, count in histogram.items() if level >= RiskLevel.MODERATE
        )
        # paper: 61% dangerous combinations
        assert dangerous / total == pytest.approx(0.61, abs=0.06)
