"""The SLO engine: error budgets, multi-window burn alerts, replay."""

import json
import threading

import pytest

from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    DEFAULT_SERVICE_OBJECTIVES,
    SHED_BURN_RULES,
    AlertSeverity,
    BurnRule,
    SloEngine,
    SloObjective,
    check_slo_section,
    replay_access_log,
)


class TestObjectiveValidation:
    def test_target_must_be_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                SloObjective("x", kind="availability", target=bad)

    def test_threshold_required_iff_latency(self):
        with pytest.raises(ValueError):
            SloObjective("x", kind="latency", target=0.99)
        with pytest.raises(ValueError):
            SloObjective("x", kind="availability", target=0.99, threshold_ms=10.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloObjective("x", kind="uptime", target=0.99)

    def test_burn_rule_windows_must_nest(self):
        with pytest.raises(ValueError):
            BurnRule(AlertSeverity.PAGE, burn_threshold=2.0, long_window=10, short_window=10)
        with pytest.raises(ValueError):
            BurnRule(AlertSeverity.PAGE, burn_threshold=0.0, long_window=10, short_window=5)

    def test_default_rules_per_kind(self):
        available = SloObjective("a", kind="availability", target=0.999)
        shed = SloObjective("s", kind="shed_rate", target=0.75)
        assert available.burn_rules == DEFAULT_BURN_RULES
        assert shed.burn_rules == SHED_BURN_RULES

    def test_duplicate_objective_names_rejected(self):
        objective = SloObjective("dup", kind="availability", target=0.9)
        with pytest.raises(ValueError):
            SloEngine([objective, objective])


def tiny_engine(target=0.9, rules=None):
    """One availability objective with small windows for fast tests."""
    rules = rules or (
        BurnRule(AlertSeverity.PAGE, burn_threshold=5.0, long_window=20, short_window=5),
    )
    return SloEngine(
        [SloObjective("availability", kind="availability", target=target, rules=rules)]
    )


class TestBudgetAccounting:
    def test_all_good_leaves_budget_untouched(self):
        engine = tiny_engine()
        for _ in range(50):
            engine.record_request(status=200, ms=1.0)
        section = engine.report()["objectives"]["availability"]
        assert section["compliance"] == 1.0
        assert section["budget"]["consumed"] == 0.0
        assert section["budget"]["remaining"] == 1.0
        assert section["ok"] is True

    def test_budget_consumption_is_bad_over_allowance(self):
        engine = tiny_engine(target=0.9)
        for i in range(100):
            engine.record_request(status=500 if i < 5 else 200, ms=1.0)
        section = engine.report()["objectives"]["availability"]
        assert section["bad"] == 5
        assert section["budget"]["allowed_bad"] == pytest.approx(10.0)
        assert section["budget"]["consumed"] == pytest.approx(0.5)
        assert section["ok"] is True

    def test_blown_budget_flips_ok(self):
        engine = tiny_engine(target=0.9)
        for i in range(100):
            engine.record_request(status=500 if i < 20 else 200, ms=1.0)
        section = engine.report()["objectives"]["availability"]
        assert section["compliance"] < 0.9
        assert section["budget"]["consumed"] == pytest.approx(2.0)
        assert section["ok"] is False
        assert engine.report()["ok"] is False

    def test_empty_engine_is_vacuously_compliant(self):
        report = tiny_engine().report()
        assert report["ok"] is True
        assert report["objectives"]["availability"]["total"] == 0
        assert report["objectives"]["availability"]["compliance"] == 1.0

    def test_latency_objective_judges_threshold(self):
        engine = SloEngine(
            [SloObjective("lat", kind="latency", target=0.5, threshold_ms=10.0)]
        )
        engine.record_request(status=200, ms=5.0)
        engine.record_request(status=200, ms=50.0)
        section = engine.report()["objectives"]["lat"]
        assert (section["good"], section["bad"]) == (1, 1)

    def test_shed_objective_only_sees_decisions(self):
        engine = SloEngine([SloObjective("shed", kind="shed_rate", target=0.75)])
        engine.record_request(status=500, ms=1.0)  # ignored by shed kind
        engine.record_decision(shed=True)
        engine.record_decision(shed=False)
        section = engine.report()["objectives"]["shed"]
        assert section["total"] == 2
        assert section["bad"] == 1


class TestBurnAlerts:
    def test_alert_waits_for_full_long_window(self):
        engine = tiny_engine()
        for _ in range(19):
            engine.record_request(status=500, ms=1.0)
        assert engine.report()["page_alerts"] == 0
        engine.record_request(status=500, ms=1.0)  # long window (20) fills
        assert engine.report()["page_alerts"] == 1

    def test_alert_is_edge_triggered_and_rearms(self):
        engine = tiny_engine()
        for _ in range(20):
            engine.record_request(status=500, ms=1.0)
        for _ in range(40):  # burn clears as good traffic flushes the windows
            engine.record_request(status=200, ms=1.0)
        for _ in range(20):  # second incident
            engine.record_request(status=500, ms=1.0)
        report = engine.report()
        assert report["page_alerts"] == 2
        alerts = report["objectives"]["availability"]["alerts"]
        assert [a["severity"] for a in alerts] == ["page", "page"]
        assert alerts[0]["at_event"] < alerts[1]["at_event"]

    def test_short_window_recovery_suppresses_stale_pages(self):
        # Sustained damage in the long window but a clean short window:
        # the incident is over, nobody should be paged.
        rules = (
            BurnRule(AlertSeverity.PAGE, burn_threshold=3.0, long_window=20, short_window=5),
        )
        engine = tiny_engine(rules=rules)
        for _ in range(14):
            engine.record_request(status=500, ms=1.0)
        for _ in range(6):  # recovery: short window all good before long fills
            engine.record_request(status=200, ms=1.0)
        report = engine.report()
        assert report["page_alerts"] == 0

    def test_alert_payload_shape(self):
        engine = tiny_engine()
        for _ in range(20):
            engine.record_request(status=500, ms=1.0)
        (alert,) = engine.report()["objectives"]["availability"]["alerts"]
        assert alert["severity"] == "page"
        assert alert["burn_long"] >= alert["burn_threshold"]
        assert alert["burn_short"] >= alert["burn_threshold"]
        assert (alert["long_window"], alert["short_window"]) == (20, 5)
        assert alert["at_event"] == 20

    def test_page_alert_fails_report_even_if_budget_recovers(self):
        engine = tiny_engine()
        for _ in range(20):
            engine.record_request(status=500, ms=1.0)
        for _ in range(2000):
            engine.record_request(status=200, ms=1.0)
        report = engine.report()
        section = report["objectives"]["availability"]
        assert section["compliance"] >= 0.9  # budget recovered overall
        assert report["page_alerts"] == 1  # but the page is on the record
        assert report["ok"] is False


class TestDeterminismAndReplay:
    def test_same_sequence_same_report(self):
        def run():
            engine = tiny_engine()
            for i in range(500):
                engine.record_request(status=500 if i % 37 == 0 else 200, ms=float(i % 11))
            return engine.report()

        assert json.dumps(run(), sort_keys=True) == json.dumps(run(), sort_keys=True)

    def test_concurrent_recording_matches_serial_totals(self):
        engine = SloEngine(DEFAULT_SERVICE_OBJECTIVES)

        def worker():
            for i in range(200):
                engine.record_request(status=200, ms=1.0)
                engine.record_decision(shed=i % 10 == 0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = engine.report()
        assert report["objectives"]["availability"]["total"] == 800
        assert report["objectives"]["shed_rate"]["total"] == 800
        assert report["objectives"]["shed_rate"]["bad"] == 80

    def test_replay_access_log_rebuilds_the_engine(self, tmp_path):
        path = tmp_path / "access_log.jsonl"
        lines = [{"kind": "run"}]  # non-access header line is skipped
        lines += [
            {"kind": "access", "route": "fetch", "status": 200, "ms": 4.2, "trace_id": None}
            for _ in range(9)
        ]
        lines.append(
            {"kind": "access", "route": "screen", "status": 503, "ms": 1.0, "trace_id": None}
        )
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        report = replay_access_log(path).report()
        availability = report["objectives"]["availability"]
        assert (availability["total"], availability["bad"]) == (10, 1)
        # shed decisions are not in the access log: vacuously compliant
        assert report["objectives"]["shed_rate"]["total"] == 0
        assert report["objectives"]["shed_rate"]["ok"] is True


def healthy_section(**overrides) -> dict:
    engine = SloEngine()
    for _ in range(20):
        engine.record_request(status=200, ms=1.0)
    section = engine.report()
    section.update(overrides)
    return section


class TestCheckSloSection:
    def test_valid_standalone_report_is_clean(self):
        assert check_slo_section(healthy_section()) == []

    def test_failed_objective_is_drift(self):
        section = healthy_section()
        section["objectives"]["availability"]["ok"] = False
        problems = check_slo_section(section)
        assert any("'availability' is not ok" in p for p in problems)

    def test_page_alerts_are_drift(self):
        problems = check_slo_section(healthy_section(page_alerts=1))
        assert any("page-severity" in p for p in problems)

    def test_empty_objectives_are_drift(self):
        problems = check_slo_section(healthy_section(objectives={}))
        assert any("no objectives" in p for p in problems)

    def test_objective_missing_keys_is_drift(self):
        section = healthy_section(objectives={"availability": {"kind": "availability"}})
        assert any("missing 'budget'" in p for p in check_slo_section(section))

    def test_false_verdict_is_drift(self):
        problems = check_slo_section(healthy_section(ok=False))
        assert any("must be true" in p for p in problems)

    def test_non_object_section_is_drift(self):
        assert any("expected an object" in p for p in check_slo_section([1, 2]))
