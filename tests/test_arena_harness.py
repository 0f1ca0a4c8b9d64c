"""The arena harness: recovery scoring, budgets, and byte-identical replay."""

import json
from pathlib import Path

import pytest

from repro.arena.harness import (
    ArenaBudget,
    ArenaReport,
    _recovery_metrics,
    run_arena,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def assert_verdict_holds(report: dict) -> None:
    """The recovery verdict every kept arena report must carry."""
    assert report["bench"] == "arena"
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["recovered"] is True
    assert report["ground_truth_intact"] is True
    assert report["families"]
    for name, episode in report["families"].items():
        assert episode["recovered"] is True, name
        assert episode["ground_truth_intact"] is True, name


def ledger(recalls, evasions=None):
    evasions = evasions or [round(1.0 - r, 6) for r in recalls]
    return [
        {"round": i + 1, "recall": r, "evasion_rate": e}
        for i, (r, e) in enumerate(zip(recalls, evasions))
    ]


class TestRecoveryMetrics:
    def test_never_evaded(self):
        recovery, half_life, recovered = _recovery_metrics(
            0.9, ledger([0.9, 0.88, 0.9], evasions=[0.0, 0.02, 0.0]),
            epsilon=0.05,
        )
        assert recovery == 0
        assert half_life == 0.0
        assert recovered

    def test_onset_and_recovery_counted_in_rounds(self):
        # onset at round index 1, back within epsilon at index 3 -> 2 rounds
        recovery, half_life, recovered = _recovery_metrics(
            0.9, ledger([0.9, 0.2, 0.5, 0.88]), epsilon=0.05
        )
        assert recovery == 2
        assert recovered
        # peak evasion 0.8 at index 1, first <= 0.4 at index 3 -> 2 rounds
        assert half_life == 2.0

    def test_never_recovers(self):
        recovery, __, recovered = _recovery_metrics(
            0.9, ledger([0.2, 0.3, 0.4]), epsilon=0.05
        )
        assert recovery is None
        assert not recovered

    def test_half_life_never_reached(self):
        __, half_life, __ = _recovery_metrics(
            0.9, ledger([0.1, 0.2, 0.3]), epsilon=0.05
        )
        assert half_life is None

    def test_empty_ledger_is_not_recovered(self):
        recovery, half_life, recovered = _recovery_metrics(0.9, [], epsilon=0.05)
        assert recovery == 0
        assert half_life == 0.0
        assert not recovered


def episode(**overrides):
    base = {
        "family": "padding_chaff",
        "pre_attack_recall": 0.9,
        "pre_attack_fp_rate": 0.1,
        "final_recall": 0.9,
        "peak_evasion": 0.5,
        "rounds_to_recovery": 1,
        "evasion_half_life": 1.0,
        "recovered": True,
        "rounds": [{"fp_rate": 0.1}],
    }
    base.update(overrides)
    return base


def report_with(episodes, **overrides):
    report = ArenaReport(
        n_apps=10, seed=0, rounds=3, epsilon=0.05, threshold=1.2,
        train=10, leak=5, benign=5, workers=1, cpu_count=1,
        families=episodes,
    )
    for name, value in overrides.items():
        setattr(report, name, value)
    return report


class TestBudget:
    def test_clean_report_has_no_violations(self):
        assert ArenaBudget().violations(report_with({"a": episode()})) == []

    def test_low_pre_attack_recall(self):
        found = ArenaBudget().violations(
            report_with({"a": episode(pre_attack_recall=0.3)})
        )
        assert any("pre-attack recall" in v for v in found)

    def test_unrecovered_family(self):
        found = ArenaBudget().violations(
            report_with({"a": episode(recovered=False)})
        )
        assert any("not restored" in v for v in found)

    def test_slow_recovery_and_never(self):
        budget = ArenaBudget(max_rounds_to_recovery=2)
        assert budget.violations(
            report_with({"a": episode(rounds_to_recovery=5)})
        )
        assert any(
            "never" in v
            for v in budget.violations(
                report_with({"a": episode(rounds_to_recovery=None)})
            )
        )

    def test_half_life_over_budget(self):
        found = ArenaBudget(max_evasion_half_life=1.0).violations(
            report_with({"a": episode(evasion_half_life=4.0)})
        )
        assert any("half-life" in v for v in found)

    def test_fp_regression_is_relative_to_pre_attack(self):
        # 0.12 is fine against a 0.10 pre-attack rate with a 0.02 ceiling...
        clean = ArenaBudget().violations(
            report_with({"a": episode(rounds=[{"fp_rate": 0.12}])})
        )
        assert clean == []
        # ...but 0.13 regresses.
        found = ArenaBudget().violations(
            report_with({"a": episode(rounds=[{"fp_rate": 0.13}])})
        )
        assert any("false-positive" in v for v in found)

    def test_broken_ground_truth(self):
        found = ArenaBudget().violations(
            report_with({"a": episode()}, ground_truth_intact=False)
        )
        assert any("ground truth" in v for v in found)

    def test_disabled_gates_do_not_fire(self):
        budget = ArenaBudget(
            min_pre_attack_recall=None, max_rounds_to_recovery=None,
            max_evasion_half_life=None, max_fp_regression=None,
            require_recovered=False,
        )
        bad = episode(
            pre_attack_recall=0.1, recovered=False, rounds_to_recovery=None,
            evasion_half_life=None, rounds=[{"fp_rate": 0.9}],
        )
        assert budget.violations(report_with({"a": bad})) == []


ARENA_KW = dict(
    n_apps=40, seed=5, rounds=3, train=72, leak=32, benign=48,
    families=["padding_chaff", "header_reorder"],
)


@pytest.fixture(scope="module")
def small_report():
    return run_arena(**ARENA_KW)


class TestRunArena:
    def test_double_run_is_byte_identical(self, small_report):
        replay = run_arena(**ARENA_KW)
        a = json.dumps(small_report.to_dict(), indent=2, sort_keys=True)
        b = json.dumps(replay.to_dict(), indent=2, sort_keys=True)
        assert a == b

    def test_families_recover(self, small_report):
        assert small_report.ground_truth_intact
        assert small_report.recovered
        assert small_report.ok, small_report.violations
        for episode in small_report.families.values():
            assert episode["recovered"]
            assert episode["rounds_to_recovery"] is not None
            assert len(episode["rounds"]) == small_report.rounds

    def test_defense_actually_engaged(self, small_report):
        """The verdict must come from healing, not from a toothless attack."""
        assert any(
            episode["peak_evasion"] > small_report.epsilon
            and episode["republishes"] >= 1
            and episode["reloads_applied"] >= 1
            for episode in small_report.families.values()
        )

    def test_report_verdict_holds(self, small_report):
        assert_verdict_holds(small_report.to_dict())

    def test_committed_report_verdict_holds(self):
        committed = json.loads((REPO_ROOT / "BENCH_arena.json").read_text(encoding="utf-8"))
        assert_verdict_holds(committed)

    def test_save_round_trips(self, small_report, tmp_path):
        path = small_report.save(tmp_path / "BENCH_arena.json")
        assert json.loads(path.read_text()) == small_report.to_dict()

    def test_render_mentions_every_family(self, small_report):
        text = small_report.render()
        for name in small_report.families:
            assert name in text

    def test_family_can_be_passed_as_string_or_enum(self):
        from repro.arena.mutations import MutationFamily

        with pytest.raises(ValueError):
            run_arena(n_apps=40, families=["no_such_family"])
        # enum members are accepted verbatim (validated before any work)
        assert MutationFamily("padding_chaff") is MutationFamily.PADDING_CHAFF

    def test_undersized_corpus_is_rejected(self):
        with pytest.raises(ValueError):
            run_arena(n_apps=4, train=5000, leak=10, benign=10)
