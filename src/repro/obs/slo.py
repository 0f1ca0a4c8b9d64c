"""Service-level objectives with error budgets and burn-rate alerts.

An :class:`SloObjective` reduces every question — availability, tail
latency, shed rate — to the same shape: over a stream of events, the
fraction judged *good* must stay at or above ``target``.  That
uniformity buys one error-budget ledger and one alerting rule for all of
them:

- **error budget** — with target ``t`` over ``N`` events, up to
  ``(1 - t) * N`` bad events are tolerable; the budget *consumed* is the
  observed bad count divided by that allowance (>1 means the objective
  is blown).
- **burn rate** — ``bad_fraction / (1 - t)`` over a sliding window: the
  speed at which the budget is being spent (1.0 = exactly on budget).
- **multi-window alerts** — the Google SRE workbook construction: a
  :class:`BurnRule` fires only when the burn rate exceeds its threshold
  over *both* a long window (sustained damage) and a short window (still
  happening now), which suppresses both one-off blips and stale pages.

Windows are event-counted, never wall-clock, so the engine is a pure
function of the recorded sequence — replaying the same requests yields
byte-identical reports.  The engine is lock-protected so concurrent
load-generator threads can record into it live.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable


class AlertSeverity(str, Enum):
    """How urgently a burn alert should be treated."""

    PAGE = "page"
    TICKET = "ticket"


@dataclass(frozen=True, slots=True)
class BurnRule:
    """One multi-window burn-rate alerting rule.

    :param burn_threshold: minimum burn rate (budget multiples) that must
        hold over **both** windows for the alert to fire.
    :param long_window: event count establishing sustained damage; the
        rule stays silent until this window has filled once.
    :param short_window: event count confirming the burn is current.
    """

    severity: AlertSeverity
    burn_threshold: float
    long_window: int
    short_window: int

    def __post_init__(self) -> None:
        if self.burn_threshold <= 0:
            raise ValueError(f"burn_threshold must be positive, got {self.burn_threshold}")
        if self.short_window <= 0 or self.long_window <= self.short_window:
            raise ValueError(
                f"need 0 < short_window < long_window, got "
                f"{self.short_window} / {self.long_window}"
            )


#: The classic fast-burn page + slow-burn ticket pair (SRE workbook ch.5),
#: sized in events rather than hours.
DEFAULT_BURN_RULES = (
    BurnRule(AlertSeverity.PAGE, burn_threshold=14.4, long_window=1024, short_window=128),
    BurnRule(AlertSeverity.TICKET, burn_threshold=6.0, long_window=4096, short_window=512),
)

#: Shedding budgets are loose (25%), so budget-multiple thresholds must be
#: small: paging needs >80% of traffic shed, sustained.
SHED_BURN_RULES = (
    BurnRule(AlertSeverity.PAGE, burn_threshold=3.2, long_window=2048, short_window=256),
    BurnRule(AlertSeverity.TICKET, burn_threshold=2.0, long_window=4096, short_window=512),
)

_KINDS = ("availability", "latency", "shed_rate")


@dataclass(frozen=True, slots=True)
class SloObjective:
    """One objective: the good fraction of events must reach ``target``.

    :param kind: picks the good-event predicate — ``availability``
        (status < 500), ``latency`` (duration ≤ ``threshold_ms``; a 0.99
        target is exactly "p99 under threshold"), or ``shed_rate`` (a
        screening decision that was not shed).
    :param target: required good fraction, strictly inside (0, 1) so the
        error budget is always a positive allowance.
    :param threshold_ms: latency cutoff, required iff ``kind="latency"``.
    :param rules: burn-rate alerting rules (defaults per kind).
    """

    name: str
    kind: str
    target: float
    threshold_ms: float | None = None
    rules: tuple[BurnRule, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; expected one of {_KINDS}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if (self.kind == "latency") != (self.threshold_ms is not None):
            raise ValueError("threshold_ms is required for latency objectives and only them")
        if self.threshold_ms is not None and self.threshold_ms <= 0:
            raise ValueError(f"threshold_ms must be positive, got {self.threshold_ms}")

    @property
    def burn_rules(self) -> tuple[BurnRule, ...]:
        if self.rules is not None:
            return self.rules
        return SHED_BURN_RULES if self.kind == "shed_rate" else DEFAULT_BURN_RULES


#: The service's objectives: three nines of availability, p99 wall-ms
#: under 2 s (generous, so CI runners have headroom), and at least 75% of
#: screening decisions admitted.
DEFAULT_SERVICE_OBJECTIVES = (
    SloObjective("availability", kind="availability", target=0.999),
    SloObjective("latency_p99", kind="latency", target=0.99, threshold_ms=2000.0),
    SloObjective("shed_rate", kind="shed_rate", target=0.75),
)


class _SlidingWindow:
    """Bad-event counter over the last ``size`` events."""

    __slots__ = ("size", "_ring", "bad")

    def __init__(self, size: int) -> None:
        self.size = size
        self._ring: deque[bool] = deque(maxlen=size)
        self.bad = 0

    def push(self, good: bool) -> None:
        if len(self._ring) == self.size and not self._ring[0]:
            self.bad -= 1
        self._ring.append(good)
        if not good:
            self.bad += 1

    @property
    def filled(self) -> bool:
        return len(self._ring) == self.size

    @property
    def bad_fraction(self) -> float:
        return self.bad / len(self._ring) if self._ring else 0.0


class ObjectiveTracker:
    """Counts, windows, and alert state for one objective."""

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.good = 0
        self.total = 0
        self.alerts: list[dict[str, Any]] = []
        self._windows = {
            size: _SlidingWindow(size)
            for rule in objective.burn_rules
            for size in (rule.long_window, rule.short_window)
        }
        self._active: set[BurnRule] = set()

    def record(self, good: bool) -> None:
        self.total += 1
        if good:
            self.good += 1
        for window in self._windows.values():
            window.push(good)
        budget_fraction = 1.0 - self.objective.target
        for rule in self.objective.burn_rules:
            long_w = self._windows[rule.long_window]
            if not long_w.filled:
                continue
            burn_long = long_w.bad_fraction / budget_fraction
            burn_short = self._windows[rule.short_window].bad_fraction / budget_fraction
            firing = burn_long >= rule.burn_threshold and burn_short >= rule.burn_threshold
            if firing and rule not in self._active:
                self._active.add(rule)
                self.alerts.append(
                    {
                        "severity": rule.severity.value,
                        "burn_threshold": rule.burn_threshold,
                        "burn_long": round(burn_long, 4),
                        "burn_short": round(burn_short, 4),
                        "long_window": rule.long_window,
                        "short_window": rule.short_window,
                        "at_event": self.total,
                    }
                )
            elif not firing:
                self._active.discard(rule)

    @property
    def bad(self) -> int:
        return self.total - self.good

    def snapshot(self) -> dict[str, Any]:
        """The objective's report section (JSON-ready, deterministic)."""
        obj = self.objective
        compliance = self.good / self.total if self.total else 1.0
        allowed_bad = (1.0 - obj.target) * self.total
        consumed = self.bad / allowed_bad if allowed_bad > 0 else 0.0
        pages = sum(1 for a in self.alerts if a["severity"] == AlertSeverity.PAGE.value)
        section: dict[str, Any] = {
            "kind": obj.kind,
            "target": obj.target,
            "good": self.good,
            "total": self.total,
            "bad": self.bad,
            "compliance": round(compliance, 6),
            "budget": {
                "allowed_bad": round(allowed_bad, 3),
                "bad": self.bad,
                "consumed": round(consumed, 4),
                "remaining": round(1.0 - consumed, 4),
            },
            "alerts": list(self.alerts),
            "ok": compliance >= obj.target and pages == 0,
        }
        if obj.threshold_ms is not None:
            section["threshold_ms"] = obj.threshold_ms
        return section


class SloEngine:
    """Live SLO evaluation over a stream of request/decision events.

    Thread-safe so load-generator workers record concurrently; the report
    is a pure function of the recorded event sequence (no wall clock).
    """

    def __init__(self, objectives: Iterable[SloObjective] = DEFAULT_SERVICE_OBJECTIVES) -> None:
        self._trackers: dict[str, ObjectiveTracker] = {}
        for objective in objectives:
            if objective.name in self._trackers:
                raise ValueError(f"duplicate objective name {objective.name!r}")
            self._trackers[objective.name] = ObjectiveTracker(objective)
        self._lock = threading.Lock()

    def record_request(self, *, status: int, ms: float) -> None:
        """Feed one served request to the availability/latency objectives."""
        with self._lock:
            for tracker in self._trackers.values():
                kind = tracker.objective.kind
                if kind == "availability":
                    tracker.record(status < 500)
                elif kind == "latency":
                    tracker.record(ms <= tracker.objective.threshold_ms)

    def record_decision(self, *, shed: bool) -> None:
        """Feed one screening decision to the shed-rate objectives."""
        with self._lock:
            for tracker in self._trackers.values():
                if tracker.objective.kind == "shed_rate":
                    tracker.record(not shed)

    def report(self) -> dict[str, Any]:
        """The full SLO report: per-objective sections plus the verdict.

        ``ok`` is the CI gate: every objective within budget and zero
        page-severity burn alerts across all of them.
        """
        with self._lock:
            objectives = {name: t.snapshot() for name, t in self._trackers.items()}
        pages = sum(
            1
            for section in objectives.values()
            for alert in section["alerts"]
            if alert["severity"] == AlertSeverity.PAGE.value
        )
        tickets = sum(
            1
            for section in objectives.values()
            for alert in section["alerts"]
            if alert["severity"] == AlertSeverity.TICKET.value
        )
        return {
            "objectives": objectives,
            "page_alerts": pages,
            "ticket_alerts": tickets,
            "ok": pages == 0 and all(s["ok"] for s in objectives.values()),
        }


def replay_access_log(
    path: str | Path, objectives: Iterable[SloObjective] = DEFAULT_SERVICE_OBJECTIVES
) -> SloEngine:
    """Rebuild an :class:`SloEngine` from a service access log.

    Access-log lines carry request-level facts only, so this drives the
    availability and latency objectives; shed-rate objectives stay empty
    (vacuously compliant) because per-decision outcomes live in screen
    response bodies, not the access log.
    """
    engine = SloEngine(objectives)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") != "access":
            continue
        engine.record_request(status=int(record["status"]), ms=float(record["ms"]))
    return engine


def check_slo_section(section: object) -> list[str]:
    """Problems with one SLO report section; empty when it passes.

    A passing report shows every objective inside its error budget and
    zero page-severity burn alerts.
    """
    problems: list[str] = []
    if not isinstance(section, dict):
        return [f"slo section is {type(section).__name__}, expected an object"]
    objectives = section.get("objectives")
    if not isinstance(objectives, dict) or not objectives:
        problems.append("slo section carries no objectives")
    else:
        for name in sorted(objectives):
            objective = objectives[name]
            if not isinstance(objective, dict):
                problems.append(f"slo objective {name!r} is not an object")
                continue
            for key in ("kind", "target", "compliance", "budget", "alerts", "ok"):
                if key not in objective:
                    problems.append(f"slo objective {name!r} missing {key!r}")
            if objective.get("ok") is not True:
                problems.append(f"slo objective {name!r} is not ok")
    if section.get("page_alerts") != 0:
        problems.append(
            f"slo section carries {section.get('page_alerts')!r} page-severity burn alerts"
        )
    if section.get("ok") is not True:
        problems.append(f"slo verdict 'ok' is {section.get('ok')!r}, must be true")
    return problems
