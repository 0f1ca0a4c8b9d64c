"""The round-driven arena: attacker vs defender, scored for recovery.

One arena episode per mutation family:

- **round 0** (pre-attack): the boot signature set screens unmutated
  leaking + benign traffic; its recall is the recovery target.
- **rounds 1..N** (attack): the family's :class:`MutationPlan` mutates
  the same leaking packets for that round, the mutants interleave with
  the benign stream (seeded shuffle), and the
  :class:`~repro.serving.gateway.ScreeningGateway` screens the stream —
  applying at most one :class:`ReloadEvent` first, carrying whatever the
  defender republished after the previous round.  Misses (sensitive per
  payload-check ground truth, not flagged) feed
  :meth:`DefenderLoop.observe_misses`, which may republish a regenerated
  set for the *next* round — a one-round detection/regeneration lag, as
  in production.

Scoring, per family, over the attack rounds:

- **rounds-to-recovery** — rounds from evasion onset (recall first drops
  below ``pre - epsilon``) until recall first returns to within
  ``epsilon`` of pre-attack (0 when the family never evaded);
- **evasion half-life** — rounds from peak evasion until the evasion
  rate first falls to half its peak (0.0 when peak evasion <= epsilon);
- **recovered** — no lasting evasion: the final round's recall is within
  ``epsilon`` of pre-attack.

Determinism: every random choice derives from ``(seed, labels)`` via
``derive_rng``; mutations are pure in ``(seed, round, packet)``; the
report contains **no wall-clock fields** (counting metrics only), so the
same seed produces a byte-identical ``BENCH_arena.json`` anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.arena.defender import DefenderConfig, DefenderLoop
from repro.arena.mutations import MutationFamily, MutationPlan, plans_for
from repro.core.pipeline import PipelineConfig
from repro.distance.engine import usable_cpus
from repro.eval.crossval import generate_from
from repro.obs import NULL_OBS, Observability
from repro.serving.gateway import (
    GatewayConfig,
    ReloadEvent,
    ScreeningGateway,
    ServeOutcome,
)
from repro.serving.loadgen import ScreeningEvent
from repro.signatures.generator import GeneratorConfig
from repro.simulation.rng import derive_rng

@dataclass(frozen=True, slots=True)
class ArenaBudget:
    """CI gates for the arena bench (``None`` disables one).

    Everything here is counting-based (rounds, rates per round) — never
    wall clock — so the gates are deterministic per seed.

    :param max_fp_regression: ceiling on how far any attack round's
        benign false-positive rate may exceed the boot set's own
        pre-attack rate — the defender must not buy recall back with
        broader, noisier signatures.
    """

    min_pre_attack_recall: float | None = 0.6
    max_rounds_to_recovery: int | None = 3
    max_evasion_half_life: float | None = 3.0
    max_fp_regression: float | None = 0.02
    require_recovered: bool = True
    require_ground_truth_intact: bool = True

    def violations(self, report: "ArenaReport") -> list[str]:
        found: list[str] = []
        if self.require_ground_truth_intact and not report.ground_truth_intact:
            found.append(
                "a mutated-but-leaking packet escaped payload-check ground truth"
            )
        for name, episode in sorted(report.families.items()):
            pre = episode["pre_attack_recall"]
            if (
                self.min_pre_attack_recall is not None
                and pre < self.min_pre_attack_recall
            ):
                found.append(
                    f"{name}: pre-attack recall {pre:.3f} "
                    f"< {self.min_pre_attack_recall:.3f}"
                )
            if self.require_recovered and not episode["recovered"]:
                found.append(
                    f"{name}: recall not restored within epsilon of "
                    f"pre-attack by the final round"
                )
            recovery = episode["rounds_to_recovery"]
            if self.max_rounds_to_recovery is not None and (
                recovery is None or recovery > self.max_rounds_to_recovery
            ):
                found.append(
                    f"{name}: rounds-to-recovery "
                    f"{'never' if recovery is None else recovery} "
                    f"> {self.max_rounds_to_recovery}"
                )
            half_life = episode["evasion_half_life"]
            if self.max_evasion_half_life is not None and (
                half_life is None or half_life > self.max_evasion_half_life
            ):
                found.append(
                    f"{name}: evasion half-life "
                    f"{'never' if half_life is None else half_life} "
                    f"> {self.max_evasion_half_life}"
                )
            if self.max_fp_regression is not None:
                worst_fp = max(row["fp_rate"] for row in episode["rounds"])
                ceiling = episode["pre_attack_fp_rate"] + self.max_fp_regression
                if worst_fp > ceiling:
                    found.append(
                        f"{name}: benign false-positive rate {worst_fp:.3f} "
                        f"regressed past pre-attack "
                        f"{episode['pre_attack_fp_rate']:.3f} "
                        f"+ {self.max_fp_regression:.3f}"
                    )
        return found

    def to_dict(self) -> dict:
        return {
            "min_pre_attack_recall": self.min_pre_attack_recall,
            "max_rounds_to_recovery": self.max_rounds_to_recovery,
            "max_evasion_half_life": self.max_evasion_half_life,
            "max_fp_regression": self.max_fp_regression,
            "require_recovered": self.require_recovered,
            "require_ground_truth_intact": self.require_ground_truth_intact,
        }


@dataclass(slots=True)
class ArenaReport:
    """One arena run, ready for ``BENCH_arena.json`` (no wall-clock)."""

    n_apps: int
    seed: int
    rounds: int
    epsilon: float
    threshold: float
    train: int
    leak: int
    benign: int
    workers: int
    cpu_count: int
    boot: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    ground_truth_intact: bool = True
    budget: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Whether every family's recall was restored within epsilon."""
        return all(e["recovered"] for e in self.families.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "bench": "arena",
            "corpus": {"n_apps": self.n_apps, "seed": self.seed},
            "seed": self.seed,
            "rounds": self.rounds,
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "traffic": {
                "train": self.train,
                "leak": self.leak,
                "benign": self.benign,
            },
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "boot": self.boot,
            "families": self.families,
            "ground_truth_intact": self.ground_truth_intact,
            "recovered": self.recovered,
            "budget": self.budget,
            "violations": self.violations,
            "ok": self.ok,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    def render(self) -> str:
        """Fixed-width human summary, in the repo's report style."""
        lines = [
            "Arena bench — adversarial evasion vs self-healing regeneration",
            f"  corpus apps={self.n_apps} seed={self.seed} "
            f"train={self.train} leak={self.leak} benign={self.benign}",
            f"  rounds={self.rounds} epsilon={self.epsilon} "
            f"threshold={self.threshold} boot_signatures="
            f"{self.boot.get('n_signatures')} cpus={self.cpu_count}",
        ]
        for name, episode in sorted(self.families.items()):
            recovery = episode["rounds_to_recovery"]
            half_life = episode["evasion_half_life"]
            lines.append(
                f"  {name:<15} pre={episode['pre_attack_recall']:.3f} "
                f"peak_evasion={episode['peak_evasion']:.3f} "
                f"final={episode['final_recall']:.3f} "
                f"recovery={'never' if recovery is None else recovery}r "
                f"half_life={'never' if half_life is None else half_life} "
                f"republishes={episode['republishes']} "
                f"recovered={episode['recovered']}"
            )
        lines.append(
            f"  ground truth intact: {self.ground_truth_intact}  "
            f"recovered: {self.recovered}"
        )
        if self.violations:
            lines.append("  BUDGET VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  budget: ok")
        return "\n".join(lines)


def _recovery_metrics(
    pre: float, ledger: list[dict], epsilon: float
) -> tuple[int | None, float | None, bool]:
    """``(rounds_to_recovery, evasion_half_life, recovered)`` for one episode."""
    recalls = [row["recall"] for row in ledger]
    evasions = [row["evasion_rate"] for row in ledger]
    floor = pre - epsilon
    onset = next((i for i, r in enumerate(recalls) if r < floor), None)
    if onset is None:
        rounds_to_recovery: int | None = 0
    else:
        back = next(
            (i for i, r in enumerate(recalls[onset:], start=onset) if r >= floor),
            None,
        )
        rounds_to_recovery = None if back is None else back - onset
    peak = max(evasions, default=0.0)
    if peak <= epsilon:
        half_life: float | None = 0.0
    else:
        r_peak = evasions.index(peak)
        decayed = next(
            (
                i
                for i, e in enumerate(evasions[r_peak:], start=r_peak)
                if e <= peak / 2.0
            ),
            None,
        )
        half_life = None if decayed is None else float(decayed - r_peak)
    recovered = bool(recalls) and recalls[-1] >= floor
    return rounds_to_recovery, half_life, recovered


def _screen_round(
    gateway: ScreeningGateway,
    leak_packets: list,
    benign_packets: list,
    *,
    seed: int,
    family: str,
    round_no: int,
    reloads: Sequence[ReloadEvent] = (),
) -> tuple[int, int, list]:
    """Screen one interleaved round; ``(flagged_leaks, flagged_benign, misses)``.

    The leak/benign interleave is a seeded shuffle so batches mix both
    populations; every arrival is admitted (capacity covers the round),
    so each verdict comes from the full sharded matcher.
    """
    rng = derive_rng(seed, "arena", family, "interleave", str(round_no))
    combined = [(True, packet) for packet in leak_packets] + [
        (False, packet) for packet in benign_packets
    ]
    rng.shuffle(combined)
    events = [
        ScreeningEvent(
            seq=i, tick=float(i), device_id=f"dev-{i % 11:02d}", packet=packet
        )
        for i, (__, packet) in enumerate(combined)
    ]
    results = gateway.run(events, reloads)
    flagged_leaks = 0
    flagged_benign = 0
    misses = []
    for (is_leak, packet), result in zip(combined, results):
        flagged = result.outcome is ServeOutcome.FLAGGED
        if is_leak:
            flagged_leaks += int(flagged)
            if not flagged:
                misses.append(packet)
        else:
            flagged_benign += int(flagged)
    return flagged_leaks, flagged_benign, misses


def run_arena(
    *,
    n_apps: int = 120,
    seed: int = 0,
    rounds: int = 6,
    train: int = 160,
    leak: int = 96,
    benign: int = 128,
    families: Sequence[MutationFamily | str] | None = None,
    epsilon: float = 0.05,
    threshold: float = 1.2,
    max_cached_pairs: int = 50_000,
    workers: int = 1,
    budget: ArenaBudget | None = None,
    obs: Observability | None = None,
) -> ArenaReport:
    """Run the full attacker-vs-defender sweep; one episode per family.

    Deterministic per ``(n_apps, seed, sizes)``: corpus, boot set,
    mutations, interleave and defender behaviour all derive from the
    seed, and the report carries no wall-clock fields — double runs are
    byte-identical.
    """
    from repro.simulation.corpus import build_corpus

    obs = obs or NULL_OBS
    budget = budget or ArenaBudget()
    chosen: list[MutationFamily] = [
        f if isinstance(f, MutationFamily) else MutationFamily(f)
        for f in (families if families is not None else list(MutationFamily))
    ]

    corpus = build_corpus(n_apps=n_apps, seed=seed)
    check = corpus.payload_check()
    suspicious, normal = check.split(corpus.trace)
    if len(suspicious) < train + leak:
        raise ValueError(
            f"corpus has {len(suspicious)} suspicious packets, need "
            f"{train + leak} (train+leak); raise n_apps"
        )
    if len(normal) < benign:
        raise ValueError(
            f"corpus has {len(normal)} normal packets, need {benign}"
        )
    train_packets = suspicious[:train]
    leak_packets = suspicious[train : train + leak]
    benign_packets = normal[:benign]

    with obs.span("arena_boot", track="arena", train=train):
        boot = generate_from(
            train_packets,
            PipelineConfig(
                generator=GeneratorConfig(cut_height=threshold), workers=workers
            ),
        )

    plans = plans_for(check, seed=seed, families=chosen)
    gateway_config = GatewayConfig(
        queue_capacity=max(64, leak + benign), batch_size=16
    )
    defender_config = DefenderConfig(
        threshold=threshold, max_cached_pairs=max_cached_pairs, workers=workers
    )

    families_out: dict[str, dict] = {}
    ground_truth_intact = True
    for plan in plans:
        name = plan.family.value
        with obs.span("arena_family", track="arena", family=name, rounds=rounds):
            episode, intact = _run_episode(
                plan,
                boot,
                check,
                leak_packets,
                benign_packets,
                rounds=rounds,
                seed=seed,
                epsilon=epsilon,
                gateway_config=gateway_config,
                defender_config=defender_config,
                obs=obs,
            )
        families_out[name] = episode
        ground_truth_intact = ground_truth_intact and intact
        obs.inc("arena_families")

    report = ArenaReport(
        n_apps=n_apps,
        seed=seed,
        rounds=rounds,
        epsilon=epsilon,
        threshold=threshold,
        train=train,
        leak=leak,
        benign=benign,
        workers=workers,
        cpu_count=usable_cpus(),
        boot={"n_signatures": len(boot), "set_version": 1},
        families=families_out,
        ground_truth_intact=ground_truth_intact,
        budget=budget.to_dict(),
    )
    report.violations = budget.violations(report)
    return report


def _run_episode(
    plan: MutationPlan,
    boot,
    check,
    leak_packets: list,
    benign_packets: list,
    *,
    rounds: int,
    seed: int,
    epsilon: float,
    gateway_config: GatewayConfig,
    defender_config: DefenderConfig,
    obs: Observability,
) -> tuple[dict, bool]:
    """One family's attacker-vs-defender episode; ``(episode, gt_intact)``."""
    name = plan.family.value
    defender = DefenderLoop(boot, defender_config, obs=obs)
    gateway = ScreeningGateway(
        boot, gateway_config, set_version=1, run_id=f"arena-{name}"
    )

    n_leak = len(leak_packets)
    n_benign = len(benign_packets)
    flagged, pre_fp, __ = _screen_round(
        gateway, leak_packets, benign_packets,
        seed=seed, family=name, round_no=0,
    )
    pre_recall = flagged / n_leak if n_leak else 1.0
    ledger: list[dict] = []
    intact = True

    for round_no in range(1, rounds + 1):
        mutants = plan.mutate_all(leak_packets, round_no)
        detected = sum(1 for mutant in mutants if check.is_sensitive(mutant))
        intact = intact and detected == len(mutants)
        reloads = []
        if defender.repository.latest_version() > gateway.set_version:
            reloads.append(ReloadEvent(tick=0.0, envelope=defender.latest_envelope))
        with obs.span(
            "arena_round", track="arena", family=name, round=round_no
        ):
            flagged, fp, misses = _screen_round(
                gateway, mutants, benign_packets,
                seed=seed, family=name, round_no=round_no, reloads=reloads,
            )
            defense = defender.observe_misses(misses, round_no)
        recall = flagged / n_leak if n_leak else 1.0
        obs.inc("arena_rounds")
        obs.inc("arena_misses", len(misses))
        ledger.append(
            {
                "round": round_no,
                "recall": round(recall, 6),
                "evasion_rate": round(1.0 - recall, 6),
                "fp_rate": round(fp / n_benign if n_benign else 0.0, 6),
                "misses": len(misses),
                "ground_truth_detected": detected,
                "set_version_screened": gateway.set_version,
                "miss_clusters": defense.miss_clusters,
                "signatures_regenerated": defense.regenerated,
                "set_size": defense.set_size,
                "published_version": defense.published_version,
                "pair_cache_size": defense.pair_cache_size,
                "pair_cache_evictions": defense.pair_cache_evictions,
            }
        )

    recovery, half_life, recovered = _recovery_metrics(pre_recall, ledger, epsilon)
    episode = {
        "family": name,
        "pre_attack_recall": round(pre_recall, 6),
        "pre_attack_fp_rate": round(pre_fp / n_benign if n_benign else 0.0, 6),
        "final_recall": ledger[-1]["recall"] if ledger else round(pre_recall, 6),
        "peak_evasion": max((row["evasion_rate"] for row in ledger), default=0.0),
        "rounds_to_recovery": recovery,
        "evasion_half_life": half_life,
        "recovered": recovered,
        "republishes": sum(
            1 for row in ledger if row["published_version"] is not None
        ),
        "final_set_version": gateway.set_version,
        "final_set_size": ledger[-1]["set_size"] if ledger else len(boot),
        "reloads_applied": gateway.metrics.counters.get("reloads_applied", 0),
        "ground_truth_intact": intact,
        "pair_cache": {
            "bound": defender_config.max_cached_pairs,
            "final_size": ledger[-1]["pair_cache_size"] if ledger else 0,
            "evictions": ledger[-1]["pair_cache_evictions"] if ledger else 0,
        },
        "rounds": ledger,
    }
    return episode, intact
