"""Adversarial evasion arena: seeded attackers vs a self-healing defender.

The paper generates conjunction signatures once; this package closes the
loop it leaves open.  :mod:`repro.arena.mutations` is the attacker — a
taxonomy of seeded, pure packet mutations that re-shape leaking traffic
to dodge the deployed signature set while (by construction) keeping the
leak detectable by payload-check ground truth.  :mod:`repro.arena.defender`
is the defense — screening misses feed a :class:`StreamingClusterer`,
regenerated signatures merge with the base set and hot-republish through
a :class:`SignatureRepository` into the :class:`ScreeningGateway`.
:mod:`repro.arena.harness` drives attacker-vs-defender rounds per mutation
family and scores recovery (``repro arena``, ``BENCH_arena.json``).
"""

from repro.arena.defender import DefenderConfig, DefenderLoop, DefenderRound
from repro.arena.harness import ArenaBudget, ArenaReport, run_arena
from repro.arena.mutations import (
    MutationFamily,
    MutationPlan,
    packet_fingerprint,
    plans_for,
    tenant_pool,
)

__all__ = [
    "ArenaBudget",
    "ArenaReport",
    "DefenderConfig",
    "DefenderLoop",
    "DefenderRound",
    "MutationFamily",
    "MutationPlan",
    "packet_fingerprint",
    "plans_for",
    "run_arena",
    "tenant_pool",
]
