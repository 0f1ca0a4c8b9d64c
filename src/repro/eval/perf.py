"""Perf bench harness: a machine-readable timing of the §IV hot paths.

The paper's pipeline cost is dominated by the M(M-1)/2 pairwise distance
build; :func:`run_perf_bench` times that build three ways — the legacy
serial loop (:func:`repro.distance.matrix.distance_matrix`), the engine
in-process, and the engine across a worker pool — then times linkage and
matcher screening, verifies the three matrices are **bit-identical**, and
returns a :class:`PerfReport` that serializes to ``BENCH_perf.json``.

Two speedups are reported:

- ``engine_vs_naive`` — the decomposition/caching win, visible on any
  hardware (unique-value component caches shrink the per-pair work);
- ``parallel_vs_serial`` — the fan-out win, which requires actual cores:
  :class:`PerfBudget` only enforces its floor when the host has at least
  as many CPUs as the bench requested workers, and the report always
  records ``cpu_count`` so a one-core container's numbers are not read
  as a regression.

CI runs ``repro bench --quick`` and fails the build when the parallel
matrix diverges from the serial one, keeping ``BENCH_perf.json`` an
honest trajectory of both correctness and speed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.clustering.linkage import Linkage, agglomerate
from repro.distance.engine import DistanceEngine, usable_cpus
from repro.distance.matrix import distance_matrix
from repro.distance.packet import PacketDistance
from repro.obs import Observability
from repro.signatures.generator import GeneratorConfig, SignatureGenerator
from repro.signatures.matcher import SignatureMatcher


def cpu_count() -> int:
    """Usable CPU count, as the distance engine resolves ``workers=0``.

    Shared by the perf and serving benches so their reports agree on what
    hardware a number was produced on.
    """
    return usable_cpus()


@dataclass(frozen=True, slots=True)
class PerfBudget:
    """Floors the bench enforces (``None`` disables a gate).

    :param min_parallel_speedup: required parallel-over-serial matrix
        speedup — enforced only when the host has at least as many CPUs
        as the bench used workers (a one-core box cannot show fan-out).
    :param min_engine_speedup: required engine-over-naive serial speedup
        (the caching/decomposition win; hardware-independent).
    :param min_pair_hit_rate: required component-cache hit rate.
    :param max_matrix_seconds: wall-clock ceiling on the parallel build.
    """

    min_parallel_speedup: float | None = 2.0
    min_engine_speedup: float | None = 1.5
    min_pair_hit_rate: float | None = 0.5
    max_matrix_seconds: float | None = None

    def violations(self, report: "PerfReport") -> list[str]:
        """Which gates the report fails (identity is always enforced)."""
        found: list[str] = []
        if not report.identical:
            found.append("parallel matrix diverges from serial matrix")
        if (
            self.min_parallel_speedup is not None
            and report.cpu_count >= report.workers
            and report.parallel_speedup < self.min_parallel_speedup
        ):
            found.append(
                f"parallel speedup {report.parallel_speedup:.2f}x "
                f"< {self.min_parallel_speedup:.2f}x"
            )
        if (
            self.min_engine_speedup is not None
            and report.engine_speedup < self.min_engine_speedup
        ):
            found.append(
                f"engine speedup {report.engine_speedup:.2f}x "
                f"< {self.min_engine_speedup:.2f}x"
            )
        if self.min_pair_hit_rate is not None:
            hit_rate = report.engine_stats.get("pair_hit_rate", 0.0)
            if hit_rate < self.min_pair_hit_rate:
                found.append(
                    f"pair-cache hit rate {hit_rate:.2f} < {self.min_pair_hit_rate:.2f}"
                )
        if (
            self.max_matrix_seconds is not None
            and report.matrix_parallel_s > self.max_matrix_seconds
        ):
            found.append(
                f"parallel matrix {report.matrix_parallel_s:.2f}s "
                f"> {self.max_matrix_seconds:.2f}s budget"
            )
        return found

    def to_dict(self) -> dict:
        return {
            "min_parallel_speedup": self.min_parallel_speedup,
            "min_engine_speedup": self.min_engine_speedup,
            "min_pair_hit_rate": self.min_pair_hit_rate,
            "max_matrix_seconds": self.max_matrix_seconds,
        }


@dataclass(slots=True)
class PerfReport:
    """One bench run, ready for ``BENCH_perf.json``."""

    n_apps: int
    m: int
    n_pairs: int
    workers: int
    cpu_count: int
    seed: int
    matrix_naive_s: float
    matrix_serial_s: float
    matrix_parallel_s: float
    linkage_s: float
    screen_s: float
    screened_packets: int
    n_signatures: int
    identical: bool
    engine_stats: dict = field(default_factory=dict)
    parallel_stats: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    cache_counters: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    budget: dict = field(default_factory=dict)

    @property
    def parallel_speedup(self) -> float:
        """Engine-serial over engine-parallel wall clock."""
        return self.matrix_serial_s / self.matrix_parallel_s if self.matrix_parallel_s else 0.0

    @property
    def engine_speedup(self) -> float:
        """Legacy serial loop over engine-serial wall clock."""
        return self.matrix_naive_s / self.matrix_serial_s if self.matrix_serial_s else 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "bench": "perf",
            "corpus": {"n_apps": self.n_apps, "seed": self.seed},
            "m": self.m,
            "n_pairs": self.n_pairs,
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "timings_s": {
                "matrix_naive": round(self.matrix_naive_s, 4),
                "matrix_serial": round(self.matrix_serial_s, 4),
                "matrix_parallel": round(self.matrix_parallel_s, 4),
                "linkage": round(self.linkage_s, 4),
                "screen": round(self.screen_s, 4),
            },
            "throughput": {
                "pairs_per_s_serial": round(self.n_pairs / self.matrix_serial_s)
                if self.matrix_serial_s
                else 0,
                "pairs_per_s_parallel": round(self.n_pairs / self.matrix_parallel_s)
                if self.matrix_parallel_s
                else 0,
                "packets_screened_per_s": round(self.screened_packets / self.screen_s)
                if self.screen_s
                else 0,
            },
            "speedup": {
                "parallel_vs_serial": round(self.parallel_speedup, 2),
                "engine_vs_naive": round(self.engine_speedup, 2),
            },
            "identical": self.identical,
            "n_signatures": self.n_signatures,
            "stages": self.stages,
            "cache": self.engine_stats,
            "cache_parallel": self.parallel_stats,
            "cache_counters": self.cache_counters,
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
            "Perf bench — distance engine and matcher hot paths",
            f"  corpus apps={self.n_apps} M={self.m} pairs={self.n_pairs} "
            f"workers={self.workers} cpus={self.cpu_count}",
            f"  {'stage':<18} {'seconds':>9}",
            f"  {'matrix naive':<18} {self.matrix_naive_s:>9.3f}",
            f"  {'matrix serial':<18} {self.matrix_serial_s:>9.3f}",
            f"  {'matrix parallel':<18} {self.matrix_parallel_s:>9.3f}",
            f"  {'linkage':<18} {self.linkage_s:>9.3f}",
            f"  {'screen':<18} {self.screen_s:>9.3f}",
            f"  engine vs naive : {self.engine_speedup:.2f}x",
            f"  parallel speedup: {self.parallel_speedup:.2f}x "
            f"({'hardware-gated' if self.cpu_count < self.workers else 'enforced'})",
            f"  pair-cache hit rate: {self.engine_stats.get('pair_hit_rate', 0.0):.2%}",
            f"  matrices identical : {self.identical}",
        ]
        if self.violations:
            lines.append("  BUDGET VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  budget: ok")
        return "\n".join(lines)


def run_perf_bench(
    *,
    n_apps: int = 300,
    sample: int = 200,
    workers: int = 4,
    seed: int = 7,
    screen_packets: int = 4000,
    budget: PerfBudget | None = None,
) -> PerfReport:
    """Time the pipeline hot paths on a synthetic corpus.

    Deterministic for a given ``(n_apps, sample, seed)``: the same packets
    are sampled and the same signatures generated on every run (timings,
    of course, vary with the host).
    """
    # Local import: corpus simulation sits above eval in some layerings.
    from repro.simulation.corpus import build_corpus

    budget = budget or PerfBudget()
    corpus = build_corpus(n_apps=n_apps, seed=seed)
    suspicious, __ = corpus.payload_check().split(corpus.trace)
    packets = suspicious[: min(sample, len(suspicious))]
    m = len(packets)

    # The bench doubles as the observability demo for timed stages: a
    # wall-clock tracer wraps each section so BENCH_perf.json carries a
    # ``stages`` rollup (tick + wall totals) next to the raw timings.
    obs = Observability.create(
        seed=seed,
        config={"bench": "perf", "n_apps": n_apps, "sample": sample, "workers": workers},
        wall_clock=True,
    )
    n_pairs = m * (m - 1) // 2

    clock = time.perf_counter
    with obs.span("matrix_naive", track="bench", n_pairs=n_pairs):
        t0 = clock()
        naive = distance_matrix(packets, PacketDistance.paper())
        matrix_naive_s = clock() - t0
        obs.advance(n_pairs)

    serial_engine = DistanceEngine(PacketDistance.paper(), workers=1, obs=obs)
    with obs.span("matrix_serial", track="bench", n_pairs=n_pairs):
        t0 = clock()
        serial = serial_engine.matrix(packets)
        matrix_serial_s = clock() - t0

    parallel_engine = DistanceEngine(PacketDistance.paper(), workers=workers, obs=obs)
    with obs.span("matrix_parallel", track="bench", n_pairs=n_pairs):
        t0 = clock()
        parallel = parallel_engine.matrix(packets)
        matrix_parallel_s = clock() - t0

    identical = bool(
        np.array_equal(naive.values, serial.values)
        and np.array_equal(serial.values, parallel.values)
    )

    with obs.span("linkage", track="bench", n_items=m):
        t0 = clock()
        dendrogram = agglomerate(serial, Linkage.GROUP_AVERAGE)
        linkage_s = clock() - t0
        obs.advance(max(0, m - 1))

    signatures = SignatureGenerator(GeneratorConfig()).from_dendrogram(dendrogram, packets)
    matcher = SignatureMatcher(signatures)
    screened = corpus.trace.packets[: min(screen_packets, len(corpus.trace))]
    with obs.span("screen", track="bench", n_packets=len(screened)):
        t0 = clock()
        matcher.screen(screened)
        screen_s = clock() - t0
        obs.advance(len(screened))

    report = PerfReport(
        n_apps=n_apps,
        m=m,
        n_pairs=n_pairs,
        workers=workers,
        cpu_count=cpu_count(),
        seed=seed,
        matrix_naive_s=matrix_naive_s,
        matrix_serial_s=matrix_serial_s,
        matrix_parallel_s=matrix_parallel_s,
        linkage_s=linkage_s,
        screen_s=screen_s,
        screened_packets=len(screened),
        n_signatures=len(signatures),
        identical=identical,
        engine_stats=serial_engine.stats.to_dict(),
        parallel_stats=parallel_engine.stats.to_dict(),
        stages=obs.profile().to_dict(),
        cache_counters={
            name: count
            for name, count in sorted(obs.metrics.counters.items())
            if name.startswith("engine_")
        },
        budget=budget.to_dict(),
    )
    report.violations = budget.violations(report)
    return report
