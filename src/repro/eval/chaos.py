"""Chaos sweep: detection quality under an unreliable distribution path.

The Fig-4 bench asks "how good are the signatures?"; this experiment asks
"how much of that quality survives when the server -> device path
fails?".  For each swept fault rate a fleet of simulated devices fetches
the published signature set through a :class:`~repro.reliability.faults.FaultPlan`
(drops, truncation, bit corruption, delays, stale cache reads), then
screens the full labelled dataset with whatever it ended up holding:

- a **fresh** verified envelope (possibly a stale-but-valid older version),
- its **last-known-good** set when every transfer this session failed, or
- the **degraded-mode** keyword baseline when no valid set ever arrived.

The headline property is graceful degradation: mean detection should never
cliff to zero, and should stay above ``TP(0) * (1 - fault_rate)`` — the
floor asserted by ``benchmarks/test_chaos_distribution.py``.

The second sweep (:func:`run_pipeline_chaos_sweep`) targets the *server
side*: the supervised pipeline (:mod:`repro.supervision`) runs under
combined chunk-level worker faults (crash / hang / poison) and injected
inter-stage crashes.  Its headline property is stronger than graceful
degradation — **exact recovery**: at every swept point the recovered run's
condensed distance matrix and signature set must be byte-identical to the
fault-free baseline (``matrix_identical`` / ``signatures_identical``),
asserted by ``benchmarks/test_chaos_pipeline.py`` and the CI chaos job.

Determinism: both sweeps derive from explicit seeds; running them twice
yields identical points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.distribution import FetchStatus, SignatureFetcher
from repro.core.flowcontrol import FlowControlApp
from repro.core.server import ServerConfig, SignatureServer
from repro.errors import SimulationError
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import CircuitBreaker, RetryPolicy
from repro.sensitive.payload_check import PayloadCheck
from repro.service.repository import InMemorySignatureRepository


@dataclass(frozen=True, slots=True)
class ChaosPoint:
    """One fault rate's aggregate outcome across the device fleet.

    Rates are percentages; fractions are in ``[0, 1]`` over devices.
    """

    fault_rate: float
    n_devices: int
    fresh_fraction: float
    cached_fraction: float
    degraded_fraction: float
    tp_percent: float
    fp_percent: float
    mean_attempts: float

    @property
    def reachable_fraction(self) -> float:
        """Devices holding *some* server-generated set (fresh or cached)."""
        return self.fresh_fraction + self.cached_fraction

    def to_dict(self) -> dict:
        return {
            "fault_rate": self.fault_rate,
            "n_devices": self.n_devices,
            "fresh_fraction": round(self.fresh_fraction, 6),
            "cached_fraction": round(self.cached_fraction, 6),
            "degraded_fraction": round(self.degraded_fraction, 6),
            "reachable_fraction": round(self.reachable_fraction, 6),
            "tp_percent": round(self.tp_percent, 6),
            "fp_percent": round(self.fp_percent, 6),
            "mean_attempts": round(self.mean_attempts, 6),
        }


def run_chaos_sweep(
    trace: Iterable,
    check: PayloadCheck,
    rates: Sequence[float],
    n_sample: int = 60,
    n_devices: int = 8,
    seed: int = 0,
    retry: RetryPolicy | None = None,
    detector_mode: str = "conservative",
    workers: int = 1,
) -> list[ChaosPoint]:
    """Sweep fault rates over the distribution path.

    The server ingests ``trace`` once and generates two signature-set
    versions (a half-sample v1, then the full-sample v2).  Per rate, each
    device runs *two* fetch sessions: one while v1 is the latest, one
    after v2 is published.  A device whose second session fails entirely
    keeps screening with its last-known-good v1 (``cached``); a device
    that never completed any session screens with the degraded-mode
    keyword baseline.  Stale-read faults serve a valid-but-older envelope
    — the realistic cost of a lagging cache.  Every device then screens
    the entire labelled dataset.

    :param trace: the full captured dataset.
    :param check: ground-truth labeler for the capture device.
    :param rates: total fault rates to sweep (each in ``[0, 1)``).
    :param n_sample: N for the v2 (current) signature generation.
    :param n_devices: fleet size per rate (>= 1).
    :param seed: determinism root for sampling, faults, and jitter.
    :param retry: device retry policy (default: 3 attempts, fast backoff).
    :param detector_mode: keyword-baseline escalation used in degraded mode.
    :param workers: distance-engine process count for signature generation
        (sweep output is bit-identical for any setting; the default stays
        serial because under a pool the engine's cache counters depend on
        which worker took which chunk).
    :raises SimulationError: when ``n_devices < 1``.
    """
    if n_devices < 1:
        raise SimulationError(f"n_devices must be >= 1, got {n_devices}")
    retry = retry or RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.25)
    server = SignatureServer(check, config=ServerConfig(workers=workers))
    server.ingest(trace)
    v1 = server.generate(max(10, n_sample // 2), seed=seed)
    v2 = server.generate(n_sample, seed=seed + 1)
    suspicious = server.suspicious
    normal = server.normal

    points: list[ChaosPoint] = []
    for rate in rates:
        # Seed derived from the rate itself (not its sweep position) so a
        # point is reproducible regardless of which rates it is swept with.
        plan = FaultPlan.uniform(rate, seed=seed + 7919 * (1 + round(rate * 1000)))
        repository = InMemorySignatureRepository()
        # One plan for the whole fleet: its call counter seeds each fault,
        # so the devices' fetches interleave in one fault stream.
        devices = [
            (
                SignatureFetcher(
                    repository,
                    plan,
                    retry=retry,
                    breaker=CircuitBreaker(failure_threshold=retry.max_attempts, cooldown=8.0),
                    seed=seed,
                    device_id=f"device-{device_index}",
                ),
                FlowControlApp.degraded(mode=detector_mode),
            )
            for device_index in range(n_devices)
        ]
        repository.publish(v1.signatures)
        for fetcher, app in devices:
            fetcher.fetch_into(app)
        repository.publish(v2.signatures)
        statuses: Counter[FetchStatus] = Counter()
        tp_sum = fp_sum = attempts_sum = 0.0
        for fetcher, app in devices:
            result = fetcher.fetch_into(app)
            statuses[result.status] += 1
            attempts_sum += result.attempts
            detected = sum(1 for packet in suspicious if app.screen(packet).flagged)
            false_alarms = sum(1 for packet in normal if app.screen(packet).flagged)
            tp_sum += 100.0 * detected / len(suspicious) if suspicious else 0.0
            fp_sum += 100.0 * false_alarms / len(normal) if normal else 0.0
        points.append(
            ChaosPoint(
                fault_rate=rate,
                n_devices=n_devices,
                fresh_fraction=statuses[FetchStatus.FRESH] / n_devices,
                cached_fraction=statuses[FetchStatus.CACHED] / n_devices,
                degraded_fraction=statuses[FetchStatus.DEGRADED] / n_devices,
                tp_percent=tp_sum / n_devices,
                fp_percent=fp_sum / n_devices,
                mean_attempts=attempts_sum / n_devices,
            )
        )
    return points


def chaos_report(points: Sequence[ChaosPoint]) -> dict:
    """The sweep as one JSON-ready document (``repro chaos --json``)."""
    return {
        "bench": "chaos",
        "n_points": len(points),
        "points": [point.to_dict() for point in points],
    }


def render_chaos(points: Sequence[ChaosPoint]) -> str:
    """A fixed-width table of the sweep, in the repo's report style."""
    lines = [
        "Chaos sweep — detection under distribution faults",
        f"{'fault%':>7} {'fresh':>6} {'cached':>7} {'degr.':>6} "
        f"{'TP%':>6} {'FP%':>6} {'tries':>6}",
    ]
    for point in points:
        lines.append(
            f"{100 * point.fault_rate:>6.0f}% "
            f"{point.fresh_fraction:>6.2f} {point.cached_fraction:>7.2f} "
            f"{point.degraded_fraction:>6.2f} {point.tp_percent:>6.1f} "
            f"{point.fp_percent:>6.1f} {point.mean_attempts:>6.2f}"
        )
    return "\n".join(lines)


# -- pipeline chaos (supervised execution under worker + stage faults) -------------


@dataclass(frozen=True, slots=True)
class PipelineChaosPoint:
    """One chunk-fault rate's supervised-run outcome vs the fault-free baseline.

    ``stages_executed`` counts stage executions across *all* attempts (the
    checkpoint journal length — 7 means no stage ever recomputed);
    ``stages_replayed`` counts checkpoint replays in the final attempt.
    """

    chunk_fault_rate: float
    crash_stages: tuple[str, ...]
    attempts: int
    restarts: int
    recovered: bool
    matrix_identical: bool
    signatures_identical: bool
    chunks_retried: int
    chunks_quarantined: int
    faults_injected: int
    stages_executed: int
    stages_replayed: int

    @property
    def invariant_holds(self) -> bool:
        """The exact-recovery invariant: recovered AND byte-identical outputs."""
        return self.recovered and self.matrix_identical and self.signatures_identical

    def to_dict(self) -> dict:
        return {
            "chunk_fault_rate": self.chunk_fault_rate,
            "crash_stages": list(self.crash_stages),
            "attempts": self.attempts,
            "restarts": self.restarts,
            "recovered": self.recovered,
            "matrix_identical": self.matrix_identical,
            "signatures_identical": self.signatures_identical,
            "invariant_holds": self.invariant_holds,
            "chunks_retried": self.chunks_retried,
            "chunks_quarantined": self.chunks_quarantined,
            "faults_injected": self.faults_injected,
            "stages_executed": self.stages_executed,
            "stages_replayed": self.stages_replayed,
        }


def run_pipeline_chaos_sweep(
    trace: Iterable,
    check: PayloadCheck,
    chunk_rates: Sequence[float],
    crash_stages: Sequence[str] = ("payload_check", "distance_matrix", "cut"),
    n_sample: int = 60,
    seed: int = 0,
    workers: int = 1,
    retry: RetryPolicy | None = None,
    max_restarts: int = 8,
    chunk_pairs: int = 128,
) -> list[PipelineChaosPoint]:
    """Sweep chunk-fault rates over the supervised pipeline.

    A fault-free :class:`~repro.core.pipeline.DetectionPipeline` run
    establishes the baseline (condensed matrix bytes, serialized signature
    set).  Then, per swept rate, a fresh checkpoint store and a
    :class:`~repro.supervision.supervisor.Supervisor` drive the pipeline
    through a seeded :class:`~repro.reliability.workerfaults.WorkerFaultPlan`
    (worker crash / hang / poison at chunk granularity) **and** an
    explicit :class:`~repro.supervision.crash.CrashPlan` that kills the
    run at every stage boundary in ``crash_stages``, once each.  The point
    records whether the run completed, how much recovery it took, and
    whether the outputs came back byte-identical.

    :param trace: the full captured dataset.
    :param check: ground-truth labeler for the capture device.
    :param chunk_rates: total worker-fault rates to sweep (each in ``[0, 1]``).
    :param crash_stages: stage boundaries killed once per supervised run.
    :param n_sample: N for signature generation.
    :param seed: determinism root for sampling, faults, and crash draws.
    :param workers: distance-engine process count (output is bit-identical
        for any setting; the default stays serial because under a pool the
        engine's cache counters depend on which worker took which chunk).
    :param retry: chunk re-dispatch policy (default: engine default).
    :param max_restarts: supervisor crash budget per point.
    :param chunk_pairs: pairs per engine chunk — deliberately small so a
        run spans many chunks and chunk-level faults actually land.
    """
    from repro.core.pipeline import DetectionPipeline, PipelineConfig
    from repro.reliability.workerfaults import WorkerFaultPlan
    from repro.signatures.store import SignatureStore
    from repro.supervision import CheckpointStore, CrashPlan, Supervisor

    config = PipelineConfig(workers=workers)
    baseline = DetectionPipeline(trace, check, config, chunk_pairs=chunk_pairs).run(
        n_sample, seed=seed
    )
    baseline_matrix = baseline.matrix.values.tobytes()
    baseline_signatures = SignatureStore.dumps(baseline.signatures)

    points: list[PipelineChaosPoint] = []
    for rate in chunk_rates:
        # Seed derived from the rate itself (not its sweep position) so a
        # point is reproducible regardless of which rates it is swept with.
        point_seed = seed + 7919 * (1 + round(rate * 1000))
        fault_plan = WorkerFaultPlan.uniform(rate, seed=point_seed) if rate else None
        pipeline = DetectionPipeline(
            trace,
            check,
            config,
            store=CheckpointStore(),
            crash_plan=CrashPlan.after(*crash_stages, seed=point_seed),
            fault_plan=fault_plan,
            retry=retry,
            chunk_pairs=chunk_pairs,
        )
        outcome = Supervisor(pipeline, max_restarts=max_restarts).run(n_sample, seed=seed)
        stats = pipeline.server.engine.stats
        points.append(
            PipelineChaosPoint(
                chunk_fault_rate=rate,
                crash_stages=tuple(crash_stages),
                attempts=outcome.attempts,
                restarts=outcome.restarts,
                recovered=outcome.recovered and stats.recovered,
                matrix_identical=outcome.result.matrix.values.tobytes() == baseline_matrix,
                signatures_identical=(
                    SignatureStore.dumps(outcome.result.signatures) == baseline_signatures
                ),
                chunks_retried=stats.chunks_retried,
                chunks_quarantined=stats.chunks_quarantined,
                faults_injected=stats.faults_injected,
                # Journal length = total stage executions across ALL
                # attempts; exactly 7 proves checkpoints absorbed every
                # re-run.  Replays are from the final (successful) attempt.
                stages_executed=len(pipeline.store.stages),
                stages_replayed=len(outcome.result.stages_replayed),
            )
        )
    return points


# -- federation chaos (crowdsourced ingest under device faults) --------------------


@dataclass(frozen=True, slots=True)
class FederationChaosPoint:
    """One device-fault rate's federation outcome vs the fault-free baseline.

    The headline invariant is **byte-identity**: validation, the dedup
    window, quarantine, and the k-anonymity min-support gate must absorb
    every injected fault class so completely that the federated signature
    set serializes to the same bytes as the fault-free same-seed run.
    """

    fault_rate: float
    n_devices: int
    sends: int
    accepted: int
    rejected_malformed: int
    rejected_duplicate: int
    rejected_replay: int
    rejected_quarantined: int
    shed: int
    quarantine_bans: int
    quarantine_releases: int
    faults_injected: int
    admitted_tokens: int
    n_signatures: int
    signatures_identical: bool
    tokens_identical: bool

    @property
    def invariant_holds(self) -> bool:
        """Byte-identical signatures AND an identical admitted-token set."""
        return self.signatures_identical and self.tokens_identical

    def to_dict(self) -> dict:
        return {
            "fault_rate": self.fault_rate,
            "n_devices": self.n_devices,
            "sends": self.sends,
            "accepted": self.accepted,
            "rejected_malformed": self.rejected_malformed,
            "rejected_duplicate": self.rejected_duplicate,
            "rejected_replay": self.rejected_replay,
            "rejected_quarantined": self.rejected_quarantined,
            "shed": self.shed,
            "quarantine_bans": self.quarantine_bans,
            "quarantine_releases": self.quarantine_releases,
            "faults_injected": self.faults_injected,
            "admitted_tokens": self.admitted_tokens,
            "n_signatures": self.n_signatures,
            "signatures_identical": self.signatures_identical,
            "tokens_identical": self.tokens_identical,
            "invariant_holds": self.invariant_holds,
        }


def run_federation_chaos_sweep(
    corpus,
    rates: Sequence[float],
    n_devices: int = 24,
    reports_per_device: int = 6,
    min_support: int = 2,
    seed: int = 0,
    obs=None,
) -> list["FederationChaosPoint"]:
    """Sweep device-fault rates over the crowdsourced federation round.

    A fault-free :func:`~repro.federation.fleet.run_federation` run with
    the same seed establishes the baseline signature bytes and admitted
    token set; then each swept rate drives the same fleet through a
    :class:`~repro.federation.faults.DeviceFaultPlan` spreading the rate
    across malform / duplicate / replay / poison / flood.  Corpus, device
    substreams, and honest sequence numbers are held fixed — only the
    fault plan varies — so any byte drift is the federation layer's fault.

    :param corpus: the simulated population devices report from.
    :param rates: total device-fault rates to sweep (each in ``[0, 1)``).
    :param n_devices: fleet size per point.
    :param reports_per_device: honest observations per device.
    :param min_support: the k-anonymity gate under test.
    :param seed: determinism root shared by every point.
    :param obs: optional observability bundle threaded into ingest.
    """
    from repro.federation.faults import DeviceFaultPlan
    from repro.federation.fleet import run_federation

    baseline = run_federation(
        corpus,
        seed=seed,
        n_devices=n_devices,
        reports_per_device=reports_per_device,
        min_support=min_support,
        obs=obs,
    )
    points: list[FederationChaosPoint] = []
    for rate in rates:
        # Seed derived from the rate itself (not its sweep position) so a
        # point is reproducible regardless of which rates it is swept with.
        point_seed = seed + 7919 * (1 + round(rate * 1000))
        plan = DeviceFaultPlan.uniform(rate, seed=point_seed) if rate else None
        result = run_federation(
            corpus,
            seed=seed,
            n_devices=n_devices,
            reports_per_device=reports_per_device,
            min_support=min_support,
            fault_plan=plan,
            obs=obs,
        )
        counts = result.ingest_stats["counts"]
        quarantine = result.ingest_stats["quarantine"]
        points.append(
            FederationChaosPoint(
                fault_rate=rate,
                n_devices=n_devices,
                sends=result.sends,
                accepted=result.ingest_stats["accepted"],
                rejected_malformed=counts["rejected_malformed"],
                rejected_duplicate=counts["rejected_duplicate"],
                rejected_replay=counts["rejected_replay"],
                rejected_quarantined=counts["rejected_quarantined"],
                shed=counts["shed_dropped"] + counts["shed_degraded"],
                quarantine_bans=quarantine["bans"],
                quarantine_releases=quarantine["releases"],
                faults_injected=sum(
                    count for kind, count in result.fault_counts.items() if kind != "none"
                ),
                admitted_tokens=len(result.admitted_tokens),
                n_signatures=len(result.signatures),
                signatures_identical=result.signature_bytes == baseline.signature_bytes,
                tokens_identical=result.admitted_tokens == baseline.admitted_tokens,
            )
        )
    return points


def federation_chaos_report(points: Sequence["FederationChaosPoint"]) -> dict:
    """The sweep as one JSON document (``repro chaos --target federation --json``)."""
    return {
        "bench": "chaos_federation",
        "n_points": len(points),
        "invariant_holds": all(point.invariant_holds for point in points),
        "points": [point.to_dict() for point in points],
    }


def render_federation_chaos(points: Sequence["FederationChaosPoint"]) -> str:
    """A fixed-width table of the federation sweep."""
    lines = [
        "Chaos sweep — crowdsourced federation under device faults",
        f"{'fault%':>7} {'sends':>6} {'accept':>7} {'malfrm':>7} {'dup':>6} "
        f"{'replay':>7} {'quar':>5} {'bans':>5} {'tokens':>7} {'sigs':>5}",
    ]
    for point in points:
        lines.append(
            f"{100 * point.fault_rate:>6.0f}% "
            f"{point.sends:>6d} {point.accepted:>7d} {point.rejected_malformed:>7d} "
            f"{point.rejected_duplicate:>6d} {point.rejected_replay:>7d} "
            f"{point.rejected_quarantined:>5d} {point.quarantine_bans:>5d} "
            f"{point.admitted_tokens:>7d} "
            f"{'=' if point.invariant_holds else '!':>5}"
        )
    verdict = "holds" if all(p.invariant_holds for p in points) else "VIOLATED"
    lines.append(f"byte-identity invariant: {verdict} across {len(points)} points")
    return "\n".join(lines)


def pipeline_chaos_report(points: Sequence[PipelineChaosPoint]) -> dict:
    """The sweep as one JSON-ready document (``repro chaos --target pipeline --json``)."""
    return {
        "bench": "chaos_pipeline",
        "n_points": len(points),
        "invariant_holds": all(point.invariant_holds for point in points),
        "points": [point.to_dict() for point in points],
    }


def render_pipeline_chaos(points: Sequence[PipelineChaosPoint]) -> str:
    """A fixed-width table of the supervised-pipeline sweep."""
    lines = [
        "Chaos sweep — supervised pipeline under worker + stage faults",
        f"{'chunk%':>7} {'tries':>6} {'restart':>8} {'retried':>8} "
        f"{'quarant':>8} {'faults':>7} {'matrix':>7} {'sigs':>5}",
    ]
    for point in points:
        lines.append(
            f"{100 * point.chunk_fault_rate:>6.0f}% "
            f"{point.attempts:>6d} {point.restarts:>8d} {point.chunks_retried:>8d} "
            f"{point.chunks_quarantined:>8d} {point.faults_injected:>7d} "
            f"{'=' if point.matrix_identical else '!':>7} "
            f"{'=' if point.signatures_identical else '!':>5}"
        )
    verdict = "holds" if all(p.invariant_holds for p in points) else "VIOLATED"
    lines.append(f"exact-recovery invariant: {verdict} across {len(points)} points")
    return "\n".join(lines)
