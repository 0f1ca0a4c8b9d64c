"""The four benchmark workloads; each run is one process.

Usage: ``python3 -m bench.workloads WORKLOAD --seed N --seconds S --result FILE
[--quick] [--traced] [--verify]``.  :mod:`bench.run` starts one of these per
workload and reads the JSON written to FILE.

All workloads share one fixed corpus (300 apps, corpus seed 7), as the
paper's dataset is fixed; ``--seed`` draws what varies between runs: the
clustered sample (``generate``), the arrival order inside each batch
(``stream``) and the request streams (``screen``, ``fleet``).  Drawing the
corpus itself from the seed would move the cost of a run by 10-35% from
seed to seed, far more than the bounds the benchmark gates on.

Every workload sets up several times, runs a timed phase sized by
``--seconds``, and checks its outputs.  Every run samples the
:mod:`bench.speed` probe and reports times scaled to its reference CPU.
``--traced`` adds the per-layer rollup of :mod:`bench.trace` spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from bench import loadgen
from bench.layers import layer_metrics
from bench.loadgen import percentile
from bench.speed import SpeedProbe
from bench.trace import (
    Tracer,
    as_dicts,
    layer_rollup,
    load_spans,
    rollup,
    self_by_parent,
    within,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
clock = time.perf_counter

CORPUS_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metric -> unit.  The operation behind the latency and
#: throughput figures differs per workload (see bench/README.md).
E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput": "1/s",
}

#: Input sizes (full run, ``--quick`` smoke run), and the detection-quality
#: band ``generate`` must meet on seeds without golden outputs.
SIZES = {
    False: {"apps": 300, "generate_m": 1024, "base": 256, "batch": 128, "batches": 14,
            "boot_m": 200, "tp_floor": 95.0, "fp_ceiling": 3.0},
    True: {"apps": 60, "generate_m": 128, "base": 64, "batch": 32, "batches": 6,
           "boot_m": 60, "tp_floor": 70.0, "fp_ceiling": 4.0},
}

STREAM_THRESHOLD = 1.2
STREAM_COMPACT_EVERY = 4
#: Streams per run, at least.  A stream takes 9-12 s, so on a slow spell
#: only one fit in 20 s, and the median batch latency of one stream read
#: 44-50 ms over five such runs, against 44-45 ms over five runs of two.
STREAM_MIN_UNITS = 2
#: Blocks up to this size are re-clustered from scratch on every stream run.
SPOT_BLOCK_MAX = 48

#: Service load: open-loop rate, and the closed-loop rate the request pool
#: is sized for, above any capacity measured (the phase ends on time, or
#: early if the pool runs out).
SERVICE_LOAD = {
    "screen": {"rate": 200.0, "pool_rps": 1200.0},
    "fleet": {"rate": 400.0, "pool_rps": 2000.0},
}
#: Share of ``--seconds`` spent in the open loop; the rest is closed loop.
OPEN_SHARE = 1 / 2
#: Each phase is cut into this many equal windows; a service metric is the
#: median of its per-window values, so a slow spell of a second or two on a
#: shared host moves a window or two, not the result.
WINDOWS = 10
PUBLISH_EVERY_S = 5.0
PROBE_EVENTS = 64


@dataclass(frozen=True, slots=True)
class Settings:
    workload: str
    seed: int
    seconds: float
    quick: bool
    traced: bool
    verify: bool
    workdir: Path

    @property
    def size(self) -> dict[str, float]:
        return SIZES[self.quick]

    @property
    def golden_key(self) -> str:
        """Size, plus the run length for the service workloads, whose
        request count (and so the digest of all replies) grows with it."""
        key = "quick" if self.quick else "full"
        return f"{key}@{self.seconds:g}s" if self.workload in SERVICE_LOAD else key


class Result:
    """What one workload run reports back to :mod:`bench.run`."""

    def __init__(self, settings: Settings) -> None:
        self.settings = settings
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, dict[str, float]] = {}
        self.outputs: dict[str, Any] = {}
        self.layers: dict[str, float] = {}
        self.tails: dict[str, float] = {}  # p90_ms and p99_ms: reported, not gated
        self.work_s = 0.0  # scaled time per unit of work; traced / untraced = overhead
        self.notes: dict[str, Any] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def metric(self, name: str, value: float, n: int) -> None:
        self.e2e[name] = {"value": float(value), "unit": E2E_UNITS[name], "n": int(n)}

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.settings.workload,
            "seed": self.settings.seed,
            "quick": self.settings.quick,
            "traced": self.settings.traced,
            "seconds": self.settings.seconds,
            "correct": bool(self.checks) and all(self.checks.values()),
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.e2e,
            "outputs": self.outputs,
            "layers": self.layers,
            "tails": self.tails,
            "work_s": self.work_s,
            "notes": self.notes,
        }


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _golden(settings: Settings) -> dict[str, Any] | None:
    """Stored outputs for this seed (``"*"``: outputs every seed must produce)."""
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    by_seed = table.get(settings.workload, {}).get(settings.golden_key, {})
    return by_seed.get(str(settings.seed), by_seed.get("*"))


def _check_golden(result: Result) -> bool:
    """Compare outputs with the golden ones; ``False`` when none are stored."""
    golden = _golden(result.settings)
    if golden is not None:
        result.check("golden_outputs", golden == result.outputs)
    return golden is not None


def _corpus(settings: Settings):
    from repro.simulation.corpus import build_corpus

    return build_corpus(n_apps=settings.size["apps"], seed=CORPUS_SEED)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Window = tuple[float, float]


def _repeat(
    seconds: float,
    setup: Callable[[], Any],
    unit: Callable[[Any], Any],
    summarize: Callable[[Any], Any],
    min_units: int = 1,
) -> tuple[list[Window], list[tuple[float, float, Any]], Any, Any, float]:
    """Set up :data:`SETUP_REPEATS` times, then run a unit of work on the
    last set-up, and on a fresh one each time while another fits in
    ``seconds`` or fewer than ``min_units`` have run.

    Only one set-up's objects are alive at a time, so memory does not grow
    with the repetition count.

    :returns: set-up windows, ``(start, end, summarize(value))`` per unit of
        work, the last set-up state and value, and the peak resident set
        size after the first unit of work.  Taken there, the peak is that
        of a fixed amount of work: how many units fit in ``seconds``
        depends on the host's speed, and each one after the first added
        8-9 MB of heap fragmentation on ``stream``.
    """
    setups: list[Window] = []

    def set_up() -> Any:
        t0 = clock()
        state = setup()
        setups.append((t0, clock()))
        return state

    state = None
    for __ in range(SETUP_REPEATS):
        state = None
        state = set_up()
    runs: list[tuple[float, float, Any]] = []
    peak_rss_mb = 0.0
    started = clock()
    while True:
        t0 = clock()
        value = unit(state)
        t1 = clock()
        runs.append((t0, t1, summarize(value)))
        peak_rss_mb = peak_rss_mb or _peak_rss_mb()
        fits = clock() - started + (t1 - t0) + (setups[-1][1] - setups[-1][0]) <= seconds
        if not fits and len(runs) >= min_units:
            return setups, runs, state, value, peak_rss_mb
        state = value = None
        state = set_up()


def _batch_metrics(
    result: Result,
    speed: SpeedProbe,
    setups: list[Window],
    runs: list[tuple[float, float, Any]],
    peak_rss_mb: float,
    items: int,
    operations: list[list[Window]],
) -> None:
    """Each figure is the median over units of work of that unit's value.

    :param operations: per unit of work, the operations a caller waits on.
    """
    latencies_ms = [[1000.0 * speed.scaled(*op) for op in unit] for unit in operations]
    pooled = [ms for unit in latencies_ms for ms in unit]
    unit_s = [speed.scaled(t0, t1) for t0, t1, __ in runs]
    result.metric("setup_s", statistics.median(speed.scaled(*w) for w in setups), len(setups))
    result.metric("peak_rss_mb", peak_rss_mb, 1)
    result.metric("p50_ms", statistics.median(percentile(unit, 0.50) for unit in latencies_ms), len(pooled))
    result.metric("throughput", statistics.median(items / s for s in unit_s), len(runs))
    result.tails = {
        "p90_ms": statistics.median(percentile(unit, 0.90) for unit in latencies_ms),
        "p99_ms": percentile(pooled, 0.99),
    }
    result.attempted = len(pooled)
    result.work_s = statistics.median(unit_s)
    result.notes["units_s"] = unit_s
    result.notes["unit_speed"] = [speed.speed(t0, t1) for t0, t1, __ in runs]


def _batch_layers(
    result: Result,
    tracer: Tracer | None,
    speed: SpeedProbe,
    setups: list[Window],
    runs: list[tuple[float, float, Any]],
    extras: dict[str, Any],
) -> None:
    if tracer is None:
        return
    spans = as_dicts(tracer.spans)
    windows = [(t0, t1) for t0, t1, __ in runs]
    timed = within(spans, windows)
    table = rollup(timed)
    by_parent = self_by_parent(timed, "distance.pairs")
    extras["stream_attach_s"] = by_parent.get("streaming.ingest", 0.0)
    extras["stream_compact_s"] = by_parent.get("streaming.compact", 0.0)
    extras["coverage"] = sum(row["self_s"] for row in table.values()) / sum(t1 - t0 for t0, t1 in windows)
    scale = speed.speed(windows[0][0], windows[-1][1])
    result.layers = layer_metrics(table, rollup(within(spans, setups)), extras, reps=len(runs), speed=scale)
    _dump_trace(result.settings.workdir, spans, table)


def _dump_trace(out: Path, spans: list[dict[str, Any]], table: dict) -> None:
    """``spans.jsonl`` plus ``rollup.json``: self time per span name and per layer."""
    write_spans(out / "spans.jsonl", spans)
    rollup_document = {"spans": table, "layers_self_s": layer_rollup(table)}
    (out / "rollup.json").write_text(json.dumps(rollup_document, indent=2) + "\n", encoding="utf-8")


# -- generate -------------------------------------------------------------------


def run_generate(settings: Settings, result: Result, tracer: Tracer | None, speed: SpeedProbe) -> None:
    """The paper's server: cluster M packets over the full NCD matrix, emit signatures."""
    from repro.core.pipeline import DetectionPipeline
    from repro.signatures.store import SignatureStore

    m = settings.size["generate_m"]
    corpus = _corpus(settings)
    setups, runs, pipeline, final, peak_rss_mb = _repeat(
        settings.seconds,
        lambda: DetectionPipeline(corpus.trace, corpus.payload_check()),
        lambda pipeline: pipeline.run(m, seed=settings.seed),
        lambda run: _generate_outputs(run.signatures, run.metrics),
    )
    _batch_metrics(result, speed, setups, runs, peak_rss_mb, m, [[(t0, t1)] for t0, t1, __ in runs])

    result.outputs = runs[0][2]
    result.check("repetitions_identical", all(outputs == result.outputs for __, __, outputs in runs))
    document = SignatureStore.dumps(final.signatures)
    result.check("store_roundtrip", SignatureStore.dumps(SignatureStore.loads(document)) == document)
    result.check("signatures_nonempty", len(final.signatures) > 0)
    if not _check_golden(result):
        # No golden for this seed: the paper's quality band must still hold.
        result.check("tp_floor", final.metrics.tp_percent >= settings.size["tp_floor"])
        result.check("fp_ceiling", final.metrics.fp_percent <= settings.size["fp_ceiling"])
    if settings.verify:
        result.check("oracle_composed_naive", _generate_oracle(pipeline, m, settings.seed) == result.outputs)

    stats = pipeline.server.engine.stats
    _batch_layers(
        result,
        tracer,
        speed,
        setups,
        runs,
        {
            "pairs_evaluated": stats.n_pairs * len(runs),
            "pair_hit_rate": stats.pair_hit_rate,
            "pair_misses": stats.pair_misses * len(runs),
            "n_signatures": len(final.signatures),
        },
    )


def _generate_outputs(signatures, metrics) -> dict[str, Any]:
    from repro.signatures.store import SignatureStore

    return {
        "signatures_sha256": _sha256(SignatureStore.dumps(signatures)),
        "n_signatures": len(signatures),
        "tp_percent": round(metrics.tp_percent, 9),
        "fp_percent": round(metrics.fp_percent, 9),
    }


def _generate_oracle(pipeline, m: int, seed: int) -> dict[str, Any]:
    """The stages composed by hand over the naive reference distance loop."""
    from repro.clustering.linkage import Linkage, agglomerate
    from repro.dataset.split import sample_packets
    from repro.distance.matrix import distance_matrix
    from repro.distance.packet import PacketDistance
    from repro.eval.metrics import compute_metrics
    from repro.signatures.generator import GeneratorConfig, SignatureGenerator
    from repro.signatures.matcher import SignatureMatcher

    suspicious, normal = pipeline.server.suspicious, pipeline.server.normal
    sample = sample_packets(suspicious, min(m, len(suspicious)), seed=seed)
    dendrogram = agglomerate(distance_matrix(sample, PacketDistance.paper()), Linkage.GROUP_AVERAGE)
    signatures = SignatureGenerator(GeneratorConfig()).from_dendrogram(dendrogram, sample)
    metrics = compute_metrics(
        matcher=SignatureMatcher(signatures),
        suspicious=suspicious,
        normal=normal,
        n_sample=len(sample),
    )
    return _generate_outputs(signatures, metrics)


# -- stream ---------------------------------------------------------------------


def run_stream(settings: Settings, result: Result, tracer: Tracer | None, speed: SpeedProbe) -> None:
    """Streaming clustering: blocked attach per batch, exact dirty-block compaction."""
    from repro.core.streaming import StreamingClusterer, StreamingConfig
    from repro.distance.blocking import BlockingConfig, BlockingMode
    from repro.distance.packet import PacketDistance

    size = settings.size
    m_total = size["base"] + size["batch"] * size["batches"]
    corpus = _corpus(settings)
    metric = PacketDistance.paper()
    config = StreamingConfig(
        blocking=BlockingConfig(mode=BlockingMode.EXACT, threshold=STREAM_THRESHOLD),
        compact_every=STREAM_COMPACT_EVERY,
    )

    # The seed shuffles arrivals inside each batch: every batch carries the
    # same packets, so the dirty blocks, and the cost, barely move with it.
    bounds = [0, size["base"]] + [size["base"] + (i + 1) * size["batch"] for i in range(size["batches"])]
    rng = random.Random(f"bench-stream-{settings.seed}")
    order: list[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = list(range(lo, hi))
        rng.shuffle(chunk)
        order.extend(chunk)
    packets = corpus.payload_check().split(corpus.trace)[0][:m_total]
    arrivals = [packets[i] for i in order]

    def setup() -> tuple[StreamingClusterer, list[list]]:
        suspicious, __ = corpus.payload_check().split(corpus.trace)
        arriving = [suspicious[i] for i in order]
        return StreamingClusterer(metric, config), [arriving[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    batches: list[list[Window]] = []

    def stream_once(state: tuple[StreamingClusterer, list[list]]) -> StreamingClusterer:
        clusterer, tranches = state
        batches.append([])
        for tranche in tranches:
            t0 = clock()
            clusterer.ingest(tranche)
            batches[-1].append((t0, clock()))
        clusterer.compact(full=True)
        return clusterer

    setups, runs, __, final, peak_rss_mb = _repeat(
        settings.seconds,
        setup,
        stream_once,
        lambda clusterer: _stream_outputs(clusterer.partition(), order, packets),
        min_units=STREAM_MIN_UNITS,
    )
    _batch_metrics(result, speed, setups, runs, peak_rss_mb, m_total, batches)

    result.outputs = runs[0][2]
    result.check("repetitions_identical", all(outputs == result.outputs for __, __, outputs in runs))
    partition = final.partition()
    members = sorted(i for cluster in partition for i in cluster)
    result.check("partition_covers_stream", members == list(range(m_total)))
    result.check(
        "clusters_inside_blocks",
        all(len({final.blocker.find(i) for i in cluster}) == 1 for cluster in partition),
    )
    _check_golden(result)
    result.check(
        "oracle_small_blocks",
        _stream_oracle(arrivals, partition, metric, config, max_block=SPOT_BLOCK_MAX),
    )
    if settings.verify:
        result.check(
            "oracle_blocked_batch", _stream_oracle(arrivals, partition, metric, config, max_block=None)
        )

    stats = final.stats
    _batch_layers(
        result,
        tracer,
        speed,
        setups,
        runs,
        {
            "pairs_evaluated": final.stream.pairs_evaluated * len(runs),
            "pair_hit_rate": final.engine.stats.pair_hit_rate,
            "pair_misses": final.engine.stats.pair_misses * len(runs),
            "cached_pairs": final.stream.cached_pairs,
            "attach_pairs": stats.attach_pairs_evaluated * len(runs),
            "compact_pairs": stats.compact_pairs_evaluated * len(runs),
            "attach_probes": stats.attach_probes * len(runs),
            "compactions": stats.compactions * len(runs),
            "n_signatures": result.outputs["n_signatures"],
        },
    )


def _stream_outputs(partition: list[list[int]], order: list[int], packets: list) -> dict[str, Any]:
    """Partition and signatures in corpus order, so every arrival order must match."""
    from repro.signatures.generator import GeneratorConfig, SignatureGenerator
    from repro.signatures.store import SignatureStore

    canonical = sorted(sorted(order[i] for i in cluster) for cluster in partition)
    signatures = SignatureGenerator(GeneratorConfig(cut_height=STREAM_THRESHOLD)).from_clusters(
        [[packets[i] for i in cluster] for cluster in canonical]
    )
    return {
        "partition_sha256": _sha256(json.dumps(canonical, separators=(",", ":"))),
        "n_clusters": len(canonical),
        "signatures_sha256": _sha256(SignatureStore.dumps(signatures)),
        "n_signatures": len(signatures),
    }


def _stream_oracle(packets, partition, metric, config, *, max_block: int | None) -> bool:
    """Batch blocking plus a from-scratch recluster per block equals the stream.

    ``max_block`` limits the check to blocks up to that size (``None``: all).
    """
    from repro.clustering.cut import cut_by_height
    from repro.clustering.linkage import agglomerate
    from repro.distance.blocking import assign_blocks
    from repro.distance.engine import DistanceEngine

    streamed = {tuple(cluster) for cluster in partition}
    for block in assign_blocks(packets, metric, config.blocking).blocks:
        members = sorted(block)
        if max_block is not None and len(members) > max_block:
            continue
        if len(members) == 1:
            expected = [members]
        else:
            dendrogram = agglomerate(
                DistanceEngine(metric).matrix([packets[i] for i in members]), config.linkage
            )
            expected = [
                sorted(members[leaf] for leaf in dendrogram.leaves(node))
                for node in cut_by_height(dendrogram, config.blocking.threshold)
            ]
        if any(tuple(cluster) not in streamed for cluster in expected):
            return False
    return True


# -- screen and fleet -------------------------------------------------------------


class ServiceProcess:
    """One ``repro service`` child process on an ephemeral port, started
    through :mod:`bench.service_main` with the speed probe, and with the
    trace wrappers when traced."""

    def __init__(self, settings: Settings, index: int, boot_path: Path, cpu: int | None) -> None:
        workdir = settings.workdir
        self.ready = workdir / f"ready-{index}"
        self.speed_path = workdir / f"speed-{index}.json"
        self.spans_path = workdir / f"server-spans-{index}.jsonl" if settings.traced else None
        command = [sys.executable, "-m", "bench.service_main", "--speed", str(self.speed_path)]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        command += [
            "service",
            "--signatures", str(boot_path),
            "--db", str(workdir / f"service-{index}.sqlite3"),
            "--ready-file", str(self.ready),
            "--seed", str(CORPUS_SEED),
        ]
        self.log = (workdir / f"service-{index}.log").open("w", encoding="utf-8")
        self.speed = SpeedProbe()
        started = clock()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.log)
        if cpu is not None:
            # Set before the server starts a thread, so all of them inherit it.
            os.sched_setaffinity(self.process.pid, {cpu})
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.launch: Window = (started, clock())

    def _wait_ready(self) -> tuple[str, int]:
        deadline = clock() + 60.0
        while clock() < deadline:
            if self.ready.exists():
                text = self.ready.read_text(encoding="utf-8")
                if text.endswith("\n"):
                    host, __, port = text.strip().rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited with {self.process.returncode} before ready")
            time.sleep(0.002)
        raise RuntimeError("service not ready within 60 s")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size so far (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0

    def stop(self) -> None:
        """Stop the server and read back its probe samples."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if self.speed_path.exists():
            self.speed = SpeedProbe.load(self.speed_path)


def _windows(start: float, end: float) -> list[Window]:
    width = (end - start) / WINDOWS
    return [(start + k * width, start + (k + 1) * width) for k in range(WINDOWS)]


def _per_window(
    pairs: list[tuple[float, float]], start: float, end: float, stat: Callable[[list[float], Window], float]
) -> list[float]:
    """``stat(values, window)`` for each of :data:`WINDOWS` equal time windows,
    over the values whose time falls in it; ``pairs`` are ``(time, value)``."""
    per_window = []
    for lo, hi in _windows(start, end):
        values = [value for at, value in pairs if lo <= at < hi]
        if values:
            per_window.append(stat(values, (lo, hi)))
    return per_window


def run_service(settings: Settings, result: Result, tracer: Tracer | None, speed: SpeedProbe | None) -> None:
    """``repro service`` in a child process, loaded over two connections."""
    from repro.core.server import SignatureServer
    from repro.serving.gateway import ScreeningGateway
    from repro.serving.loadgen import ScreeningEvent
    from repro.service.wire import canonical_decisions, encode_event, encode_results
    from repro.signatures.store import SignatureStore

    kind = settings.workload
    size = settings.size
    load = SERVICE_LOAD[kind]
    corpus = _corpus(settings)
    generation = SignatureServer(corpus.payload_check())
    generation.ingest(corpus.trace)
    boot_path = settings.workdir / "boot.json"
    SignatureStore.save(generation.generate(size["boot_m"], seed=CORPUS_SEED).signatures, boot_path)
    boot = SignatureStore.load(boot_path)
    boot_document = SignatureStore.dumps_envelope(boot, 1)

    open_s = settings.seconds * OPEN_SHARE
    closed_s = settings.seconds - open_s
    closed_per_lane = math.ceil(load["pool_rps"] * closed_s / loadgen.LANES)
    published: list[bytes] = []
    scheduled: list[loadgen.Request] = []
    if kind == "screen":
        open_lanes, closed_lanes = loadgen.screen_plan(
            settings.seed, corpus.trace.packets,
            rate=load["rate"], open_s=open_s, closed_per_lane=closed_per_lane,
        )
    else:
        alternate = generation.generate(size["boot_m"], seed=CORPUS_SEED + 1).signatures
        n_publish = len(loadgen.publish_times(open_s, PUBLISH_EVERY_S)) + len(
            loadgen.publish_times(closed_s, PUBLISH_EVERY_S)
        )
        published = [
            SignatureStore.dumps_envelope(alternate if version % 2 == 0 else boot, version).encode()
            for version in range(2, 2 + n_publish)
        ]
        open_lanes, closed_lanes, scheduled = loadgen.fleet_plan(
            settings.seed, generation.suspicious, published,
            rate=load["rate"], open_s=open_s, closed_s=closed_s,
            closed_per_lane=closed_per_lane, publish_every_s=PUBLISH_EVERY_S,
        )

    # With two CPUs or more, the server runs on one and the load generator on
    # another.  Unpinned, the scheduler moved the server's threads between
    # CPUs as the interpreter lock passed among them: closed-loop capacity on
    # ``screen`` ranged 479-695 req/s over five runs, against 721-818 pinned.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu, client_cpu = (cpus[0], cpus[1]) if len(cpus) > 1 else (None, None)
    servers: list[ServiceProcess] = []
    try:
        for index in range(SETUP_REPEATS):
            servers.append(ServiceProcess(settings, index, boot_path, server_cpu))
            if index < SETUP_REPEATS - 1:
                servers[-1].stop()
        host, port = servers[-1].host, servers[-1].port

        # Identity probes, outside the timed phases.
        rng = random.Random(f"bench-probe-{settings.seed}")
        packets = corpus.trace.packets
        events = [
            ScreeningEvent(seq=i, tick=float(i), device_id="bench-probe",
                           packet=packets[rng.randrange(len(packets))])
            for i in range(PROBE_EVENTS)
        ]
        expected = canonical_decisions(encode_results(ScreeningGateway(boot).run(list(events))))
        body = json.dumps({"events": [encode_event(e) for e in events]}).encode("utf-8")
        status, payload = loadgen.request_once(host, port, "POST", "/v1/screen", body)
        probe = canonical_decisions(json.loads(payload)["results"]) if status == 200 else ""
        result.check("probe_socket_equals_in_process", probe == expected)
        status, payload = loadgen.request_once(host, port, "GET", "/v1/signatures")
        result.check("boot_fetch_identical", status == 200 and payload.decode() == boot_document)

        state = loadgen.PublishState()
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})
        open_phase = loadgen.run_phase(host, port, open_lanes, state=state)
        # Taken here, the peak is that of a fixed amount of work; the closed
        # loop's request count grows with the server's speed.
        peak_rss_mb = servers[-1].peak_rss_mb()
        closed_phase = loadgen.run_phase(
            host, port, closed_lanes, state=state, closed_s=closed_s, scheduled=scheduled
        )

        status, payload = loadgen.request_once(host, port, "GET", "/metrics")
        counters = loadgen.scrape(payload.decode()) if status == 200 else {}
        final_status, final_document = loadgen.request_once(host, port, "GET", "/v1/signatures")
    finally:
        for server in servers:
            server.stop()

    timed = open_phase.outcomes + closed_phase.outcomes
    documents = frozenset([boot_document.encode(), *published])
    ok = sum(1 for o in timed if _outcome_ok(o, documents))
    result.attempted = len(timed)
    result.failed = result.attempted - ok
    result.check("every_timed_response_ok", result.failed == 0)
    if kind == "screen":
        result.check("final_fetch_is_boot", final_status == 200 and final_document == boot_document.encode())
    else:
        publishes = [o for o in timed if o.request.kind == "publish"]
        # Publishes consume the documents in order, so the last one sent is
        # the one every device must now be served.
        result.check("publishes_201", all(o.status == 201 for o in publishes))
        result.check(
            "final_fetch_is_last_publish",
            final_status == 200 and final_document == published[len(publishes) - 1],
        )
        reports = [o for o in timed if o.request.kind == "report"]
        new_reports = sum(o.request.items for o in reports)
        accepted = sum(json.loads(o.body)["accepted"] for o in reports if o.status == 200)
        result.check("accepted_equals_new_reports", accepted == new_reports)
        result.check(
            "server_accepted_equals_new_reports",
            counters.get("repro_fed_ingest_accepted") == new_reports,
        )
    # The closed loop ends on time, so how many requests it sends varies;
    # the open loop's replies are the same on every run of a seed.
    result.outputs = {
        "probe_sha256": _sha256(probe),
        "open_loop_replies_sha256": loadgen.digest(
            [o.body for o in open_phase.outcomes if o.request.kind in ("screen", "report", "publish")]
        ),
    }
    _check_golden(result)

    # Each window's figure is scaled by the server's speed over that window.
    server_speed = servers[-1].speed

    def speed_of(window: Window) -> float:
        return server_speed.speed(*window)

    # Open loop: latency from the due time, less the generator's own
    # lateness in sending (loadgen.Outcome.late), per window of due times.
    due_latency = [(o.due, 1000.0 * (o.end - o.due - o.late)) for o in open_phase.outcomes]
    kind_latency = [(o.due, (o.request.kind, ms)) for o, (__, ms) in zip(open_phase.outcomes, due_latency)]
    open_end = open_phase.started + open_s
    # Closed loop: completions per second while both lanes are still sending.
    both_busy_until = min(closed_phase.lane_ends)
    completions = [(o.end, 1.0) for o in closed_phase.outcomes]
    throughput = _per_window(
        completions,
        closed_phase.started,
        both_busy_until,
        lambda values, window: len(values) / (window[1] - window[0]) / speed_of(window),
    )
    result.metric(
        "setup_s",
        statistics.median(server.speed.scaled(*server.launch) for server in servers),
        len(servers),
    )
    result.metric("peak_rss_mb", peak_rss_mb, 1)

    p50_windows = _per_window(
        kind_latency,
        open_phase.started,
        open_end,
        lambda values, window: _kind_median(values) * speed_of(window),
    )
    p90_windows = _per_window(
        due_latency,
        open_phase.started,
        open_end,
        lambda values, window: percentile(values, 0.90) * speed_of(window),
    )
    result.metric("p50_ms", statistics.median(p50_windows), len(due_latency))
    result.metric("throughput", statistics.median(throughput), len(completions))
    result.tails = {
        "p90_ms": statistics.median(p90_windows),
        "p99_ms": percentile([ms for __, ms in due_latency], 0.99),
    }
    result.work_s = 1.0 / result.e2e["throughput"]["value"]
    late_ms = [1000.0 * o.late for o in open_phase.outcomes]
    result.notes.update(
        {
            "open_s": open_phase.ended - open_phase.started,
            "closed_s": closed_phase.ended - closed_phase.started,
            "late_p99_ms": percentile(late_ms, 0.99),
            "throughput_windows": throughput,
            "p50_windows": p50_windows,
            "open_speed": server_speed.speed(open_phase.started, open_end),
            "closed_speed": server_speed.speed(closed_phase.started, both_busy_until),
        }
    )

    if settings.traced:
        all_spans = load_spans(servers[-1].spans_path)
        phases = {"open": open_phase, "closed": closed_phase}
        phase_spans = {label: within(all_spans, [phase.window]) for label, phase in phases.items()}
        waits = {label: _queue_waits(phase_spans[label], phase) for label, phase in phases.items()}
        for label, phase in phases.items():
            result.notes[f"coverage_{label}"] = _service_coverage(
                phase_spans[label], phase.outcomes, waits[label]
            )
        spans = phase_spans["open"] + phase_spans["closed"]
        table = rollup(spans)
        # Framing is taken on the open loop: there a request rarely waits
        # behind another on its connection, as closed-loop requests all do.
        service_ms = [1000.0 * (o.end - o.start) for o in open_phase.outcomes]
        handler_ms = [1000.0 * s["dur"] for s in phase_spans["open"] if s["name"] == "http.handler"]
        all_waits = waits["open"] + waits["closed"]
        extras = {
            "counters": counters,
            "framing_ms": statistics.median(service_ms) - statistics.median(handler_ms),
            "queue_ms": 1000.0 * statistics.mean(all_waits) if all_waits else 0.0,
            "client_ms": 1000.0 * sum(o.cpu for o in timed) / len(timed),
            "late_p99_ms": result.notes["late_p99_ms"],
            "sent": result.attempted,
            "failed": result.failed,
            "coverage": _service_coverage(spans, timed, all_waits),
            "n_signatures": len(boot),
        }
        result.layers = layer_metrics(
            table, {}, extras, reps=1, speed=server_speed.speed(open_phase.started, closed_phase.ended)
        )
        _dump_trace(settings.workdir, spans, table)


def _kind_median(values: list[tuple[str, float]]) -> float:
    """The median latency of each request kind, weighted by its count.

    ``fleet`` mixes report posts and fetches about half and half, and a
    report post takes almost three times as long as a fetch (1.80 against
    0.65 ms in one run): the median of the mix sits in the gap between them
    and jumps from one to the other as the mix of a window shifts by a
    request or two.  For one kind this is the plain median.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, ms in values:
        by_kind.setdefault(kind, []).append(ms)
    return sum(len(v) * percentile(v, 0.50) for v in by_kind.values()) / len(values)


def _queue_waits(spans: list[dict[str, Any]], phase: loadgen.Phase) -> list[float]:
    """Per request of ``phase``: the server's start on it minus the client's send.

    That is transport plus the wait for a CPU and the interpreter lock
    before the handler thread can parse the request, plus, in the closed
    loop, the wait behind the request ahead of it on the connection.  Each
    connection is served by one handler thread, so the ``http.parse`` spans
    of a thread pair off in order with the requests of the lane whose sends
    precede them; a thread no lane fits contributes nothing.
    """
    parse_starts: dict[int, list[float]] = {}
    for span in spans:
        if span["name"] == "http.parse":
            parse_starts.setdefault(span["thread"], []).append(span["start"])
    waits: list[float] = []
    for starts in parse_starts.values():
        starts.sort()
        fits = [
            [start - outcome.start for start, outcome in zip(starts, lane)]
            for lane in phase.lanes
            if len(lane) == len(starts)
        ]
        fits = [gaps for gaps in fits if min(gaps) >= 0.0]
        if fits:
            waits.extend(min(fits, key=sum))
    return waits


def _service_coverage(
    spans: list[dict[str, Any]], outcomes: list[loadgen.Outcome], waits: list[float]
) -> float:
    """Explained share of the request time the client saw.

    Explained: the measured wait from send to the server's start
    (:func:`_queue_waits`) and the server's span self time.  What is left
    is the reply's way back and the client reading it.
    """
    covered = sum(waits) + sum(span["self"] for span in spans)
    return covered / sum(o.end - o.start for o in outcomes)


def _outcome_ok(outcome: loadgen.Outcome, documents: frozenset[bytes]) -> bool:
    kind = outcome.request.kind
    if kind == "screen":
        return outcome.status == 200 and outcome.body.count(b'"outcome"') == loadgen.EVENTS_PER_SCREEN
    if kind == "report":
        return outcome.status == 200 and len(json.loads(outcome.body)["results"]) == outcome.request.items
    if kind == "publish":
        return outcome.status == 201
    if outcome.status == 200:
        return outcome.body in documents
    return kind == "fetch_since" and outcome.status == 304


WORKLOADS: dict[str, Callable[[Settings, Result, Tracer | None, SpeedProbe | None], None]] = {
    "generate": run_generate,
    "stream": run_stream,
    "screen": run_service,
    "fleet": run_service,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.workloads")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True, help="write the JSON result here")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)
    result_path = Path(args.result)
    settings = Settings(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        quick=args.quick,
        traced=args.traced,
        verify=args.verify,
        workdir=result_path.parent,
    )
    # A process started in the background may inherit SIGINT ignored, and its
    # children with it; a handler here gives the services the default again,
    # so SIGINT stops them (and lets them write their samples and spans).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # The service workloads trace and probe the server process instead
    # (bench.service_main).
    batch = settings.workload not in SERVICE_LOAD
    tracer = Tracer() if settings.traced and batch else None
    if tracer is not None:
        tracer.install()
    speed = SpeedProbe() if batch else None
    if speed is not None:
        speed.start()
    result = Result(settings)
    try:
        WORKLOADS[settings.workload](settings, result, tracer, speed)
    finally:
        if speed is not None:
            speed.stop()  # before shutdown resets SIGALRM to its default: exit
    result_path.write_text(json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
