"""Benchmark of record: one command, every metric, every output checked.

Usage::

    python3 -m bench.run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                         [--quick] [--verify] [--out results.jsonl]

Each workload runs in a fresh child process (:mod:`bench.workloads`).  The
end-to-end metrics are printed by name with unit, sample count and
operations attempted/failed, then the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Times and
rates are scaled to a reference CPU speed by :mod:`bench.speed`.

``--trace 1`` (or ``--traced``) runs each workload twice, untraced and then
with :mod:`bench.trace` spans, and reports the per-layer metrics plus
``trace.overhead`` (traced over untraced time per unit of work, minus 1)
instead of the end-to-end ones.  The exit status is non-zero when any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench.layers import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
WORKLOAD_NAMES = ("generate", "stream", "screen", "fleet")
DEFAULT_SECONDS = 20
QUICK_SECONDS = 3
#: A traced run starts two children; both together stay under three minutes.
CHILD_TIMEOUT_S = 85
#: What a traced run leaves in its directory under ``.bench_run/``.
TRACE_FILES = {"spans.jsonl", "rollup.json", "result.json"}


def _child(workload: str, args: argparse.Namespace, traced: bool) -> dict[str, Any]:
    """One workload run in a fresh process; returns its result dict."""
    workdir = SCRATCH / f"{workload}-seed{args.seed}-{'traced' if traced else 'plain'}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, "-m", "bench.workloads", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--result", str(result_path),
    ]
    command += ["--quick"] * args.quick + ["--traced"] * traced + ["--verify"] * args.verify
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(workdir)  # keep sqlite and tempfile scratch inside the checkout
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        returncode = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if returncode != 0 or not result_path.exists():
        raise RuntimeError(f"workload {workload} exited with status {returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = time.perf_counter() - started
    if traced:
        # Keep the trace; the databases and raw server spans of a service
        # run come to a hundred megabytes or more.
        for path in workdir.iterdir():
            if path.name not in TRACE_FILES:
                path.unlink()
        result["trace_dir"] = str(workdir.relative_to(ROOT))
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _print_result(result: dict[str, Any], metrics: dict[str, dict[str, Any]]) -> None:
    print(
        f"[{result['workload']}] seed={result['seed']} correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"wall={result['wall_s']:.1f}s"
    )
    for name, metric in metrics.items():
        count = f"n={metric['n']}" if "n" in metric else ""
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<6} {count}")
    for name, ok in result["checks"].items():
        print(f"  check {name:<40} {'ok' if ok else 'FAILED'}")
    if result.get("trace_dir"):
        print(f"  spans: {result['trace_dir']}/spans.jsonl")


def run_workload(workload: str, args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload (twice when traced) and return its reported record."""
    plain = _child(workload, args, traced=False)
    if not args.trace:
        metrics = plain["metrics"]
        _print_result(plain, metrics)
        return {**plain, "reported": metrics}
    traced = _child(workload, args, traced=True)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["work_s"] / plain["work_s"] - 1.0
    layers.update(plain["tails"])
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    traced["checks"]["traced_outputs_equal_untraced"] = traced["outputs"] == plain["outputs"]
    traced["checks"].update({f"untraced_{k}": v for k, v in plain["checks"].items()})
    traced["correct"] = all(traced["checks"].values())
    _print_result(traced, metrics)
    return {**traced, "reported": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed-phase budget per run (default {DEFAULT_SECONDS}, "
                             f"{QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="small inputs and short phases")
    parser.add_argument("--verify", action="store_true",
                        help="also run the reference oracles (outside the timed phase)")
    parser.add_argument("--out", help="append one JSON line per workload run to this file")
    args = parser.parse_args(argv)
    # Exit through the ``finally`` that stops a running workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}/repro", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = [run_workload(workload, args) for workload in workloads]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in records[0]["reported"].items()
        }
    else:
        metrics = {
            f"{r['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
            for r in records
            for name, m in r["reported"].items()
        }
    correct = all(r["correct"] for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
