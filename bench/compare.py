"""Compare two result sets against the bounds in BENCHMARK.json.

Usage::

    python3 -m bench.compare BASE.jsonl [CANDIDATE.jsonl]

A result set is the JSON-lines file ``python3 -m bench.run --out FILE``
appends to, one line per workload run.  For every (end-to-end metric,
workload) pair the report gives each set's median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  The pair disagrees when
a set's spread exceeds the metric's bound (``setup_s`` is exempt), or
when the candidate's median is worse than the base's by more than the
bound.  The exit status is 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = {"setup_s"}


def load_set(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from the untraced runs in a result set."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("traced"):
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(float(metric["value"]))
    return values


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and spread; quartiles need at least two values."""
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of ``base``."""
    change = (candidate - base) / base
    return change if better == "lower" else -change


def compare(
    base: dict[tuple[str, str], list[float]],
    candidate: dict[tuple[str, str], list[float]] | None,
    metrics: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], bool]:
    rows = []
    agree = True
    workloads = sorted({workload for workload, __ in base})
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            key = (workload, name)
            row: dict[str, Any] = {"workload": workload, "metric": name, "bound": bound}
            problems = []
            sets = [("base", base)] + ([("candidate", candidate)] if candidate is not None else [])
            for label, data in sets:
                if key not in data:
                    problems.append(f"{label}: missing")
                    continue
                row[label] = summary(data[key])
                if name not in SPREAD_EXEMPT and row[label]["spread"] > bound:
                    problems.append(f"{label} spread {row[label]['spread']:.3f} > {bound}")
            if "base" in row and "candidate" in row:
                row["worse_by"] = worse_by(row["base"]["median"], row["candidate"]["median"], metric["better"])
                if row["worse_by"] > bound:
                    problems.append(f"candidate median worse by {row['worse_by']:.3f} > {bound}")
            row["problems"] = problems
            agree = agree and not problems
            rows.append(row)
    return rows, agree


def _fmt(stats: dict[str, float] | None) -> str:
    if stats is None:
        return "-"
    return (
        f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
        f"spread {stats['spread']:.3f} n={stats['n']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate", nargs="?")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base = load_set(args.base)
    candidate = load_set(args.candidate) if args.candidate else None
    rows, agree = compare(base, candidate, metrics)
    for row in rows:
        verdict = "ok" if not row["problems"] else "DISAGREE: " + "; ".join(row["problems"])
        print(f"{row['workload']:<9} {row['metric']:<12} bound {row['bound']:<5} {verdict}")
        print(f"    base      {_fmt(row.get('base'))}")
        if candidate is not None:
            print(f"    candidate {_fmt(row.get('candidate'))}  worse_by {row.get('worse_by', 0.0):+.3f}")
    print("agree" if agree else "disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
