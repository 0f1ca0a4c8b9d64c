"""Reachability ratchet: every function under ``src/repro`` must have a caller.

Usage::

    python3 scripts/reach.py

A function counts as reached when one of these entry points calls it:

- the 24 paper-figure benchmark files (``benchmarks/``);
- ``python3 -m bench.run --quick --verify`` (all four workloads);
- every offline ``repro`` verb, at small sizes;
- ``repro service`` twice, on sqlite (``--db``) and on its default
  in-memory backend, each driven by ``examples/service_trace_sample.py``;
- the other scripts in ``examples/``.

Unit tests are not entry points: code that only its own tests call is
what this check finds.  A function that stays unreached on purpose (a
reference oracle a differential test calls, a name ``bench/trace.py``
patches by string, safety code) is named in ``scripts/reach_allowlist.txt``
with a one-line reason, which must start with one of :data:`KEPT_KINDS`
and a colon.  The check fails, naming each function, when a function is
neither reached nor allowlisted, or when an allowlist entry names no
function; a reason of any other kind stops it before it starts.

``tests/test_reach_allowlist.py`` runs the static half (the allowlist
against the functions defined under ``src/repro``) in the unit tests.

Every Python process of a run (``bench.run`` and the service start their
own, and the distance engine forks pool workers) loads a
``sitecustomize.py`` that this script places in ``src/`` for the run and
removes afterwards; ``bench.run`` sets its children's ``PYTHONPATH`` to
``src`` and the repo root, so that is where the hook must live.  The hook
records calls with ``sys.setprofile`` and ``threading.setprofile``, and
appends each ``src/repro`` code object to a per-process file the first
time it is called.  Writing through, rather than at exit, keeps what a
process reached when it leaves by ``os._exit`` (a pool worker's normal
end) or by the ``SIGTERM`` a pool sends its workers on close.  The hook
slows each process roughly twofold.

Stdlib only.  Raw hits stay in ``.reach/hits`` (ignored by git).
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
HITS = ROOT / ".reach" / "hits"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
HOOK = SRC / "sitecustomize.py"
ENV_KEY = "REPRO_REACH_DIR"

#: What an allowlist reason may start with: why the function stays unreached.
KEPT_KINDS = (
    "oracle",
    "safety",
    "bad input",
    "overload",
    "failure path",
    "harness",
    "protocol method",
)

PAPER_FIGURES = [
    "test_table1_permissions.py",
    "test_table2_destinations.py",
    "test_table3_sensitive.py",
    "test_fig2_destination_cdf.py",
    "test_fig4_detection.py",
    "test_ablation_linkage.py",
    "test_ablation_cut.py",
    "test_ablation_noise_aware.py",
    "test_ablation_generation.py",
    "test_ablation_compressor.py",
    "test_ablation_distance.py",
    "test_ablation_obfuscation.py",
    "test_ablation_whois.py",
    "test_seed_robustness.py",
    "test_holdout_learning_curve.py",
    "test_drift_incremental.py",
    "test_longitudinal_aging.py",
    "test_baseline_keyword.py",
    "test_probabilistic_matcher.py",
    "test_extension_location.py",
    "test_extension_tls.py",
    "test_chaos_pipeline.py",
    "test_chaos_distribution.py",
    "test_chaos_federation.py",
]

#: The hook every Python process of a run loads at start-up.
HOOK_SOURCE = f'''"""Reachability hook written by scripts/reach.py; removed after its run."""
import os
import sys
import threading

_DIR = os.environ.get("{ENV_KEY}")
if _DIR:
    _PREFIX = {str(PACKAGE) + os.sep!r}
    _seen = set()
    _out = [None, None]  # pid, file descriptor

    def _record(code):
        _seen.add(code)
        path = code.co_filename
        if not path.startswith(_PREFIX):
            return
        pid = os.getpid()
        if _out[0] != pid:  # first hit here, or a forked child
            _out[0] = pid
            _out[1] = os.open(
                os.path.join(_DIR, f"{{pid}}.hits"), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        os.write(_out[1], f"{{path}}:{{code.co_firstlineno}}\\n".encode())

    def _profile(frame, event, arg):
        if event == "call" and frame.f_code not in _seen:
            _record(frame.f_code)

    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


def _entry_points(work: Path) -> list[tuple[str, list[str], Path]]:
    """``(name, argv, cwd)`` of every entry point but the service."""
    python = sys.executable
    repro = [python, "-m", "repro.cli"]
    trace, identity, signatures = work / "trace.jsonl.gz", work / "id.json", work / "sigs.json"
    corpus = ["--trace", str(trace), "--identity", str(identity)]
    points = [
        (
            "paper-figures",
            [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
            + [f"benchmarks/{name}" for name in PAPER_FIGURES],
            ROOT,
        ),
        ("bench.run", [python, "-m", "bench.run", "--quick", "--verify"], ROOT),
        ("corpus", repro + ["corpus", "--apps", "40", "--out", str(trace), "--identity", str(identity)], work),
        ("label", repro + ["label", *corpus], work),
        ("generate", repro + ["generate", *corpus, "--sample", "30", "--out", str(signatures)], work),
        ("screen", repro + ["screen", "--trace", str(trace), "--signatures", str(signatures),
                            "--identity", str(identity), "--sample", "30"], work),
        ("analyze", repro + ["analyze", *corpus, "--signatures", str(signatures)], work),
        ("redact", repro + ["redact", *corpus, "--out", str(work / "redacted.jsonl")], work),
        ("export mitmproxy", repro + ["export", "--signatures", str(signatures),
                                      "--out", str(work / "export.py")], work),
        ("export snort", repro + ["export", "--signatures", str(signatures), "--format", "snort",
                                  "--out", str(work / "export.rules")], work),
        ("risk", repro + ["risk", "--apps", "40", "--top", "3"], work),
        ("report", repro + ["report", "--apps", "40"], work),
        ("fig4", repro + ["fig4", "--apps", "40"], work),
        ("chaos", repro + ["chaos", "--apps", "40", "--sample", "30", "--devices", "2",
                           "--rates", "0,0.5"], work),
        ("chaos pipeline", repro + ["chaos", "--target", "pipeline", "--apps", "40", "--sample", "30",
                                    "--rates", "0,0.5", "--json"], work),
        ("chaos federation", repro + ["chaos", "--target", "federation", "--apps", "40",
                                      "--devices", "4", "--reports", "3", "--rates", "0,0.5"], work),
        ("arena", repro + ["arena", "--quick", "--out", str(work / "arena.json")], work),
        ("trace", repro + ["trace", "--apps", "40", "--sample", "30", "--out", str(work / "trace_out")], work),
        ("metrics", repro + ["metrics", "--apps", "40", "--events", "600", "--sample", "30",
                             "--out", str(work / "metrics_out")], work),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        if example.name != "service_trace_sample.py":
            points.append((f"examples/{example.name}", [python, str(example)], work))
    return points


def _run(name: str, argv: list[str], cwd: Path, env: dict[str, str]) -> None:
    started = time.perf_counter()
    result = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    print(f"  {name:<36} exit {result.returncode}  {time.perf_counter() - started:6.1f} s", flush=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace")[-4000:])
        raise SystemExit(f"entry point {name!r} failed")


def _run_service(name: str, options: list[str], work: Path, env: dict[str, str]) -> None:
    """``repro service`` with ``options``, driven by the committed request script."""
    started = time.perf_counter()
    slug = name.replace(" ", "_")
    ready, log_path = work / f"{slug}.addr", work / f"{slug}.log"
    with log_path.open("wb") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "service", "--apps", "40", "--sample", "30",
             *options, "--ready-file", str(ready)],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
    try:
        deadline = time.monotonic() + 120
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if server.poll() is not None or time.monotonic() > deadline:
                raise SystemExit("repro service did not become ready")
            time.sleep(0.1)
        client = [sys.executable, str(ROOT / "examples" / "service_trace_sample.py"),
                  ready.read_text().strip()]
        subprocess.run(client, cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            code = server.wait()
    print(f"  {name:<36} exit {code}  {time.perf_counter() - started:6.1f} s", flush=True)
    if code != 0:
        sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        raise SystemExit(f"{name} did not stop cleanly")


def record() -> None:
    """Run every entry point with the hook in place; hits go to :data:`HITS`."""
    shutil.rmtree(HITS, ignore_errors=True)
    HITS.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env[ENV_KEY] = str(HITS)
    if HOOK.exists():
        raise SystemExit(f"{HOOK} exists; remove it (a stale hook from an interrupted run?)")
    HOOK.write_text(HOOK_SOURCE, encoding="utf-8")
    try:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            work = Path(tmp)
            for name, argv, cwd in _entry_points(work):
                _run(name, argv, cwd, env)
            trace_dir = work / "service_trace"
            _run_service("service --db", ["--db", str(work / "service.sqlite3"),
                                          "--trace-dir", str(trace_dir)], work, env)
            _run("slo", [sys.executable, "-m", "repro.cli", "slo", "--access-log",
                         str(trace_dir / "access_log.jsonl")], work, env)
            _run_service("service in memory", [], work, env)
    finally:
        HOOK.unlink()


def reached() -> set[tuple[str, int]]:
    """``(path relative to src, first line)`` of every code object a run called."""
    hits: set[tuple[str, int]] = set()
    for path in HITS.glob("*.hits"):
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, __, first = line.rpartition(":")
            hits.add((Path(filename).relative_to(SRC).as_posix(), int(first)))
    return hits


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualified name, line count)`` for every function under src/repro.

    The first line is the first decorator's, as in ``co_firstlineno``.
    ``@abstractmethod`` and ``@overload`` declarations are left out: they
    have no body to reach.
    """
    functions: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node: ast.AST, prefix: str, relpath: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", relpath)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {ast.unparse(d).rpartition(".")[2] for d in child.decorator_list}
                if not names & {"abstractmethod", "overload"}:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = child.end_lineno - first + 1
                    functions[relpath, first] = (f"{prefix}{child.name}", lines)
                visit(child, f"{prefix}{child.name}.<locals>.", relpath)
            else:
                visit(child, prefix, relpath)

    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), "", relpath)
    return functions


def allowlist() -> dict[tuple[str, str], str]:
    """``(path, qualified name) -> reason`` from :data:`ALLOWLIST`.

    One entry a line, ``path::qualname | reason``; ``#`` starts a comment.
    Every reason starts with one of :data:`KEPT_KINDS` and a colon.
    """
    entries: dict[tuple[str, str], str] = {}
    for number, raw in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, __, reason = line.partition("|")
        path, __, qualname = target.strip().partition("::")
        if not (path and qualname and reason.strip()):
            raise SystemExit(f"{ALLOWLIST.name}:{number}: want 'path::qualname | reason', got {raw!r}")
        kind, colon, __ = reason.strip().partition(":")
        if not colon or kind not in KEPT_KINDS:
            raise SystemExit(
                f"{ALLOWLIST.name}:{number}: a reason starts with one of "
                f"{', '.join(KEPT_KINDS)} and a colon, got {reason.strip()!r}"
            )
        entries[path, qualname] = reason.strip()
    return entries


def stale_entries(
    functions: dict[tuple[str, int], tuple[str, int]], allowed: dict[tuple[str, str], str]
) -> list[tuple[str, str]]:
    """Allowlist entries that name no function under src/repro."""
    names = {(path, qualname) for (path, __), (qualname, __) in functions.items()}
    return sorted(set(allowed) - names)


def check() -> int:
    functions = defined()
    hits = reached()
    allowed = allowlist()
    stale = stale_entries(functions, allowed)
    unreached = [
        (path, first, qualname, lines)
        for (path, first), (qualname, lines) in sorted(functions.items())
        if (path, first) not in hits and (path, qualname) not in allowed
    ]
    allowed_but_reached = sorted(
        (path, qualname)
        for (path, first), (qualname, __) in functions.items()
        if (path, qualname) in allowed and (path, first) in hits
    )
    print(
        f"{len(functions)} functions under src/repro: "
        f"{sum(key in hits for key in functions)} reached, {len(allowed)} allowlisted, "
        f"{len(unreached)} unreached"
    )
    for path, qualname in allowed_but_reached:
        print(f"note: allowlisted but reached, the entry can go: {path}::{qualname}")
    for path, qualname in stale:
        print(f"FAIL: allowlist entry names no function: {path}::{qualname}")
    for path, first, qualname, lines in unreached:
        print(f"FAIL: unreached: src/{path}:{first} {qualname} ({lines} lines)")
    return 1 if stale or unreached else 0


def main() -> int:
    started = time.perf_counter()
    record()
    print(f"entry points ran in {time.perf_counter() - started:.0f} s")
    return check()


if __name__ == "__main__":
    raise SystemExit(main())
