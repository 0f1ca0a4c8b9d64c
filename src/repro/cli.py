"""Command-line interface: the paper's workflow as shell commands.

::

    repro corpus  --apps 300 --seed 0 --out trace.jsonl --identity id.json
    repro label   --trace trace.jsonl --identity id.json
    repro generate --trace trace.jsonl --identity id.json \
                   --sample 200 --out signatures.json
    repro screen  --trace trace.jsonl --signatures signatures.json \
                   [--identity id.json]
    repro analyze --trace trace.jsonl --identity id.json \
                   --signatures signatures.json
    repro redact  --trace trace.jsonl --identity id.json --out clean.jsonl
    repro risk    --apps 300 --seed 0 --top 10
    repro export  --signatures signatures.json --format snort --out leaks.rules
    repro report  --apps 300 --seed 0
    repro fig4    --apps 300 --seed 0
    repro chaos   --apps 80 --seed 0 --rates 0,0.1,0.25,0.5
    repro arena   --apps 120 --seed 0 --out BENCH_arena.json
    repro service --apps 120 --port 8080 --db service.sqlite3 \
                   [--trace-dir service_trace]
    repro slo     --access-log service_trace/access_log.jsonl
    repro trace   --apps 60 --sample 40 --seed 0 --out trace_out
    repro metrics --apps 60 --events 1200 --seed 0 --out metrics_out

``service`` boots the network-facing HTTP signature service on a real
port; every other verb runs in-process on files and simulated ticks.
With ``--trace-dir`` the service traces each request on the same
logical-tick spans ``trace`` writes: the access log (per-request wall
ms, what ``slo`` replays) grows as requests finish, and ``spans.jsonl``,
``trace.json`` and ``flight_recorder.jsonl`` are written when the
service stops on SIGINT or SIGTERM.
Speed is measured by the benchmark of record, ``python3 -m bench.run``,
which boots ``repro service`` for its socket workloads.

``arena``, ``chaos``, ``slo``, ``trace``, and ``metrics`` accept
``--json`` to print their report as stable JSON instead of the table
(exit codes unchanged — ``arena`` still exits nonzero on a budget
violation).

Trace paths ending in ``.gz`` are read/written gzip-compressed.
Every command except ``service`` is pure computation over files — no
network, no device.
Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

from repro.dataset.stats import destination_table, fanout_cdf, fanout_summary, sensitive_table
from repro.dataset.trace import Trace
from repro.eval.metrics import compute_metrics
from repro.sensitive.identifiers import DeviceIdentity
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.matcher import SignatureMatcher
from repro.signatures.store import SignatureStore
from repro.simulation.corpus import build_corpus


def _load_identity(path: str) -> DeviceIdentity:
    return DeviceIdentity.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def emit_report(args: argparse.Namespace, text: str, payload: dict) -> None:
    """Print one report, honouring the subcommand's ``--json`` flag.

    Every reporting subcommand routes through here so the machine-readable
    path is uniform: ``--json`` prints the payload as stable (sorted-key,
    2-space-indented) JSON on stdout and suppresses the human rendering;
    exit codes are unaffected either way.
    """
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print the report as JSON on stdout instead of the table",
    )


def cmd_corpus(args: argparse.Namespace) -> int:
    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    corpus.trace.save_jsonl(args.out)
    Path(args.identity).write_text(
        json.dumps(corpus.device.identity.to_dict(), indent=2), encoding="utf-8"
    )
    print(f"wrote {len(corpus.trace)} packets from {corpus.n_apps} apps to {args.out}")
    print(f"wrote device identity to {args.identity}")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    trace = Trace.load_jsonl(args.trace)
    check = PayloadCheck(_load_identity(args.identity))
    suspicious, normal = check.split(trace)
    print(f"packets   : {len(trace)}")
    print(f"suspicious: {len(suspicious)} ({100 * len(suspicious) / len(trace):.1f}%)")
    print(f"normal    : {len(normal)}")
    rows = sensitive_table(trace, check)
    print(f"\n{'identifier':<18} {'pkts':>7} {'apps':>5} {'dests':>6}")
    for row in sorted(rows, key=lambda r: -r.packets):
        print(f"{row.label:<18} {row.packets:>7d} {row.apps:>5d} {row.destinations:>6d}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.server import ServerConfig, SignatureServer

    trace = Trace.load_jsonl(args.trace)
    check = PayloadCheck(_load_identity(args.identity))
    server = SignatureServer(check, config=ServerConfig(workers=args.workers))
    n_suspicious, __ = server.ingest(trace)
    if not n_suspicious:
        print("no sensitive packets found; nothing to generate", file=sys.stderr)
        return 1
    result = server.generate(args.sample, seed=args.seed)
    SignatureStore.save(result.signatures, args.out)
    print(f"clustered {len(result.sample)} packets -> {len(result.signatures)} signatures")
    for signature in result.signatures:
        print(f"  {signature.describe()}")
    print(f"wrote {args.out}")
    return 0


def cmd_screen(args: argparse.Namespace) -> int:
    trace = Trace.load_jsonl(args.trace)
    signatures = SignatureStore.load(args.signatures)
    matcher = SignatureMatcher(signatures)
    flagged = [p for p in trace if matcher.is_sensitive(p)]
    print(f"screened {len(trace)} packets with {len(signatures)} signatures")
    print(f"flagged  {len(flagged)} ({100 * len(flagged) / max(1, len(trace)):.1f}%)")
    if args.identity:
        check = PayloadCheck(_load_identity(args.identity))
        suspicious, normal = check.split(trace)
        n_sample = min(args.sample, len(suspicious) - 1)
        metrics = compute_metrics(matcher, suspicious, normal, n_sample=max(0, n_sample))
        print(
            f"vs ground truth: TP {metrics.tp_percent:.1f}%  "
            f"FN {metrics.fn_percent:.1f}%  FP {metrics.fp_percent:.2f}%"
        )
    by_app: dict[str, int] = {}
    for packet in flagged:
        by_app[packet.app_id] = by_app.get(packet.app_id, 0) + 1
    print("\ntop flagged applications:")
    for app, count in sorted(by_app.items(), key=lambda kv: -kv[1])[:10]:
        print(f"  {app:<32} {count}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.signatures.analysis import (
        coverage_by_label,
        expected_prompt_rate,
        render_coverage,
        verbosity_report,
    )

    trace = Trace.load_jsonl(args.trace)
    check = PayloadCheck(_load_identity(args.identity))
    signatures = SignatureStore.load(args.signatures)
    suspicious, normal = check.split(trace)
    print(render_coverage(coverage_by_label(signatures, suspicious, check)))
    print(f"\nexpected prompt rate on clean traffic: "
          f"{100 * expected_prompt_rate(signatures, normal):.2f}%")
    risky = [r for r in verbosity_report(signatures) if r.risky]
    if risky:
        print("\nrisky (short, unscoped) signatures:")
        for report in risky:
            print(f"  {report.signature.describe()}")
    else:
        print("no match-everything-risk signatures found")
    return 0


def cmd_redact(args: argparse.Namespace) -> int:
    from repro.dataset.redact import TraceRedactor

    trace = Trace.load_jsonl(args.trace)
    redactor = TraceRedactor(_load_identity(args.identity))
    clean = redactor.redact_trace(trace)
    assert redactor.verify_clean(clean)
    clean.save_jsonl(args.out)
    print(f"redacted {len(trace)} packets -> {args.out} (verified clean)")
    return 0


def cmd_risk(args: argparse.Namespace) -> int:
    from repro.android.risk import rank_population, summarize

    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    histogram = summarize(corpus.apps)
    print("static permission risk (paper Section III-A):")
    for level, count in histogram.items():
        print(f"  {level.name:<9} {count:>5d}")
    print("\nmost dangerous applications:")
    for assessment in rank_population(corpus.apps)[: args.top]:
        print(f"  {assessment.package:<34} {assessment.level.name}")
        for reason in assessment.reasons:
            print(f"      - {reason}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.signatures.export import to_mitmproxy_script, to_snort_rules

    signatures = SignatureStore.load(args.signatures)
    if args.format == "mitmproxy":
        output = to_mitmproxy_script(signatures)
    else:
        output = to_snort_rules(signatures)
    Path(args.out).write_text(output, encoding="utf-8")
    print(f"exported {len(signatures)} signatures as {args.format} -> {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import render_fig2, render_table1, render_table2, render_table3

    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    check = corpus.payload_check()
    scale = corpus.n_apps / 1188
    print(render_table1(corpus.apps))
    print()
    print(render_table2(destination_table(corpus.trace), scale=scale))
    print()
    print(render_table3(sensitive_table(corpus.trace, check), scale=scale))
    print()
    print(render_fig2(fanout_summary(corpus.trace), fanout_cdf(corpus.trace)))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"--rates must be comma-separated numbers, got {args.rates!r}", file=sys.stderr)
        return 2
    if not rates or any(not 0.0 <= rate < 1.0 for rate in rates):
        print(f"--rates must be one or more values in [0, 1), got {args.rates!r}", file=sys.stderr)
        return 2
    if args.target == "federation":
        # Checked here rather than by catching FederationError, which also
        # reports real delivery faults.
        for flag, value in (("--devices", args.devices), ("--reports", args.reports)):
            if value < 1:
                print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
                return 2
    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    if args.target == "pipeline":
        from repro.eval.chaos import (
            pipeline_chaos_report,
            render_pipeline_chaos,
            run_pipeline_chaos_sweep,
        )
        from repro.core.pipeline import PIPELINE_STAGES

        crash_stages = [s.strip() for s in args.crash_stages.split(",") if s.strip()]
        unknown = [s for s in crash_stages if s not in PIPELINE_STAGES]
        if unknown:
            print(
                f"--crash-stages must name pipeline stages {PIPELINE_STAGES}, "
                f"got {unknown}",
                file=sys.stderr,
            )
            return 2
        points = run_pipeline_chaos_sweep(
            corpus.trace,
            corpus.payload_check(),
            rates,
            crash_stages=crash_stages,
            n_sample=args.sample,
            seed=args.seed,
        )
        emit_report(args, render_pipeline_chaos(points), pipeline_chaos_report(points))
        # The exact-recovery invariant is the whole point of this sweep;
        # CI keys off the exit status.
        return 0 if all(point.invariant_holds for point in points) else 1
    if args.target == "federation":
        from repro.eval.chaos import (
            federation_chaos_report,
            render_federation_chaos,
            run_federation_chaos_sweep,
        )

        points = run_federation_chaos_sweep(
            corpus,
            rates,
            n_devices=args.devices,
            reports_per_device=args.reports,
            min_support=args.min_support,
            seed=args.seed,
        )
        emit_report(args, render_federation_chaos(points), federation_chaos_report(points))
        # Byte-identity under device faults is this sweep's invariant;
        # CI keys off the exit status.
        return 0 if all(point.invariant_holds for point in points) else 1
    from repro.errors import SimulationError
    from repro.eval.chaos import chaos_report, render_chaos, run_chaos_sweep

    try:
        points = run_chaos_sweep(
            corpus.trace,
            corpus.payload_check(),
            rates,
            n_sample=args.sample,
            n_devices=args.devices,
            seed=args.seed,
        )
    except SimulationError as exc:
        print(exc, file=sys.stderr)
        return 2
    emit_report(args, render_chaos(points), chaos_report(points))
    return 0


def cmd_arena(args: argparse.Namespace) -> int:
    from repro.arena import ArenaBudget, run_arena

    if not (math.isfinite(args.threshold) and args.threshold > 0):
        print(f"--threshold must be finite and positive, got {args.threshold!r}", file=sys.stderr)
        return 2
    if args.quick:
        # Smoke configuration: every recovery gate still applies in full
        # — only the corpus/round scale shrinks.
        n_apps = min(args.apps, 60)
        rounds = min(args.rounds, 4)
        train = min(args.train, 96)
        leak = min(args.leak, 64)
        benign = min(args.benign, 96)
    else:
        n_apps, rounds = args.apps, args.rounds
        train, leak, benign = args.train, args.leak, args.benign
    budget = ArenaBudget(
        max_rounds_to_recovery=args.budget_recovery,
        max_evasion_half_life=args.budget_half_life,
        max_fp_regression=args.budget_fp_regression,
    )
    families = [f.strip() for f in args.families.split(",") if f.strip()] or None
    report = run_arena(
        n_apps=n_apps,
        seed=args.seed,
        rounds=rounds,
        train=train,
        leak=leak,
        benign=benign,
        families=families,
        epsilon=args.epsilon,
        threshold=args.threshold,
        workers=args.workers,
        budget=budget,
    )
    emit_report(args, report.render(), report.to_dict())
    if args.out:
        report.save(args.out)
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _boot_signatures(args: argparse.Namespace) -> list:
    """Boot set for ``repro service``: a file if given, else generated."""
    if args.signatures:
        return SignatureStore.load(args.signatures)
    from repro.core.server import SignatureServer

    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    server = SignatureServer(corpus.payload_check())
    server.ingest(corpus.trace)
    return list(server.generate(args.sample, seed=args.seed).signatures)


def cmd_service(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, ServiceServer, SignatureService

    service = SignatureService(
        _boot_signatures(args),
        db_path=args.db or None,
        config=ServiceConfig(trace_dir=args.trace_dir or None),
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = server.address  # bound at construction, before serving
    # SIGTERM (a plain `kill`) stops the server the way Ctrl-C does, so
    # storage is closed and the trace directory is written either way.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if args.ready_file:
            # CI and scripts bind port 0 and read the real address from here.
            Path(args.ready_file).write_text(f"{host}:{port}\n", encoding="utf-8")
        print(f"repro service listening on http://{host}:{port} "
              f"(backend={'sqlite' if service.store is not None else 'memory'})")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
        service.close()
    return 0


def _render_slo(payload: dict) -> str:
    """Human rendering of one SLO report section."""
    verdict = "OK" if payload.get("ok") else "VIOLATED"
    lines = [
        f"SLO report — {verdict} "
        f"(page_alerts={payload.get('page_alerts', 0)} "
        f"ticket_alerts={payload.get('ticket_alerts', 0)})",
        f"  {'objective':<16} {'kind':<12} {'target':>8} {'compliance':>11} "
        f"{'budget left':>12} {'ok':>4}",
    ]
    objectives = payload.get("objectives") or {}
    for name in sorted(objectives):
        obj = objectives[name]
        budget = obj.get("budget") or {}
        lines.append(
            f"  {name:<16} {obj.get('kind', '?'):<12} {obj.get('target', 0):>8} "
            f"{obj.get('compliance', 0):>11.6f} "
            f"{budget.get('remaining', 0):>12} "
            f"{'yes' if obj.get('ok') else 'NO':>4}"
        )
    return "\n".join(lines)


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import check_slo_section, replay_access_log

    payload = replay_access_log(args.access_log).report()
    payload["bench"] = "slo"
    payload["source"] = str(args.access_log)
    problems = check_slo_section(payload)
    text = _render_slo(payload)
    if problems:
        text += "\n" + "\n".join(f"  problem: {p}" for p in problems)
    emit_report(args, text, payload)
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if not problems else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.scenarios import run_traced_pipeline

    artifacts = run_traced_pipeline(
        n_apps=args.apps,
        sample=args.sample,
        seed=args.seed,
        workers=args.workers,
        out_dir=args.out,
    )
    lines = [artifacts.profile.render(), ""]
    lines.extend(
        f"wrote {artifacts.paths[key]}" for key in ("spans", "chrome", "metrics", "stages")
    )
    lines.append("open trace.json in chrome://tracing or https://ui.perfetto.dev")
    payload = dict(artifacts.summary)
    payload["artifacts"] = {key: str(path) for key, path in sorted(artifacts.paths.items())}
    payload["stages"] = artifacts.profile.to_dict()
    emit_report(args, "\n".join(lines), payload)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.scenarios import run_traced_serving

    artifacts = run_traced_serving(
        n_apps=args.apps,
        events=args.events,
        sample=args.sample,
        seed=args.seed,
        out_dir=args.out,
    )
    metrics = artifacts.obs.metrics
    lines = [
        f"Serving metrics — run {artifacts.summary['run_id']}",
        f"  events={artifacts.summary['events']} "
        f"screened={artifacts.summary['screened']} shed={artifacts.summary['shed']}",
        f"  {'counter':<32} {'value':>10}",
    ]
    lines.extend(
        f"  {name:<32} {count:>10d}" for name, count in sorted(metrics.counters.items())
    )
    lines.append("")
    lines.extend(f"wrote {path}" for __, path in sorted(artifacts.paths.items()))
    payload = dict(artifacts.summary)
    payload["artifacts"] = {key: str(path) for key, path in sorted(artifacts.paths.items())}
    payload["gauges"] = dict(sorted(metrics.gauges.items()))
    emit_report(args, "\n".join(lines), payload)
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_fig4_sweep, scaled_sweep
    from repro.eval.report import render_fig4

    corpus = build_corpus(n_apps=args.apps, seed=args.seed)
    check = corpus.payload_check()
    suspicious, __ = check.split(corpus.trace)
    sizes = scaled_sweep(len(suspicious))
    points = run_fig4_sweep(corpus.trace, check, sizes, seed=args.seed)
    print(render_fig4(points))
    return 0


#: ``--workers`` help for the commands whose output carries engine cache
#: counters; they stay serial by default so reruns reproduce those counters.
SERIAL_WORKERS_HELP = (
    "distance-engine processes (0 = one per usable CPU; default 1 = serial, "
    "which keeps the engine cache counters in the output deterministic: under "
    "a pool they depend on which worker took which chunk)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Signature generation for sensitive information leakage "
        "in Android application HTTP traffic (Kuzuno & Tonami 2013, reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="build a synthetic corpus and save the trace")
    p.add_argument("--apps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.jsonl")
    p.add_argument("--identity", default="identity.json")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("label", help="payload-check a trace (Table III view)")
    p.add_argument("--trace", required=True)
    p.add_argument("--identity", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("generate", help="cluster sensitive packets, emit signatures")
    p.add_argument("--trace", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--sample", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0,
                   help="distance-engine processes (0 = one per usable CPU; "
                        "the signatures are identical for every value)")
    p.add_argument("--out", default="signatures.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("screen", help="screen a trace against a signature set")
    p.add_argument("--trace", required=True)
    p.add_argument("--signatures", required=True)
    p.add_argument("--identity", default="", help="optional ground truth for metrics")
    p.add_argument("--sample", type=int, default=200, help="N used for the metric correction")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("risk", help="static permission-risk ranking of a corpus")
    p.add_argument("--apps", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("export", help="export signatures for external tools")
    p.add_argument("--signatures", required=True)
    p.add_argument("--format", choices=("mitmproxy", "snort"), default="mitmproxy")
    p.add_argument("--out", default="signatures_export.txt")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("analyze", help="signature-set quality analytics")
    p.add_argument("--trace", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--signatures", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("redact", help="scrub identifiers from a trace for sharing")
    p.add_argument("--trace", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--out", default="trace.redacted.jsonl")
    p.set_defaults(func=cmd_redact)

    p = sub.add_parser("report", help="render Tables I-III and Fig 2 for a corpus")
    p.add_argument("--apps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fig4", help="run the Fig 4 detection sweep")
    p.add_argument("--apps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser(
        "arena",
        help="adversarial evasion arena: seeded attacker mutations vs the "
        "self-healing regeneration loop; emits BENCH_arena.json",
    )
    p.add_argument("--apps", type=int, default=120)
    p.add_argument("--rounds", type=int, default=6, help="attack rounds per family")
    p.add_argument("--train", type=int, default=160,
                   help="sensitive packets in the pre-attack training split")
    p.add_argument("--leak", type=int, default=96,
                   help="leaking packets mutated each round")
    p.add_argument("--benign", type=int, default=128,
                   help="benign packets interleaved each round")
    p.add_argument("--families", default="",
                   help="comma-separated mutation families (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="recall tolerance band around pre-attack recall")
    p.add_argument("--threshold", type=float, default=1.2,
                   help="absolute clustering/generation cut height")
    p.add_argument("--workers", type=int, default=1,
                   help=SERIAL_WORKERS_HELP)
    p.add_argument("--budget-recovery", type=int, default=3,
                   help="max rounds-to-recovery per family")
    p.add_argument("--budget-half-life", type=float, default=3.0,
                   help="max evasion half-life (rounds) per family")
    p.add_argument("--budget-fp-regression", type=float, default=0.02,
                   help="max benign FP-rate rise over the pre-attack rate")
    p.add_argument("--quick", action="store_true", help="smoke scale for CI")
    p.add_argument("--out", default="", help="write the JSON report here")
    add_json_flag(p)
    p.set_defaults(func=cmd_arena)

    p = sub.add_parser(
        "service",
        help="boot the network-facing HTTP signature service on a real port "
        "(publish/fetch/screen/reports/metrics/healthz)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = ephemeral; see --ready-file)")
    p.add_argument("--db", default="",
                   help="sqlite file for durable state (default: in-memory)")
    p.add_argument("--signatures", default="",
                   help="boot signature document (default: generate from a corpus)")
    p.add_argument("--apps", type=int, default=120,
                   help="corpus size when generating the boot set")
    p.add_argument("--sample", type=int, default=120,
                   help="M packets per generated boot set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ready-file", default="",
                   help="write 'host:port' here once listening (for scripts/CI)")
    p.add_argument("--trace-dir", default="",
                   help="trace requests: append each to DIR/access_log.jsonl and, "
                        "on shutdown, write DIR/spans.jsonl, trace.json and "
                        "flight_recorder.jsonl")
    p.set_defaults(func=cmd_service)

    p = sub.add_parser(
        "slo", help="replay a service access log through the SLO engine"
    )
    p.add_argument("--access-log", required=True,
                   help="service access_log.jsonl to replay")
    p.add_argument("--out", default="", help="write the JSON report here")
    add_json_flag(p)
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("chaos", help="sweep fault rates over a target subsystem")
    p.add_argument("--target", choices=("distribution", "pipeline", "federation"),
                   default="distribution",
                   help="distribution = server->device transport faults; "
                        "pipeline = supervised execution under worker + stage faults; "
                        "federation = crowdsourced ingest under device faults")
    p.add_argument("--apps", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=60)
    p.add_argument("--devices", type=int, default=6)
    p.add_argument("--rates", default="0,0.1,0.25,0.5",
                   help="comma-separated fault rates in [0,1) (chunk-fault "
                        "rates for --target pipeline)")
    p.add_argument("--crash-stages", default="payload_check,distance_matrix,cut",
                   help="pipeline stages whose boundary gets an injected "
                        "crash, once each (--target pipeline only)")
    p.add_argument("--reports", type=int, default=6,
                   help="honest reports per device (--target federation only)")
    p.add_argument("--min-support", type=int, default=2,
                   help="k-anonymity gate (--target federation only)")
    add_json_flag(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "trace",
        help="run an instrumented pipeline; export spans, Chrome trace, metrics",
    )
    p.add_argument("--apps", type=int, default=60)
    p.add_argument("--sample", type=int, default=40, help="M packets to cluster")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help=SERIAL_WORKERS_HELP)
    p.add_argument("--out", default="trace_out", help="artifact directory")
    add_json_flag(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run an instrumented serving scenario; export the metrics registry",
    )
    p.add_argument("--apps", type=int, default=60)
    p.add_argument("--events", type=int, default=1200, help="gateway arrivals")
    p.add_argument("--sample", type=int, default=40, help="M packets per signature set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="metrics_out", help="artifact directory")
    add_json_flag(p)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
