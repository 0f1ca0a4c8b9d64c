"""The command-line interface, exercised end to end through files."""

import functools
import json

import pytest

from repro.cli import main
from repro.distance.engine import DistanceEngine
from repro.eval import perf


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    trace = root / "trace.jsonl"
    identity = root / "identity.json"
    code = main(
        [
            "corpus", "--apps", "40", "--seed", "3",
            "--out", str(trace), "--identity", str(identity),
        ]
    )
    assert code == 0
    return root, trace, identity


class TestCorpus:
    def test_outputs_exist(self, workspace):
        __, trace, identity = workspace
        assert trace.exists() and trace.stat().st_size > 0
        data = json.loads(identity.read_text())
        assert set(data) == {"android_id", "imei", "imsi", "sim_serial", "carrier"}


class TestLabel:
    def test_prints_table3_view(self, workspace, capsys):
        __, trace, identity = workspace
        assert main(["label", "--trace", str(trace), "--identity", str(identity)]) == 0
        out = capsys.readouterr().out
        assert "suspicious:" in out
        assert "ANDROID_ID" in out


class TestGenerateAndScreen:
    def test_generate_writes_signatures(self, workspace, capsys):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        code = main(
            [
                "generate", "--trace", str(trace), "--identity", str(identity),
                "--sample", "40", "--out", str(sigs),
            ]
        )
        assert code == 0
        from repro.signatures.store import SignatureStore

        assert SignatureStore.load(sigs)

    def test_screen_reports_metrics(self, workspace, capsys):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        if not sigs.exists():
            main(
                [
                    "generate", "--trace", str(trace), "--identity", str(identity),
                    "--sample", "40", "--out", str(sigs),
                ]
            )
            capsys.readouterr()
        code = main(
            [
                "screen", "--trace", str(trace), "--signatures", str(sigs),
                "--identity", str(identity), "--sample", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flagged" in out
        assert "TP" in out

    def test_screen_without_ground_truth(self, workspace, capsys):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        if not sigs.exists():
            main(
                [
                    "generate", "--trace", str(trace), "--identity", str(identity),
                    "--sample", "40", "--out", str(sigs),
                ]
            )
            capsys.readouterr()
        assert main(["screen", "--trace", str(trace), "--signatures", str(sigs)]) == 0
        out = capsys.readouterr().out
        assert "TP" not in out  # no metrics without identity


class TestReportCommands:
    def test_report_renders_tables(self, capsys):
        assert main(["report", "--apps", "30", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "Fig 2" in out

    def test_fig4_runs(self, capsys):
        assert main(["fig4", "--apps", "30", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out


class TestAnalyzeAndRedact:
    def test_analyze_prints_coverage(self, workspace, capsys):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        if not sigs.exists():
            main(
                [
                    "generate", "--trace", str(trace), "--identity", str(identity),
                    "--sample", "40", "--out", str(sigs),
                ]
            )
            capsys.readouterr()
        code = main(
            [
                "analyze", "--trace", str(trace), "--identity", str(identity),
                "--signatures", str(sigs),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "prompt rate" in out

    def test_redact_produces_clean_trace(self, workspace, capsys):
        root, trace, identity = workspace
        out_path = root / "redacted.jsonl"
        code = main(
            [
                "redact", "--trace", str(trace), "--identity", str(identity),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "verified clean" in capsys.readouterr().out
        import json

        from repro.dataset.trace import Trace
        from repro.sensitive.identifiers import DeviceIdentity
        from repro.sensitive.payload_check import PayloadCheck

        identity_obj = DeviceIdentity.from_dict(json.loads(identity.read_text()))
        check = PayloadCheck(identity_obj)
        clean = Trace.load_jsonl(out_path)
        assert not any(check.is_sensitive(p) for p in clean.packets[:200])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_all_verbs_listed_and_dispatch(self, capsys):
        from repro.cli import (
            build_parser,
            cmd_serve,
            cmd_service,
            cmd_service_bench,
        )

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        help_text = capsys.readouterr().out
        for verb in (
            "corpus", "label", "generate", "screen", "risk", "export",
            "analyze", "redact", "report", "fig4", "bench", "stream",
            "serve", "arena", "service", "service-bench", "slo", "chaos",
            "federate", "trace", "metrics",
        ):
            assert verb in help_text, verb
        # serve (offline bench) vs service (network server) stay distinct
        assert "OFFLINE" in help_text
        assert "NETWORK-FACING" in help_text
        assert parser.parse_args(["serve", "--quick"]).func is cmd_serve
        assert parser.parse_args(["service"]).func is cmd_service
        assert parser.parse_args(["service-bench", "--quick"]).func is cmd_service_bench

    def test_service_verb_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["service", "--port", "8080", "--db", "x.db"])
        assert (args.host, args.port, args.db) == ("127.0.0.1", 8080, "x.db")
        assert args.ready_file == ""




class TestExport:
    def test_export_mitmproxy(self, workspace, capsys, tmp_path):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        if not sigs.exists():
            main(
                [
                    "generate", "--trace", str(trace), "--identity", str(identity),
                    "--sample", "40", "--out", str(sigs),
                ]
            )
            capsys.readouterr()
        out = tmp_path / "addon.py"
        assert main(["export", "--signatures", str(sigs), "--out", str(out)]) == 0
        compile(out.read_text(), str(out), "exec")  # valid python

    def test_export_snort(self, workspace, capsys, tmp_path):
        root, trace, identity = workspace
        sigs = root / "signatures.json"
        if not sigs.exists():
            main(
                [
                    "generate", "--trace", str(trace), "--identity", str(identity),
                    "--sample", "40", "--out", str(sigs),
                ]
            )
            capsys.readouterr()
        out = tmp_path / "leaks.rules"
        assert main(
            ["export", "--signatures", str(sigs), "--format", "snort", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("alert tcp")


class TestRisk:
    def test_risk_ranks_population(self, capsys):
        assert main(["risk", "--apps", "30", "--seed", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "static permission risk" in out
        assert "CRITICAL" in out or "HIGH" in out or "MODERATE" in out


class TestChaos:
    def test_renders_sweep_table(self, capsys):
        code = main(
            [
                "chaos", "--apps", "30", "--seed", "1",
                "--sample", "20", "--devices", "2", "--rates", "0,0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "fault%" in out

    def test_rejects_malformed_rates(self, capsys):
        assert main(["chaos", "--rates", "zero,half"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_pipeline_target_renders_and_exits_zero(self, capsys):
        code = main(
            [
                "chaos", "--target", "pipeline", "--apps", "30", "--seed", "1",
                "--sample", "20", "--rates", "0,0.4",
            ]
        )
        assert code == 0  # exit status IS the recovery-invariant verdict
        out = capsys.readouterr().out
        assert "supervised pipeline" in out
        assert "invariant: holds" in out

    def test_pipeline_target_json_reports_invariant(self, capsys):
        code = main(
            [
                "chaos", "--target", "pipeline", "--apps", "30", "--seed", "1",
                "--sample", "20", "--rates", "0.3", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "chaos_pipeline"
        assert data["invariant_holds"] is True
        point = data["points"][0]
        assert point["recovered"] is True
        assert point["matrix_identical"] is True
        assert point["signatures_identical"] is True
        assert point["crash_stages"] == ["payload_check", "distance_matrix", "cut"]

    def test_pipeline_target_rejects_unknown_stage(self, capsys):
        assert (
            main(["chaos", "--target", "pipeline", "--crash-stages", "collect,warp"]) == 2
        )
        assert "warp" in capsys.readouterr().err

    def test_federation_target_renders_and_exits_zero(self, capsys):
        code = main(
            [
                "chaos", "--target", "federation", "--apps", "30", "--seed", "1",
                "--devices", "8", "--reports", "4", "--min-support", "2",
                "--rates", "0,0.4",
            ]
        )
        assert code == 0  # exit status IS the byte-identity verdict
        out = capsys.readouterr().out
        assert "crowdsourced federation" in out
        assert "byte-identity invariant: holds" in out

    def test_federation_target_json_reports_invariant(self, capsys):
        code = main(
            [
                "chaos", "--target", "federation", "--apps", "30", "--seed", "1",
                "--devices", "8", "--reports", "4", "--min-support", "2",
                "--rates", "0.3", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "chaos_federation"
        assert data["invariant_holds"] is True
        point = data["points"][0]
        assert point["signatures_identical"] is True
        assert point["tokens_identical"] is True
        assert point["faults_injected"] > 0


class TestServe:
    def test_quick_serve_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serving.json"
        telemetry = tmp_path / "telemetry"
        code = main(
            [
                "serve", "--quick", "--apps", "40", "--events", "600",
                "--sample", "30", "--seed", "4", "--out", str(out),
                "--telemetry", str(telemetry),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Serving bench" in text
        data = json.loads(out.read_text())
        assert data["bench"] == "serving"
        assert data["violations"] == []
        assert {s["name"] for s in data["scenarios"]} == {"steady", "overload"}
        assert all(s["identical"] for s in data["scenarios"])
        jsonl = sorted(telemetry.glob("serving_*.jsonl"))
        assert len(jsonl) == 2
        last = json.loads(jsonl[0].read_text().splitlines()[-1])
        assert last["kind"] == "summary"


class TestServiceBench:
    def test_quick_service_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service.json"
        code = main(
            [
                "service-bench", "--quick", "--apps", "30", "--clients", "25",
                "--ops", "4", "--sample", "30", "--pool", "8", "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Service bench" in text
        assert "budget: ok" in text
        data = json.loads(out.read_text())
        assert data["bench"] == "service"
        assert data["ok"] is True
        assert data["identical"] is True
        assert data["n_5xx"] == 0
        assert data["server"]["backend"] == "sqlite"
        assert data["republication"]["stale_status"] == 409
        assert data["slo"]["ok"] is True
        assert data["tracing"] == {"enabled": False}

    def test_trace_dir_enables_tracing_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service.json"
        trace_dir = tmp_path / "service_trace"
        code = main(
            [
                "service-bench", "--quick", "--apps", "30", "--clients", "25",
                "--ops", "4", "--sample", "30", "--pool", "8", "--seed", "2",
                "--out", str(out), "--trace-dir", str(trace_dir),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "tracing:" in text
        data = json.loads(out.read_text())
        assert data["tracing"]["enabled"] is True
        assert data["tracing"]["join"]["complete"] is True
        assert data["checks"]["trace_join_complete"] is True
        for name in (
            "client_spans.jsonl", "server_spans.jsonl", "trace_joined.json",
            "access_log.jsonl", "flight_recorder.jsonl",
        ):
            assert (trace_dir / name).exists(), name
        joined = json.loads((trace_dir / "trace_joined.json").read_text())
        assert joined["otherData"]["joined_processes"] == ["client", "server"]


class TestSloVerb:
    def test_bench_mode(self, tmp_path, capsys):
        section = {
            "bench": "service",
            "slo": {
                "objectives": {
                    "availability": {
                        "kind": "availability", "target": 0.999,
                        "compliance": 1.0,
                        "budget": {"allowed_bad": 1.0, "bad": 0,
                                   "consumed": 0.0, "remaining": 1.0},
                        "alerts": [], "ok": True,
                    }
                },
                "page_alerts": 0,
                "ticket_alerts": 0,
                "ok": True,
            },
        }
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps(section))
        code = main(["slo", "--bench", str(path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "SLO report — OK" in text
        assert "availability" in text

    def test_bench_mode_flags_violations(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"bench": "service", "slo": {
            "objectives": {}, "page_alerts": 3, "ticket_alerts": 0, "ok": False,
        }}))
        code = main(["slo", "--bench", str(path)])
        assert code == 1
        text = capsys.readouterr().out
        assert "VIOLATED" in text
        assert "problem:" in text

    def test_access_log_mode_replays(self, tmp_path, capsys):
        log = tmp_path / "access_log.jsonl"
        lines = [
            json.dumps({"kind": "access", "route": "fetch", "status": 200,
                        "ms": 3.0, "trace_id": None})
            for _ in range(5)
        ]
        log.write_text("\n".join(lines) + "\n")
        code = main(["slo", "--access-log", str(log), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "slo"
        assert payload["ok"] is True
        assert payload["objectives"]["availability"]["total"] == 5

    def test_requires_exactly_one_source(self, capsys):
        assert main(["slo"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestBench:
    def test_quick_bench_writes_report(self, tmp_path, capsys, monkeypatch):
        # Small chunks, so the 120-pair parallel arm reaches the pool.
        monkeypatch.setattr(
            perf, "DistanceEngine", functools.partial(DistanceEngine, chunk_pairs=16)
        )
        out = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench", "--quick", "--apps", "30", "--sample", "16",
                "--workers", "2", "--seed", "3", "--screen", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Perf bench" in text
        data = json.loads(out.read_text())
        assert data["bench"] == "perf"
        assert data["identical"] is True
        assert data["workers"] == 2
        assert data["cache_parallel"]["workers_used"] == 2
        assert data["violations"] == []


class TestFederate:
    @pytest.fixture(scope="class")
    def quick_run(self, tmp_path_factory):
        # One quick bench shared by the class: the smoke-scale arms still
        # take a few seconds each.
        out = tmp_path_factory.mktemp("federate") / "BENCH_federation.json"
        code = main(["federate", "--quick", "--out", str(out), "--json"])
        return code, out

    def test_quick_federate_writes_report(self, quick_run):
        code, out = quick_run
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bench"] == "federation"
        assert data["violations"] == []
        assert {arm["name"] for arm in data["arms"]} == {"fleet", "single"}

    def test_quick_federate_report_shape(self, quick_run):
        __, out = quick_run
        data = json.loads(out.read_text())
        assert data["ok"] is True
        fleet = next(arm for arm in data["arms"] if arm["name"] == "fleet")
        single = next(arm for arm in data["arms"] if arm["name"] == "single")
        assert fleet["material_fabricated"] == 0  # the k-gate held
        assert fleet["precision"] >= single["precision"]
        assert fleet["ingest"]["accepted"] > 0



class TestJsonFlag:
    """The shared --json report path (bench/serve/chaos/trace/metrics)."""

    def test_bench_json_is_parseable_and_exclusive(self, capsys, monkeypatch):
        # Small chunks, so the 120-pair parallel arm reaches the pool.
        monkeypatch.setattr(
            perf, "DistanceEngine", functools.partial(DistanceEngine, chunk_pairs=16)
        )
        code = main(
            [
                "bench", "--quick", "--apps", "30", "--sample", "16",
                "--workers", "2", "--seed", "3", "--screen", "200", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "perf"
        assert data["ok"] is True
        assert "stages" in data and "cache_counters" in data
        assert data["stages"]["stages"]["matrix_serial"]["count"] == 1
        assert data["cache_parallel"]["workers_used"] == 2
        assert data["cache_counters"]["engine_pair_misses"] > 0

    def test_chaos_json_reports_points(self, capsys):
        code = main(
            [
                "chaos", "--apps", "30", "--seed", "1", "--sample", "20",
                "--devices", "2", "--rates", "0,0.5", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "chaos"
        assert data["n_points"] == 2
        assert data["points"][0]["fault_rate"] == 0.0

    def test_serve_json_is_parseable(self, capsys):
        code = main(
            [
                "serve", "--quick", "--apps", "40", "--events", "400",
                "--sample", "30", "--seed", "4", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "serving"


class TestTrace:
    def test_writes_artifacts_and_profile(self, tmp_path, capsys):
        out = tmp_path / "trace_out"
        code = main(
            ["trace", "--apps", "15", "--sample", "12", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Stage profile" in text
        for name in ("spans.jsonl", "trace.json", "metrics.prom", "stages.json"):
            assert (out / name).exists(), name
        stages = json.loads((out / "stages.json").read_text())
        assert stages["stages"]["distance_matrix"]["count"] == 1

    def test_trace_json_output(self, tmp_path, capsys):
        out = tmp_path / "trace_out"
        code = main(
            [
                "trace", "--apps", "15", "--sample", "12", "--seed", "2",
                "--out", str(out), "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_signatures"] >= 1
        assert set(data["artifacts"]) == {"chrome", "metrics", "spans", "stages"}


class TestMetrics:
    def test_writes_registry_and_counters(self, tmp_path, capsys):
        out = tmp_path / "metrics_out"
        code = main(
            [
                "metrics", "--apps", "15", "--events", "150", "--sample", "12",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Serving metrics" in text
        assert "flow_decisions" in text
        prom = (out / "metrics.prom").read_text()
        assert "repro_channel_publishes 2" in prom
        assert (out / "spans.jsonl").exists()
        assert (out / "serving_spans.jsonl").exists()

    def test_metrics_json_output(self, tmp_path, capsys):
        out = tmp_path / "metrics_out"
        code = main(
            [
                "metrics", "--apps", "15", "--events", "150", "--sample", "12",
                "--seed", "2", "--out", str(out), "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["flow_decisions"] > 0
        assert data["events"] == 150


class TestArena:
    ARGS = [
        "arena", "--apps", "40", "--rounds", "2", "--train", "72",
        "--leak", "32", "--benign", "48", "--families", "padding_chaff",
        "--seed", "5",
    ]

    def test_small_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_arena.json"
        code = main([*self.ARGS, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Arena bench" in text
        assert "budget: ok" in text
        report = json.loads(out.read_text())
        assert report["bench"] == "arena"
        assert report["ok"] is True
        assert report["recovered"] is True
        assert list(report["families"]) == ["padding_chaff"]

    def test_arena_json_output(self, capsys):
        code = main([*self.ARGS, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ground_truth_intact"] is True
        assert data["families"]["padding_chaff"]["rounds"]

    def test_quick_flag_clamps_scale(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["arena", "--quick"])
        assert args.quick
        assert (args.apps, args.rounds) == (120, 6)  # clamped inside cmd_arena


class TestStream:
    def test_quick_run_writes_report_and_audit(self, tmp_path, capsys):
        out = tmp_path / "BENCH_streaming.json"
        audit_out = tmp_path / "AUDIT_streaming.json"
        code = main(
            [
                "stream", "--quick", "--apps", "40", "--base", "40",
                "--batch", "20", "--batches", "2", "--seed", "3",
                "--out", str(out), "--audit-out", str(audit_out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Streaming bench" in text
        assert "budget: ok" in text
        report = json.loads(out.read_text())
        assert report["bench"] == "streaming"
        assert report["identical"] is True
        assert report["ok"] is True
        audit = json.loads(audit_out.read_text())
        assert audit["bench"] == "streaming_audit"
        assert audit["audit"]["signatures_identical"] is True

    def test_stream_json_output(self, capsys):
        code = main(
            [
                "stream", "--quick", "--apps", "40", "--base", "40",
                "--batch", "20", "--batches", "1", "--seed", "3", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "exact"
        assert data["audit"]["f1"] == 1.0
        assert data["recompute"]["pairs_evaluated"] < data["recompute"]["full_pairs"]
