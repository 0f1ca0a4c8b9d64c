"""The command-line interface, exercised end to end through files."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main


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

    def test_empty_trace_is_one_error_line(self, workspace, capsys, tmp_path):
        __, __, identity = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["label", "--trace", str(empty), "--identity", str(identity)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "the trace holds no packets; nothing to label\n"


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

    def test_screen_ground_truth_without_sensitive_packets(self, workspace, capsys, tmp_path):
        from repro.dataset.trace import Trace
        from repro.sensitive.identifiers import DeviceIdentity
        from repro.sensitive.payload_check import PayloadCheck
        from repro.signatures.conjunction import ConjunctionSignature
        from repro.signatures.store import SignatureStore

        __, trace, identity = workspace
        check = PayloadCheck(DeviceIdentity.from_dict(json.loads(identity.read_text())))
        __, normal = check.split(Trace.load_jsonl(trace))
        clean = tmp_path / "clean.jsonl"
        Trace(normal[:50]).save_jsonl(clean)
        sigs = tmp_path / "signatures.json"
        SignatureStore.save([ConjunctionSignature(tokens=("imei=1234",), label="IMEI")], sigs)
        code = main(
            [
                "screen", "--trace", str(clean), "--signatures", str(sigs),
                "--identity", str(identity), "--sample", "40",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("screened 50 packets with 1 signatures\nflagged  0")
        assert "TP" not in captured.out
        assert captured.err == "no sensitive packets in the trace; ground-truth metrics need one\n"


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
        from repro.cli import build_parser, cmd_service

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        help_text = capsys.readouterr().out
        for verb in (
            "corpus", "label", "generate", "screen", "risk", "export",
            "analyze", "redact", "report", "fig4", "arena", "service",
            "slo", "chaos", "trace", "metrics",
        ):
            assert verb in help_text, verb
        assert parser.parse_args(["service"]).func is cmd_service

    def test_service_verb_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["service", "--port", "8080", "--db", "x.db"])
        assert (args.host, args.port, args.db) == ("127.0.0.1", 8080, "x.db")
        assert args.ready_file == ""
        assert args.trace_dir == ""


def _boot_service(tmp_path):
    """A traced ``repro service`` child; returns it, its address and trace dir."""
    ready, trace_dir = tmp_path / "service.addr", tmp_path / "trace"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "service",
            "--apps", "12", "--sample", "10", "--seed", "0",
            "--ready-file", str(ready), "--trace-dir", str(trace_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60.0
    while not (ready.exists() and ready.read_text().endswith("\n")):
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            process.wait()
            pytest.fail(f"service never became ready: {process.stderr.read()!r}")
        time.sleep(0.05)
    host, __, port = ready.read_text().strip().rpartition(":")
    return process, (host, int(port)), trace_dir


def _stop(process) -> None:
    if process.poll() is None:
        process.kill()
        process.wait()
    process.stderr.close()


class TestServiceShutdown:
    def test_sigterm_stops_cleanly_and_writes_the_trace_directory(self, tmp_path):
        process, (host, port), trace_dir = _boot_service(tmp_path)
        try:
            deadline = time.monotonic() + 60.0
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            connection.close()
            # The access line is written once the route span has closed.
            access_log = trace_dir / "access_log.jsonl"
            while not access_log.read_text():
                assert time.monotonic() < deadline, "request never logged"
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0, process.stderr.read()
        finally:
            _stop(process)
        for name in ("access_log.jsonl", "spans.jsonl", "trace.json", "flight_recorder.jsonl"):
            assert (trace_dir / name).is_file(), name
        spans = (trace_dir / "spans.jsonl").read_text().splitlines()
        assert json.loads(spans[1])["name"] == "healthz"

    def test_sigterm_drains_a_request_in_flight(self, tmp_path):
        process, address, trace_dir = _boot_service(tmp_path)
        body = b"[]"
        head = (
            "POST /v1/reports HTTP/1.1\r\nHost: service\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            with socket.create_connection(address, timeout=10.0) as client:
                # Half the body: the handler enters the route and waits for
                # the rest, so the request is in flight when SIGTERM lands.
                client.sendall(head + body[:1])
                time.sleep(0.5)
                process.send_signal(signal.SIGTERM)
                time.sleep(0.5)
                assert process.poll() is None, "stopped without draining"
                client.sendall(body[1:])
                status_line = client.makefile("rb").readline()
            assert status_line.startswith(b"HTTP/1.1 "), status_line
            assert process.wait(timeout=30.0) == 0, process.stderr.read()
        finally:
            _stop(process)
        spans = [
            json.loads(line) for line in (trace_dir / "spans.jsonl").read_text().splitlines()
        ]
        assert [span["name"] for span in spans[1:]].count("reports") == 1
        access = [
            json.loads(line)
            for line in (trace_dir / "access_log.jsonl").read_text().splitlines()
        ]
        assert [line["route"] for line in access] == ["reports"]


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

    @pytest.mark.parametrize("devices", ["0", "-2"])
    def test_rejects_an_empty_fleet(self, capsys, devices):
        code = main(
            [
                "chaos", "--apps", "30", "--sample", "20",
                "--rates", "0,0.1", "--devices", devices,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"n_devices must be >= 1, got {devices}\n"

    @pytest.mark.parametrize("flag", ["--devices", "--reports"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_federation_target_rejects_an_empty_fleet(self, capsys, flag, value):
        code = main(
            [
                "chaos", "--target", "federation", "--apps", "30", "--sample", "20",
                "--rates", "0,0.1", flag, value,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flag} must be >= 1, got {value}\n"

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


class TestSloVerb:
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


class TestJsonFlag:
    """The shared --json report path."""

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
        assert sorted(path.name for path in out.iterdir()) == ["metrics.prom", "spans.jsonl"]

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

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1", "inf"])
    def test_rejects_a_threshold_that_is_not_finite_and_positive(self, threshold, capsys):
        # A NaN threshold once ended in "ClusteringError: leaf 81 has no children".
        assert main(["arena", "--quick", "--threshold", threshold]) == 2
        err = capsys.readouterr().err
        assert "--threshold must be finite and positive" in err
        assert len(err.strip().splitlines()) == 1

    def test_quick_flag_clamps_scale(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["arena", "--quick"])
        assert args.quick
        assert (args.apps, args.rounds) == (120, 6)  # clamped inside cmd_arena


class TestFlagRanges:
    """Out-of-range numeric flags are one stderr line and exit 2, before any work."""

    # Files named here do not exist: the check runs before anything is read.
    FILES = ["--trace", "missing.jsonl", "--identity", "missing.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus", "--apps", "0"],
            ["risk", "--apps", "0"],
            ["risk", "--top", "-1"],
            ["report", "--apps", "0"],
            ["fig4", "--apps", "0"],
            ["trace", "--apps", "0"],
            ["trace", "--sample", "0"],
            ["trace", "--workers", "-1"],
            ["chaos", "--apps", "0"],
            ["chaos", "--sample", "0"],
            ["chaos", "--target", "pipeline", "--sample", "0"],
            ["chaos", "--target", "federation", "--min-support", "0"],
            ["arena", "--apps", "0"],
            ["arena", "--quick", "--rounds", "0"],
            ["arena", "--quick", "--train", "0"],
            ["arena", "--workers", "-1"],
            ["service", "--apps", "0"],
            ["service", "--sample", "0"],
            ["service", "--port", "70000"],
            ["service", "--port", "-1"],
            ["generate", *FILES, "--sample", "0"],
            ["generate", *FILES, "--workers", "-1"],
            ["metrics", "--apps", "0"],
            ["metrics", "--sample", "0"],
            ["metrics", "--events", "0"],
        ],
        ids=lambda argv: " ".join(arg for arg in argv if arg not in TestFlagRanges.FILES),
    )
    def test_rejected_before_any_work(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag, value = argv[-2:]
        assert captured.err.startswith(f"{flag} must be ")
        assert captured.err.endswith(f", got {value}\n")
        assert captured.err.count("\n") == 1

    def test_port_message_names_the_range(self, capsys):
        assert main(["service", "--port", "65536"]) == 2
        assert capsys.readouterr().err == "--port must be in [0, 65535], got 65536\n"

    def test_bounds_themselves_are_accepted(self):
        from repro.cli import build_parser, flag_range_error

        parser = build_parser()
        for argv in (
            ["risk", "--top", "0"],
            ["service", "--port", "65535"],
            ["generate", *self.FILES, "--sample", "1", "--workers", "0"],
            ["chaos", "--target", "federation", "--sample", "0"],
            ["screen", "--trace", "t", "--signatures", "s", "--sample", "0"],
        ):
            assert flag_range_error(parser.parse_args(argv)) is None, argv
