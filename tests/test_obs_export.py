"""Exporter validity: JSONL round-trips, Chrome traces are well-formed,
Prometheus text parses, and same-seed runs are byte-identical."""

import json
import re

import pytest

from repro.obs import (
    Observability,
    TraceContext,
    Tracer,
    export_chrome_trace,
    export_spans_jsonl,
)
from repro.obs.export import chrome_trace_events
from repro.obs.scenarios import run_traced_pipeline

PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? -?[0-9]+(\.[0-9]+)?(e-?[0-9]+)?$"
)


@pytest.fixture()
def traced_obs():
    """A small hand-built span tree across two tracks."""
    obs = Observability.create(seed=1, config={"unit": "test"})
    with obs.span("root", track="pipeline", n=3):
        obs.advance(3)
        with obs.span("child", track="engine"):
            obs.advance(2)
        with obs.span("child", track="engine"):
            obs.advance(1)
    obs.inc("widgets", 4)
    obs.observe("latency", 2.0, bounds=(1.0, 4.0))
    return obs


class TestSpanJsonl:
    def test_every_line_roundtrips(self, traced_obs, tmp_path):
        path = export_spans_jsonl(traced_obs.tracer, tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "run"
        assert lines[0]["run_id"] == traced_obs.tracer.run_id
        spans = lines[1:]
        assert all(line["kind"] == "span" for line in spans)
        assert [line["span_id"] for line in spans] == sorted(
            line["span_id"] for line in spans
        )
        root = spans[0]
        assert root["name"] == "root" and root["attrs"] == {"n": 3}
        assert root["duration_ticks"] == root["end_tick"] - root["start_tick"]

    def test_no_wall_field_without_wall_clock(self, traced_obs, tmp_path):
        path = export_spans_jsonl(traced_obs.tracer, tmp_path / "spans.jsonl")
        assert "wall_s" not in path.read_text()


class TestChromeTrace:
    def test_document_shape(self, traced_obs, tmp_path):
        path = export_chrome_trace(traced_obs.tracer, tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert document["otherData"]["run_id"] == traced_obs.tracer.run_id
        events = document["traceEvents"]
        assert all("ph" in e for e in events)
        assert {e["ph"] for e in events} == {"M", "X"}

    def test_metadata_names_every_track(self, traced_obs):
        events = chrome_trace_events(traced_obs.tracer)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"pipeline", "engine"}

    def test_timestamps_monotonic_per_track(self, traced_obs):
        events = [e for e in chrome_trace_events(traced_obs.tracer) if e["ph"] == "X"]
        by_tid: dict[int, list[int]] = {}
        for event in events:
            assert event["pid"] == 1
            assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
            assert event["dur"] > 0
            by_tid.setdefault(event["tid"], []).append(event["ts"])
        assert by_tid  # at least one track
        for timestamps in by_tid.values():
            assert timestamps == sorted(timestamps)

    def test_span_attrs_land_in_args(self, traced_obs):
        events = chrome_trace_events(traced_obs.tracer)
        root = next(e for e in events if e["ph"] == "X" and e["name"] == "root")
        assert root["args"]["n"] == 3
        assert root["args"]["parent_id"] is None


class TestRequestContext:
    def test_trace_ids_exported_only_for_a_span_with_a_context(self, tmp_path):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        tracer = Tracer("service")
        with tracer.span("fetch", context=context):
            with tracer.span("repository_read"):
                pass
        with tracer.span("healthz"):
            pass
        path = export_spans_jsonl(tracer, tmp_path / "spans.jsonl")
        traced, child, untraced = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert (traced["trace_id"], traced["parent_span_id"]) == ("ab" * 16, "cd" * 8)
        for record in (child, untraced):
            assert "trace_id" not in record and "parent_span_id" not in record
        args = {e["name"]: e["args"] for e in chrome_trace_events(tracer) if e["ph"] == "X"}
        assert args["fetch"]["trace_id"] == "ab" * 16
        assert args["fetch"]["parent_span_id"] == "cd" * 8
        assert "trace_id" not in args["healthz"]


class TestPrometheusExport:
    def test_text_parses(self, traced_obs):
        for line in traced_obs.metrics.to_prometheus().splitlines():
            if not line.startswith("#"):
                assert PROM_LINE.match(line), line


class TestScenarioDeterminism:
    def test_same_seed_runs_byte_identical(self, tmp_path):
        kwargs = dict(n_apps=12, sample=10, seed=5)
        first = run_traced_pipeline(out_dir=tmp_path / "a", **kwargs)
        second = run_traced_pipeline(out_dir=tmp_path / "b", **kwargs)
        assert first.summary == second.summary
        for key, path in first.paths.items():
            assert path.read_bytes() == second.paths[key].read_bytes(), key

    def test_different_seed_changes_run_id(self, tmp_path):
        first = run_traced_pipeline(n_apps=12, sample=10, seed=5, out_dir=tmp_path / "a")
        second = run_traced_pipeline(n_apps=12, sample=10, seed=6, out_dir=tmp_path / "b")
        assert first.summary["run_id"] != second.summary["run_id"]

    def test_pipeline_scenario_artifacts_are_valid(self, tmp_path):
        artifacts = run_traced_pipeline(n_apps=12, sample=10, seed=5, out_dir=tmp_path)
        for line in (tmp_path / "spans.jsonl").read_text().splitlines():
            json.loads(line)
        json.loads((tmp_path / "trace.json").read_text())
        stages = json.loads((tmp_path / "stages.json").read_text())
        # The acceptance bar: at least six distinct pipeline stages, each
        # with nonzero self-time in the rollup.
        stage_names = {
            "collect", "payload_check", "sample", "distance_matrix",
            "linkage", "cut", "signature_gen", "eval",
        }
        assert stage_names <= set(stages["stages"])
        for name in stage_names:
            assert stages["stages"][name]["self_ticks"] > 0, name
        assert artifacts.profile.stages["pipeline_run"].self_ticks > 0
