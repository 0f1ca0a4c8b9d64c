"""Request context and the incident flight recorder."""

import json

import pytest

from repro.obs.context import FlightRecorder, TraceContext, parse_traceparent
from repro.service.server import ServiceConfig, SignatureService
from repro.signatures.conjunction import ConjunctionSignature


class TestTraceContext:
    def test_traceparent_round_trip(self):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert parse_traceparent(f"00-{'ab' * 16}-{'cd' * 8}-01") == context

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            TraceContext(trace_id="0" * 32, span_id="cd" * 8)
        with pytest.raises(ValueError):
            TraceContext(trace_id="ab" * 16, span_id="xyz")

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            "00-" + "ab" * 16,  # missing parts
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # all-zero trace
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",  # short trace id
            "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_parse_is_case_insensitive(self):
        header = f"00-{'AB' * 16}-{'CD' * 8}-01"
        context = parse_traceparent(header)
        assert context is not None
        assert context.trace_id == "ab" * 16


class TestNullObjects:
    def test_null_tracer_yields_none_and_records_nothing(self):
        service = SignatureService(
            [ConjunctionSignature(tokens=("imei=1234",), label="IMEI")],
            config=ServiceConfig(),
        )
        opened = [service.span(name, route="fetch") for name in ("fetch", "repository_read")]
        assert opened[0] is opened[1]
        for context in opened:
            with context as span:
                assert span is None
        assert service.tracer is None


class TestFlightRecorder:
    def test_ring_keeps_only_the_newest_records(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.add({"i": i})
        dump = recorder.trip("5xx", route="screen")
        assert [r["i"] for r in dump["records"]] == [2, 3, 4]
        assert dump["reason"] == "5xx"
        assert dump["detail"] == {"route": "screen"}

    def test_trips_capped_with_suppression_counter(self):
        recorder = FlightRecorder(capacity=2, max_dumps=2)
        recorder.add({"i": 0})
        assert recorder.trip("a") is not None
        assert recorder.trip("b") is not None
        assert recorder.trip("c") is None
        assert recorder.suppressed == 1
        assert len(recorder.dumps) == 2

    def test_export_jsonl_header_and_dumps(self, tmp_path):
        recorder = FlightRecorder(capacity=2)
        recorder.add({"i": 1})
        recorder.trip("shed", shed=3)
        path = recorder.export_jsonl(tmp_path / "flight.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "flight_recorder"
        assert lines[0]["n_dumps"] == 1
        assert lines[1]["kind"] == "flight_dump"
        assert lines[1]["detail"] == {"shed": 3}

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
