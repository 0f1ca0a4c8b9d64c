"""Serving telemetry: histograms, counters, spans, JSONL export."""

import json

import pytest

from repro.service.server import SignatureService
from repro.service.wire import encode_event
from repro.serving.loadgen import ScreeningEvent
from repro.serving.telemetry import SPAN_LOG_CAPACITY, Histogram, ServingTelemetry
from repro.signatures.conjunction import ConjunctionSignature


class TestHistogram:
    def test_bucketing_and_moments(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            h.observe(value)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]
        assert h.min_value == 0.5 and h.max_value == 8.0
        assert h.mean == pytest.approx(3.25)

    def test_percentiles_are_bucket_upper_edges(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
        for value in [0.5] * 50 + [1.5] * 40 + [3.0] * 9 + [5.0]:
            h.observe(value)
        assert h.percentile(0.50) == 1.0
        assert h.percentile(0.90) == 2.0
        assert h.percentile(0.99) == 4.0
        assert h.percentile(1.00) == 5.0  # clamped to observed max

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram(bounds=(1.0,))
        h.observe(123.0)
        assert h.percentile(0.99) == 123.0

    def test_empty_histogram(self):
        h = Histogram(bounds=(1.0, 2.0))
        assert h.percentile(0.99) == 0.0
        assert h.mean == 0.0
        assert h.to_dict()["count"] == 0

    def test_empty_histogram_to_dict_fully_defined(self):
        # Regression: every moment/percentile of an empty histogram is a
        # defined zero (never NaN/None), so exports stay diffable.
        d = Histogram(bounds=(1.0, 2.0)).to_dict()
        assert d == {
            "count": 0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "buckets": {"1.0": 0, "2.0": 0, "+inf": 0},
        }
        assert json.dumps(d)  # JSON-clean, no NaN

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        h = Histogram(bounds=(1.0,))
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_to_dict_shape(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        d = h.to_dict()
        assert d["buckets"] == {"1.0": 1, "2.0": 0, "+inf": 0}
        assert d["p50"] == 0.5  # bucket edge clamped to observed max


class TestTelemetry:
    def test_counters_monotonic(self):
        t = ServingTelemetry()
        t.increment("admitted")
        t.increment("admitted", 4)
        assert t.counters["admitted"] == 5
        with pytest.raises(ValueError):
            t.increment("admitted", -1)

    def test_spans_of_filters_by_kind(self):
        t = ServingTelemetry()
        t.span("batch", batch_id=0)
        t.span("reload", generation=2)
        t.span("batch", batch_id=1)
        assert [s["batch_id"] for s in t.spans_of("batch")] == [0, 1]
        assert t.spans_of("reload")[0]["generation"] == 2

    def test_snapshot_is_json_serializable(self):
        t = ServingTelemetry()
        t.increment("batches")
        t.observe("latency_ticks", 3.0)
        snapshot = t.snapshot()
        text = json.dumps(snapshot)
        assert "latency_ticks" in text
        assert snapshot["counters"] == {"batches": 1}
        assert snapshot["histograms"]["latency_ticks"]["count"] == 1

    def test_export_jsonl_roundtrip(self, tmp_path):
        t = ServingTelemetry()
        t.span("batch", batch_id=0, size=3)
        t.observe("queue_depth", 2)
        path = t.export_jsonl(tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"kind": "batch", "batch_id": 0, "size": 3}
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["histograms"]["queue_depth"]["count"] == 1

    def test_snapshot_order_independent_of_insertion(self):
        # Regression: counter insertion order must not leak into the
        # snapshot (or the JSONL summary line built from it).
        a, b = ServingTelemetry(), ServingTelemetry()
        a.increment("zeta")
        a.increment("alpha", 2)
        b.increment("alpha", 2)
        b.increment("zeta")
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        assert list(a.snapshot()["counters"]) == ["alpha", "zeta"]

    def test_empty_telemetry_snapshot_defined(self):
        snapshot = ServingTelemetry().snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == 0
        assert set(snapshot["histograms"]) == {
            "batch_size", "latency_ticks", "queue_depth", "shed_latency_ticks",
        }
        for h in snapshot["histograms"].values():
            assert h["count"] == 0 and h["p99"] == 0.0

    def test_observe_requires_registered_histogram(self):
        t = ServingTelemetry()
        with pytest.raises(KeyError):
            t.observe("unregistered", 1.0)

    def test_shared_registry_merges_counters(self):
        from repro.obs.metrics import Metrics

        metrics = Metrics()
        metrics.inc("channel_publishes")
        t = ServingTelemetry(metrics=metrics)
        t.increment("batches")
        assert metrics.counters == {"channel_publishes": 1, "batches": 1}
        assert "repro_batches 1" in metrics.to_prometheus()


class TestSpanLogBound:
    def test_long_lived_service_keeps_the_newest_spans_and_counts_evictions(
        self, small_corpus
    ):
        service = SignatureService(
            [ConjunctionSignature(tokens=("imei=1234",), label="IMEI")]
        )
        packets = small_corpus.trace.packets[:32]
        body = {
            "events": [
                encode_event(ScreeningEvent(seq=i, tick=float(i), device_id="d", packet=p))
                for i, p in enumerate(packets)
            ]
        }
        telemetry = service.gateway.telemetry
        assert service.screen(body)[0] == 200
        per_post = len(telemetry.spans)
        assert per_post > 1
        assert "span_log_evicted" not in telemetry.counters  # nothing dropped yet
        posts = 2 * SPAN_LOG_CAPACITY // per_post
        for _ in range(posts - 1):
            assert service.screen(body)[0] == 200

        emitted = telemetry.counters["batches"]
        assert emitted == posts * per_post > SPAN_LOG_CAPACITY
        assert len(telemetry.spans) == SPAN_LOG_CAPACITY
        assert telemetry.counters["span_log_evicted"] == emitted - SPAN_LOG_CAPACITY
        # the ring holds the newest spans: the last post's batches, in order
        tail = [span["batch_id"] for span in list(telemetry.spans)[-per_post:]]
        assert tail == list(range(per_post))
        assert "repro_span_log_evicted" in service.metrics_text()
