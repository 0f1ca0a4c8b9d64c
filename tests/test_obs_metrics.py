"""The shared metrics registry: counters, gauges, histograms, Prometheus."""

import json
import re

import pytest

from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, Metrics, _prom_value

#: One exposition line: ``name`` or ``name{labels}`` then a number.
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? -?[0-9]+(\.[0-9]+)?(e-?[0-9]+)?$"
)


class TestCounters:
    def test_monotonic_accumulation(self):
        m = Metrics()
        m.inc("requests")
        m.inc("requests", 4)
        assert m.counters["requests"] == 5

    def test_negative_increment_rejected(self):
        m = Metrics()
        with pytest.raises(ValueError):
            m.inc("requests", -1)

    def test_gauge_is_last_write_wins(self):
        m = Metrics()
        m.set_gauge("depth", 3)
        m.set_gauge("depth", 1)
        assert m.gauges["depth"] == 1


class TestHistogramRegistry:
    def test_registers_on_first_use_with_given_bounds(self):
        m = Metrics()
        h = m.histogram("latency", (1.0, 2.0))
        assert h.bounds == (1.0, 2.0)
        assert m.histogram("latency", (9.0,)) is h  # bounds kept

    def test_observe_uses_default_bounds(self):
        m = Metrics()
        m.observe("sizes", 3.0)
        assert m.histograms["sizes"].bounds == DEFAULT_BOUNDS
        assert m.histograms["sizes"].count == 1


class TestSnapshot:
    def test_sorted_and_json_serializable(self):
        m = Metrics()
        m.inc("zebra")
        m.inc("alpha")
        m.set_gauge("gz", 1)
        m.set_gauge("ga", 2)
        m.observe("h", 1.0, bounds=(1.0, 2.0))
        snapshot = m.snapshot()
        assert list(snapshot["counters"]) == ["alpha", "zebra"]
        assert list(snapshot["gauges"]) == ["ga", "gz"]
        json.dumps(snapshot)

    def test_empty_registry_has_defined_shape(self):
        snapshot = Metrics().snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_empty_histogram_fully_defined(self):
        # Regression: every moment/percentile of an empty histogram is a
        # defined zero (never NaN/None), so exports stay diffable.
        m = Metrics()
        m.histogram("h", (1.0, 2.0))
        d = m.snapshot()["histograms"]["h"]
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

    def test_histogram_shape(self):
        m = Metrics()
        for value in (0.5, 1.5, 3.0, 8.0):
            m.observe("h", value, bounds=(1.0, 2.0, 4.0))
        m.observe("one", 0.5, bounds=(1.0, 2.0))
        histograms = m.snapshot()["histograms"]
        assert histograms["h"]["mean"] == pytest.approx(3.25)
        assert histograms["one"]["buckets"] == {"1.0": 1, "2.0": 0, "+inf": 0}
        assert histograms["one"]["p50"] == 0.5  # bucket edge clamped to observed max

    def test_insertion_order_does_not_change_snapshot(self):
        a, b = Metrics(), Metrics()
        a.inc("x")
        a.inc("y", 2)
        b.inc("y", 2)
        b.inc("x")
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )


class TestPrometheus:
    def _registry(self):
        m = Metrics()
        m.inc("events", 7)
        m.set_gauge("queue_depth", 3.5)
        m.observe("latency", 0.4, bounds=(1.0, 2.0))
        m.observe("latency", 1.5, bounds=(1.0, 2.0))
        m.observe("latency", 9.0, bounds=(1.0, 2.0))
        return m

    def test_every_line_parses(self):
        text = self._registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                assert line.split()[-1] in {"counter", "gauge", "histogram"}
            else:
                assert PROM_LINE.match(line), line

    def test_histogram_buckets_are_cumulative(self):
        text = self._registry().to_prometheus()
        assert 'repro_latency_bucket{le="1"} 1' in text
        assert 'repro_latency_bucket{le="2"} 2' in text
        assert 'repro_latency_bucket{le="+Inf"} 3' in text
        assert "repro_latency_sum 10.9" in text
        assert "repro_latency_count 3" in text

    def test_names_are_sanitized(self):
        m = Metrics()
        m.inc("weird-name.with/chars")
        text = m.to_prometheus()
        assert "repro_weird_name_with_chars 1" in text

    def test_byte_stable_across_insertion_order(self):
        a, b = Metrics(), Metrics()
        a.inc("x")
        a.set_gauge("g", 1)
        b.set_gauge("g", 1)
        b.inc("x")
        assert a.to_prometheus() == b.to_prometheus()

    def test_integral_floats_print_without_decimal(self):
        assert _prom_value(2.0) == "2"
        assert _prom_value(2.5) == "2.5"


class TestHistogramPrimitive:
    def test_bucketing_and_moments(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            h.observe(value)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]
        assert h.min_value == 0.5 and h.max_value == 8.0
        assert h.total == pytest.approx(13.0)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        h = Histogram(bounds=(1.0,))
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_empty_percentiles_and_moments_are_zero(self):
        h = Histogram(bounds=(1.0, 2.0))
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 0.0
        assert h.count == 0 and h.total == 0.0
        assert h.min_value == h.max_value == 0.0

    def test_percentile_clamped_to_observed_max(self):
        h = Histogram(bounds=(10.0,))
        h.observe(3.0)
        assert h.percentile(0.99) == 3.0
