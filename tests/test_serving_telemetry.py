"""Serving telemetry: the gateway's counters and histograms in its Metrics registry."""

import json

import pytest

from repro.obs.metrics import Histogram, Metrics
from repro.service.repository import InMemorySignatureRepository
from repro.serving.gateway import ScreeningGateway
from repro.serving.loadgen import ScreeningEvent
from repro.signatures.conjunction import ConjunctionSignature
from tests.conftest import make_packet

SIGNATURES = [ConjunctionSignature(tokens=("imei=1234",), label="IMEI")]

GATEWAY_HISTOGRAMS = {"batch_size", "latency_ticks", "queue_depth", "shed_latency_ticks"}


def one_event(seq=0):
    packet = make_packet(target="/p?imei=1234")
    return ScreeningEvent(seq=seq, tick=float(seq), device_id="d", packet=packet)


def boot_gateway(metrics=None):
    envelope = InMemorySignatureRepository().publish(SIGNATURES)
    return ScreeningGateway(
        list(envelope.signatures), metrics=metrics, set_version=envelope.set_version
    )


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram(bounds=(1.0, 2.0))
        assert h.percentile(0.99) == 0.0
        m = Metrics()
        m.histogram("h", (1.0, 2.0))
        d = m.snapshot()["histograms"]["h"]
        assert d["count"] == 0
        assert d["mean"] == 0.0


class TestTelemetry:
    def test_counters_monotonic(self):
        gateway = boot_gateway()
        gateway.run([one_event()])
        counters = gateway.metrics.counters
        assert counters["admitted"] == 1
        gateway.metrics.inc("admitted", 4)
        assert counters["admitted"] == 5
        with pytest.raises(ValueError):
            gateway.metrics.inc("admitted", -1)
        assert counters["admitted"] == 5

    def test_snapshot_is_json_serializable(self):
        gateway = boot_gateway()
        gateway.run([one_event()])
        snapshot = gateway.metrics.snapshot()
        text = json.dumps(snapshot)
        assert "latency_ticks" in text
        assert snapshot["counters"]["batches"] == 1
        assert snapshot["histograms"]["latency_ticks"]["count"] == 1

    def test_snapshot_order_independent_of_insertion(self):
        # Regression: counter insertion order must not leak into the
        # snapshot, whether the gateway or its caller counted first.
        a, b = Metrics(), Metrics()
        a.inc("zeta")
        boot_gateway(a).run([one_event()])
        boot_gateway(b).run([one_event()])
        b.inc("zeta")
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        counters = list(a.snapshot()["counters"])
        assert counters == sorted(counters) and "zeta" in counters

    def test_empty_telemetry_snapshot_defined(self):
        snapshot = boot_gateway().metrics.snapshot()
        assert snapshot["counters"] == {}
        assert set(snapshot["histograms"]) == GATEWAY_HISTOGRAMS
        for h in snapshot["histograms"].values():
            assert h["count"] == 0 and h["p99"] == 0.0

    def test_shared_registry_merges_counters(self):
        metrics = Metrics()
        metrics.inc("channel_publishes")
        gateway = boot_gateway(metrics)
        gateway.run([one_event()])
        assert metrics.counters["channel_publishes"] == 1
        assert metrics.counters["batches"] == 1
        assert "repro_batches 1" in metrics.to_prometheus()
