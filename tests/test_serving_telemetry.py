"""Serving telemetry: the gateway's counters and histograms in its Metrics registry."""

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
        assert h.count == 0


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

    def test_snapshot_order_independent_of_insertion(self):
        # Regression: counter insertion order must not leak into the
        # snapshot, whether the gateway or its caller counted first.
        a, b = Metrics(), Metrics()
        a.inc("zeta")
        boot_gateway(a).run([one_event()])
        boot_gateway(b).run([one_event()])
        b.inc("zeta")
        assert a.to_prometheus() == b.to_prometheus()
        assert "repro_zeta 1" in a.to_prometheus()

    def test_empty_telemetry_snapshot_defined(self):
        metrics = boot_gateway().metrics
        assert metrics.counters == {}
        assert set(metrics.histograms) == GATEWAY_HISTOGRAMS
        for h in metrics.histograms.values():
            assert h.count == 0 and h.percentile(0.99) == 0.0

    def test_shared_registry_merges_counters(self):
        metrics = Metrics()
        metrics.inc("channel_publishes")
        gateway = boot_gateway(metrics)
        gateway.run([one_event()])
        assert metrics.counters["channel_publishes"] == 1
        assert metrics.counters["batches"] == 1
        assert "repro_batches 1" in metrics.to_prometheus()
