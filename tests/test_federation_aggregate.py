"""FederatedAggregator and its support store: caps, k-gate, exemplar retention."""

import pytest

from repro.errors import FederationError
from repro.federation.aggregate import (
    AcceptOutcome,
    FederatedAggregator,
    InMemorySupportStore,
)
from repro.federation.report import DeviceReport, token_for
from tests.conftest import make_packet


def report(device: str, token: str, seq: int = 1) -> DeviceReport:
    packet = make_packet(target=f"/r?k={token}")
    return DeviceReport(device_id=device, seq=seq, token=token, packet=packet)


class TestAcceptOutcomes:
    def test_new_pair_counted(self):
        agg = FederatedAggregator()
        assert agg.accept(report("device-00001", "t1")) is AcceptOutcome.COUNTED
        assert agg.store.support("t1") == 1

    def test_same_device_same_token_is_repeat(self):
        agg = FederatedAggregator()
        agg.accept(report("device-00001", "t1", seq=1))
        assert agg.accept(report("device-00001", "t1", seq=2)) is AcceptOutcome.REPEAT
        assert agg.store.support("t1") == 1  # support is distinct devices, not reports

    def test_distinct_devices_accumulate_support(self):
        agg = FederatedAggregator()
        for i in range(5):
            agg.accept(report(f"device-{i:05d}", "t1"))
        assert agg.store.support("t1") == 5

    def test_contribution_cap_blocks_new_tokens(self):
        agg = FederatedAggregator(contribution_cap=2)
        assert agg.accept(report("device-00001", "t1")) is AcceptOutcome.COUNTED
        assert agg.accept(report("device-00001", "t2")) is AcceptOutcome.COUNTED
        assert agg.accept(report("device-00001", "t3")) is AcceptOutcome.CAPPED
        # Repeats of already-held tokens stay free at the cap.
        assert agg.accept(report("device-00001", "t1", seq=9)) is AcceptOutcome.REPEAT
        assert agg.store.support("t3") == 0

    def test_cap_is_per_device(self):
        agg = FederatedAggregator(contribution_cap=1)
        agg.accept(report("device-00001", "t1"))
        assert agg.accept(report("device-00002", "t2")) is AcceptOutcome.COUNTED

    def test_bad_cap_rejected(self):
        with pytest.raises(FederationError):
            FederatedAggregator(contribution_cap=0)


class TestKGate:
    def test_min_support_filters_tokens(self):
        agg = FederatedAggregator()
        for i in range(3):
            agg.accept(report(f"device-{i:05d}", "popular"))
        agg.accept(report("device-00009", "lonely"))
        assert agg.admitted_tokens(1) == ["lonely", "popular"]
        assert agg.admitted_tokens(2) == ["popular"]
        assert agg.admitted_tokens(4) == []

    def test_min_support_validation(self):
        with pytest.raises(FederationError):
            FederatedAggregator().admitted_tokens(0)

    def test_material_sorted_and_content_deduped(self):
        agg = FederatedAggregator()
        # Two devices report byte-identical packets under one token: the
        # material keeps one copy.
        packet = make_packet(target="/track?udid=x")
        token = token_for(packet)
        for device in ("device-00002", "device-00001"):
            agg.accept(DeviceReport(device_id=device, seq=1, token=token, packet=packet))
        material = agg.admitted_material(2)
        assert len(material) == 1
        assert material[0].wire_bytes() == packet.wire_bytes()

    def test_material_is_arrival_order_independent(self):
        reports = [
            report(f"device-{i:05d}", token, seq=i + 1)
            for token in ("ta", "tb")
            for i in range(4)
        ]
        forward = FederatedAggregator()
        backward = FederatedAggregator()
        for item in reports:
            forward.accept(item)
        for item in reversed(reports):
            backward.accept(item)
        def wire(agg):
            return [p.wire_bytes() for p in agg.admitted_material(2)]

        assert wire(forward) == wire(backward)

    def test_stats_shape(self):
        agg = FederatedAggregator()
        agg.accept(report("device-00001", "t1"))
        agg.accept(report("device-00002", "t1"))
        agg.accept(report("device-00001", "t1", seq=5))
        stats = agg.stats()
        assert stats["tokens"] == 1
        assert stats["max_support"] == 2
        assert stats["contributions"]["counted"] == 2
        assert stats["contributions"]["repeat"] == 1


class TestExemplarRetention:
    def test_smallest_pairs_win_regardless_of_order(self):
        devices = [f"device-{i:05d}" for i in range(6)]
        forward = InMemorySupportStore(exemplars_per_token=2)
        backward = InMemorySupportStore(exemplars_per_token=2)
        for store, order in ((forward, devices), (backward, list(reversed(devices)))):
            for i, device in enumerate(order):
                store.add("t", device, i + 1, {"device": device})
        kept_forward = [(d, s) for d, s, _ in forward.exemplars("t")]
        kept_backward = [(d, s) for d, s, _ in backward.exemplars("t")]
        assert [d for d, _ in kept_forward] == devices[:2]
        assert [d for d, _ in kept_backward] == devices[:2]

    def test_exemplar_budget_validated(self):
        with pytest.raises(FederationError):
            InMemorySupportStore(exemplars_per_token=0)
