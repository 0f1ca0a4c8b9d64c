"""The combined d_pkt metric and its ablation factories."""

import pytest

from repro.distance.packet import PacketDistance
from repro.errors import DistanceError
from tests.conftest import make_packet


class TestPaperMetric:

    def test_identical_packets_near_zero(self):
        p = make_packet(target="/ad?u=abcdef123456", body=b"k=v&l=w")
        q = make_packet(target="/ad?u=abcdef123456", body=b"k=v&l=w")
        assert PacketDistance.paper().distance(p, q) < 1.0

    def test_same_module_closer_than_cross_module(self):
        metric = PacketDistance.paper()
        a1 = make_packet(
            host="api.ad-maker.info", ip="219.94.128.7",
            target="/api/v2/imp?sid=tok1&imei=358537041234567&aid=aabbccdd11223344",
        )
        a2 = make_packet(
            host="api.ad-maker.info", ip="219.94.128.7",
            target="/api/v2/imp?sid=tok2&imei=358537041234567&aid=aabbccdd11223344",
        )
        other = make_packet(
            host="m.naver.jp", ip="125.209.222.10", target="/matome/feed?page=3&fmt=json",
        )
        assert metric.distance(a1, a2) < metric.distance(a1, other)

    def test_symmetry(self):
        metric = PacketDistance.paper()
        p = make_packet(target="/x?a=1", body=b"one")
        q = make_packet(host="other.net", ip="200.1.1.1", target="/y?b=2", body=b"two")
        assert metric.distance(p, q) == pytest.approx(metric.distance(q, p), abs=0.1)

    def test_callable(self):
        metric = PacketDistance.paper()
        p, q = make_packet(), make_packet()
        assert metric(p, q) == metric.distance(p, q)


class TestAblations:
    def test_destination_only_ignores_content(self):
        metric = PacketDistance.destination_only()
        p = make_packet(target="/completely?different=1", body=b"AAAA")
        q = make_packet(target="/other/path", body=b"ZZZZ")
        assert metric.distance(p, q) == 0.0  # same destination

    def test_content_only_ignores_destination(self):
        metric = PacketDistance.content_only()
        p = make_packet(host="a.one.com", ip="1.1.1.1", target="/same?x=1")
        q = make_packet(host="z.two.net", ip="200.2.2.2", target="/same?x=1")
        dest_metric = PacketDistance.destination_only()
        assert metric.distance(p, q) < dest_metric.distance(p, q)

    def test_weights_scale(self):
        p = make_packet(target="/a?x=1")
        q = make_packet(host="other.net", ip="99.9.9.9", target="/b?y=2")
        base = PacketDistance.paper().distance(p, q)
        doubled = PacketDistance(destination_weight=2.0, content_weight=2.0).distance(p, q)
        assert doubled == pytest.approx(2 * base, rel=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(DistanceError):
            PacketDistance(destination_weight=-1.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DistanceError):
            PacketDistance(destination_weight=0.0, content_weight=0.0)
