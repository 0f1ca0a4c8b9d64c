"""Corpus statistics: the Table II/III and Fig 2 analyses."""

import pytest

from repro.dataset.stats import (
    destination_fanout,
    destination_table,
    fanout_cdf,
    fanout_summary,
    sensitive_table,
)
from repro.dataset.trace import Trace
from repro.sensitive.payload_check import PayloadCheck
from tests.conftest import make_packet


def build_trace(identity):
    return Trace(
        [
            make_packet(host="ads.adnet.com", app_id="a", target=f"/x?imei={identity.imei}"),
            make_packet(host="ads.adnet.com", app_id="a", target="/x?q=1"),
            make_packet(host="api.adnet.com", app_id="b", target=f"/y?aid={identity.android_id}"),
            make_packet(host="img.other.jp", app_id="b", target="/z.png"),
            make_packet(host="img.other.jp", app_id="c", target="/w.png"),
        ]
    )


class TestDestinationTable:
    def test_counts(self, identity):
        rows = destination_table(build_trace(identity))
        by_domain = {r.domain: r for r in rows}
        assert by_domain["adnet.com"].packets == 3
        assert by_domain["adnet.com"].apps == 2
        assert by_domain["other.jp"].packets == 2
        assert by_domain["other.jp"].apps == 2

    def test_ordering_by_apps_then_packets(self, identity):
        rows = destination_table(build_trace(identity))
        assert rows[0].domain == "adnet.com"  # 2 apps, 3 packets beats 2/2

    def test_min_apps_filter(self, identity):
        trace = build_trace(identity)
        trace.extend([make_packet(host="once.example.com", app_id="a")])
        rows = destination_table(trace, min_apps=2)
        assert all(r.apps >= 2 for r in rows)


class TestSensitiveTable:
    def test_rows(self, identity):
        check = PayloadCheck(identity)
        rows = sensitive_table(build_trace(identity), check)
        by_label = {r.label: r for r in rows}
        assert by_label["IMEI"].packets == 1
        assert by_label["IMEI"].apps == 1
        assert by_label["IMEI"].destinations == 1
        assert by_label["ANDROID_ID"].packets == 1

    def test_multi_label_packet_counted_in_each_row(self, identity):
        check = PayloadCheck(identity)
        trace = Trace(
            [make_packet(target=f"/x?imei={identity.imei}&aid={identity.android_id}")]
        )
        rows = {r.label: r.packets for r in sensitive_table(trace, check)}
        assert rows["IMEI"] == 1
        assert rows["ANDROID_ID"] == 1

    def test_empty_trace(self, identity):
        assert sensitive_table(Trace(), PayloadCheck(identity)) == []


class TestFanout:
    def test_destination_fanout(self, identity):
        fanout = destination_fanout(build_trace(identity))
        assert fanout == {"a": 1, "b": 2, "c": 1}

    def test_summary(self, identity):
        summary = fanout_summary(build_trace(identity))
        assert summary.n_apps == 3
        assert summary.mean == pytest.approx(4 / 3)
        assert summary.max == 2
        assert summary.single_destination == 2
        assert summary.single_fraction == pytest.approx(2 / 3)
        assert summary.up_to_10 == 3

    def test_summary_empty(self):
        summary = fanout_summary(Trace())
        assert summary.n_apps == 0
        assert summary.single_fraction == 0.0

    def test_cdf_monotone_and_complete(self, identity):
        points = fanout_cdf(build_trace(identity))
        fractions = [f for __, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert points[0] == (1, pytest.approx(2 / 3))

    def test_cdf_empty(self):
        assert fanout_cdf(Trace()) == []
