"""The wire-format engine: templates, value sources, permission gating."""

from random import Random

import pytest

from repro.android.app import Application
from repro.android.device import Device
from repro.android.permissions import INTERNET, Manifest, READ_PHONE_STATE
from repro.android.services import (
    Param,
    RequestTemplate,
    Service,
    ServiceSpec,
    ValueSource,
)
from repro.errors import SimulationError
from repro.sensitive.identifiers import IdentifierKind
from repro.sensitive.transforms import Transform


def make_spec(templates, hosts=("api.svc.example.com", "img.svc.example.com")):
    return ServiceSpec(
        name="svc",
        category="ad",
        hosts=hosts,
        ip_base="198.51.100.0",
        templates=tuple(templates),
        packets_per_app=3.0,
    )


def make_app(*perms, package="jp.test.app"):
    return Application(
        package=package,
        manifest=Manifest(package=package, permissions=frozenset(perms or (INTERNET,))),
    )


@pytest.fixture
def device():
    return Device.generate(Random(4))


def one_packet(spec, app, device, seed=0):
    service = Service(spec)
    packets = service.session_packets(app, device, Random(seed), 1)
    assert len(packets) == 1
    return packets[0]


class TestSpecValidation:
    def test_needs_hosts(self):
        with pytest.raises(SimulationError):
            ServiceSpec(name="x", category="ad", hosts=(), ip_base="1.2.3.0")

    def test_template_host_index_checked(self):
        bad = RequestTemplate(name="t", method="GET", path="/p", host_index=5)
        with pytest.raises(SimulationError):
            make_spec([bad])


class TestIpAssignment:
    def test_hosts_get_stable_ips_in_block(self):
        spec = make_spec([RequestTemplate(name="t", method="GET", path="/p")])
        a = Service(spec)
        b = Service(spec)
        for host in spec.hosts:
            assert a.ip_for(host) == b.ip_for(host)
            assert a.ip_for(host).in_network(a.ip_for(spec.hosts[0]), 24)

    def test_different_hosts_usually_differ(self):
        spec = make_spec([RequestTemplate(name="t", method="GET", path="/p")])
        service = Service(spec)
        assert service.ip_for(spec.hosts[0]) != service.ip_for(spec.hosts[1])


class TestValueSources:
    def test_literal_and_package(self, device):
        t = RequestTemplate(
            name="t",
            method="GET",
            path="/p",
            query=(Param.lit("v", "1.2"), Param("pkg", ValueSource.PACKAGE)),
        )
        packet = one_packet(make_spec([t]), make_app(), device)
        assert "v=1.2" in packet.request.target
        assert "pkg=jp.test.app" in packet.request.target

    def test_app_token_stable_per_app(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p", query=(Param("sid", ValueSource.APP_TOKEN, length=10),)
        )
        spec = make_spec([t])
        p1 = one_packet(spec, make_app(), device, seed=1)
        p2 = one_packet(spec, make_app(), device, seed=2)
        p3 = one_packet(spec, make_app(package="jp.other.app"), device, seed=1)
        token = lambda p: dict(p.request.query.pairs).get("sid")
        assert token(p1) == token(p2)
        assert token(p1) != token(p3)

    def test_random_hex_fresh_each_request(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p", query=(Param("r", ValueSource.RANDOM_HEX, length=12),)
        )
        service = Service(make_spec([t]))
        packets = service.session_packets(make_app(), device, Random(0), 5)
        values = {dict(p.request.query.pairs).get("r") for p in packets}
        assert len(values) == 5

    def test_sequence_increments(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p", query=(Param("seq", ValueSource.SEQUENCE),)
        )
        service = Service(make_spec([t]))
        packets = service.session_packets(make_app(), device, Random(0), 3)
        seqs = sorted(int(dict(p.request.query.pairs).get("seq")) for p in packets)
        assert seqs == [1, 2, 3]

    def test_identifier_with_permission(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p",
            query=(Param.ident("imei", IdentifierKind.IMEI),),
        )
        app = make_app(INTERNET, READ_PHONE_STATE)
        packet = one_packet(make_spec([t]), app, device)
        assert device.identity.imei in packet.request.target

    def test_identifier_gated_silently_omitted(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p",
            query=(Param.ident("imei", IdentifierKind.IMEI), Param.lit("v", "1")),
        )
        packet = one_packet(make_spec([t]), make_app(INTERNET), device)
        assert "imei" not in packet.request.target
        assert "v=1" in packet.request.target  # rest of the request intact

    def test_identifier_hash_transform(self, device):
        import hashlib

        t = RequestTemplate(
            name="t", method="GET", path="/p",
            query=(Param.ident("u", IdentifierKind.ANDROID_ID, Transform.MD5),),
        )
        packet = one_packet(make_spec([t]), make_app(), device)
        digest = hashlib.md5(device.identity.android_id.encode()).hexdigest()
        assert digest in packet.request.target

    def test_app_gate_deterministic_per_app(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p",
            query=(Param.ident("u", IdentifierKind.ANDROID_ID, app_gate=0.5),),
        )
        spec = make_spec([t])
        app = make_app()
        results = {
            "u" in one_packet(spec, app, device, seed=s).request.query.keys() for s in range(5)
        }
        assert len(results) == 1  # same app -> always same gate outcome


class TestPacketShape:
    def test_post_body_form_encoded(self, device):
        t = RequestTemplate(
            name="t", method="POST", path="/collect",
            body=(Param.lit("k", "v"), Param.lit("k2", "v w")),
        )
        packet = one_packet(make_spec([t]), make_app(), device)
        assert packet.request.method == "POST"
        assert packet.body == b"k=v&k2=v+w"
        assert "x-www-form-urlencoded" in packet.request.header("Content-Type")
        assert packet.request.header("Content-Length") == str(len(packet.body))

    def test_cookies_rendered(self, device):
        t = RequestTemplate(
            name="t", method="GET", path="/p", cookies=(Param.lit("sid", "abc"),)
        )
        packet = one_packet(make_spec([t]), make_app(), device)
        assert packet.cookie == "sid=abc"

    def test_host_header_matches_destination(self, device):
        t = RequestTemplate(name="t", method="GET", path="/p", host_index=1)
        packet = one_packet(make_spec([t]), make_app(), device)
        assert packet.host == "img.svc.example.com"
        assert packet.request.header("Host") == packet.host

    def test_meta_provenance(self, device):
        t = RequestTemplate(name="boot", method="GET", path="/p")
        packet = one_packet(make_spec([t]), make_app(), device)
        assert packet.meta["service"] == "svc"
        assert packet.meta["event"] == "boot"
        assert packet.app_id == "jp.test.app"


class TestSessionPackets:
    def test_once_templates_fire_once(self, device):
        templates = [
            RequestTemplate(name="init", method="GET", path="/init", once=True),
            RequestTemplate(name="poll", method="GET", path="/poll", weight=1.0),
        ]
        service = Service(make_spec(templates))
        packets = service.session_packets(make_app(), device, Random(0), 6)
        inits = [p for p in packets if p.meta["event"] == "init"]
        assert len(inits) == 1

    def test_count_zero(self, device):
        service = Service(make_spec([RequestTemplate(name="t", method="GET", path="/p")]))
        assert service.session_packets(make_app(), device, Random(0), 0) == []

    def test_timestamps_sorted_within_duration(self, device):
        service = Service(make_spec([RequestTemplate(name="t", method="GET", path="/p")]))
        packets = service.session_packets(make_app(), device, Random(0), 10, duration=300.0)
        times = [p.timestamp for p in packets]
        assert times == sorted(times)
        assert all(0 <= t <= 300 for t in times)

    def test_weights_respected_roughly(self, device):
        templates = [
            RequestTemplate(name="often", method="GET", path="/a", weight=9.0),
            RequestTemplate(name="rare", method="GET", path="/b", weight=1.0),
        ]
        service = Service(make_spec(templates))
        packets = service.session_packets(make_app(), device, Random(0), 200)
        often = sum(1 for p in packets if p.meta["event"] == "often")
        assert often > 140
