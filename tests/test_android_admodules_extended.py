"""Wire-format fidelity for the catalog services not covered elsewhere."""

import hashlib
from random import Random

import pytest

from repro.android.admodules import (
    ADIMG,
    ADLANTIS,
    ADWHIRL,
    AMOAD,
    IMOBILE,
    MBGA_CORE,
    MEDIBAAD,
    MOBCLIX,
    MYDAS,
    NEND,
)
from repro.android.app import Application
from repro.android.device import Device
from repro.android.permissions import INTERNET, Manifest, READ_PHONE_STATE
from repro.android.services import Service


@pytest.fixture
def device():
    return Device.generate(Random(77))


def build_app(*extra, package="jp.co.soft0042.quiz"):
    perms = frozenset({INTERNET, *extra})
    return Application(package=package, manifest=Manifest(package=package, permissions=perms))


def session(spec, app, device, n=30, seed=0):
    return Service(spec).session_packets(app, device, Random(seed), n)


def all_text(packets):
    return "\n".join(p.canonical_text() for p in packets)


class TestNend:
    def test_plain_android_id(self, device):
        text = all_text(session(NEND, build_app(), device))
        assert device.identity.android_id in text

    def test_api_key_is_app_stable(self, device):
        packets = session(NEND, build_app(), device)
        queries = [dict(p.request.query.pairs) for p in packets]
        keys = {query["apikey"] for query in queries if query.get("apikey")}
        assert len(keys) == 1


class TestMydas:
    def test_imei_and_android_id(self, device):
        text = all_text(session(MYDAS, build_app(READ_PHONE_STATE), device))
        assert device.identity.imei in text
        assert device.identity.android_id in text

    def test_single_host(self, device):
        packets = session(MYDAS, build_app(), device)
        assert {p.host for p in packets} == {"ads.mydas.mobi"}


class TestAmoad:
    def test_posts_json_endpoint(self, device):
        packets = session(AMOAD, build_app(READ_PHONE_STATE), device, n=10)
        assert all(p.request.method == "POST" for p in packets)
        assert all("/4/sp/json" in p.request.target for p in packets)

    def test_carrier_in_body(self, device):
        packets = session(AMOAD, build_app(READ_PHONE_STATE), device, n=20)
        carrier_wire = device.identity.carrier.replace(" ", "+")
        assert any(
            carrier_wire.encode("latin-1") in p.body
            or device.identity.carrier.encode("latin-1") in p.body
            for p in packets
        )


class TestAdwhirl:
    def test_md5_imei_when_permitted(self, device):
        digest = hashlib.md5(device.identity.imei.encode()).hexdigest()
        text = all_text(session(ADWHIRL, build_app(READ_PHONE_STATE), device))
        assert digest in text

    def test_config_fetch_once(self, device):
        packets = session(ADWHIRL, build_app(), device, n=15)
        configs = [p for p in packets if p.meta["event"] == "config"]
        assert len(configs) == 1
        assert configs[0].host == "cus.adwhirl.com"


class TestImobile:
    def test_sha1_imei_when_permitted(self, device):
        digest = hashlib.sha1(device.identity.imei.encode()).hexdigest()
        text = all_text(session(IMOBILE, build_app(READ_PHONE_STATE), device, n=60))
        assert digest in text

    def test_no_plain_imei_ever(self, device):
        text = all_text(session(IMOBILE, build_app(READ_PHONE_STATE), device, n=60))
        assert device.identity.imei not in text


class TestMobclix:
    def test_sha1_android_id(self, device):
        digest = hashlib.sha1(device.identity.android_id.encode()).hexdigest()
        text = all_text(session(MOBCLIX, build_app(), device, n=20))
        assert digest in text


class TestAdimg:
    def test_app_gate_limits_leaking_integrations(self, device):
        """Only ~30% of adopting apps' builds send the hashed id at all."""
        digest = hashlib.sha1(device.identity.android_id.encode()).hexdigest()
        leaking_apps = 0
        for i in range(30):
            app = build_app(package=f"jp.co.works{i:04d}.manga")
            text = all_text(session(ADIMG, app, device, n=10, seed=i))
            leaking_apps += digest in text
        assert 2 <= leaking_apps <= 18


class TestMedibaad:
    def test_two_hosts_same_operator_block(self, device):
        from repro.net.ipv4 import common_prefix_length

        service = Service(MEDIBAAD)
        ips = [service.ip_for(h) for h in MEDIBAAD.hosts]
        assert common_prefix_length(ips[0], ips[1]) >= 24


class TestMbgaCore:
    def test_imsi_in_auth_once(self, device):
        packets = session(MBGA_CORE, build_app(READ_PHONE_STATE), device, n=20)
        auth = [p for p in packets if p.meta["event"] == "auth"]
        assert len(auth) == 1
        assert device.identity.imsi.encode("latin-1") in auth[0].body

    def test_api_calls_carry_session_cookie(self, device):
        packets = session(MBGA_CORE, build_app(), device, n=20)
        api = [p for p in packets if p.meta["event"] == "api"]
        assert api
        assert all("sp_sid=" in p.cookie for p in api)


class TestAdlantisLocation:
    def test_location_with_permission(self, device):
        from repro.android.permissions import ACCESS_FINE_LOCATION

        packets = session(
            ADLANTIS, build_app(READ_PHONE_STATE, ACCESS_FINE_LOCATION), device, n=40
        )
        queries = [dict(p.request.query.pairs) for p in packets]
        lats = [query["lat"] for query in queries if "lat" in query]
        assert lats
        assert all(abs(float(lat) - device.location.latitude) < 0.01 for lat in lats)

    def test_no_location_without_permission(self, device):
        packets = session(ADLANTIS, build_app(READ_PHONE_STATE), device, n=40)
        assert not any("lat" in p.request.query.keys() for p in packets)
