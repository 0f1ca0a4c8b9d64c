"""The ad/analytics catalog: wire-format fidelity per network."""

from random import Random

import pytest

from repro.android.admodules import (
    AD_SERVICES,
    ADMAKER,
    ADMOB,
    FLURRY,
    MICROAD,
    ZQAPK,
)
from repro.android.app import Application
from repro.android.device import Device
from repro.android.permissions import INTERNET, Manifest, READ_PHONE_STATE
from repro.android.services import Service


@pytest.fixture
def device():
    return Device.generate(Random(21))


def app_with_phone():
    m = Manifest(package="jp.test.leaky", permissions=frozenset({INTERNET, READ_PHONE_STATE}))
    return Application(package="jp.test.leaky", manifest=m)


def app_plain():
    m = Manifest(package="jp.test.plain", permissions=frozenset({INTERNET}))
    return Application(package="jp.test.plain", manifest=m)


def session(spec, app, device, n=40, seed=0):
    return Service(spec).session_packets(app, device, Random(seed), n)


class TestCatalog:
    def test_all_services_instantiate(self):
        services = [Service(spec) for spec in AD_SERVICES]
        assert len(services) == len(AD_SERVICES)

    def test_names_unique(self):
        names = [spec.name for spec in AD_SERVICES]
        assert len(names) == len(set(names))

    def test_hosts_unique_across_catalog(self):
        hosts = [h for spec in AD_SERVICES for h in spec.hosts]
        assert len(hosts) == len(set(hosts))

    def test_adoption_targets_positive(self):
        assert all(spec.adoption_target > 0 for spec in AD_SERVICES)


class TestAdmob:
    def test_hashed_android_id_in_ad_requests(self, device):
        import hashlib

        digest = hashlib.md5(device.identity.android_id.encode()).hexdigest()
        packets = session(ADMOB, app_plain(), device)
        leaking = [p for p in packets if digest in p.canonical_text()]
        assert len(leaking) > len(packets) // 2

    def test_never_sends_plain_android_id(self, device):
        packets = session(ADMOB, app_plain(), device)
        for p in packets:
            assert device.identity.android_id not in p.canonical_text()

    def test_spans_google_domains(self, device):
        packets = session(ADMOB, app_plain(), device, n=60)
        domains = {p.destination.registered_domain for p in packets}
        assert "doubleclick.net" in domains
        assert "admob.com" in domains

    def test_google_family_ips_share_prefix(self):
        from repro.net.ipv4 import common_prefix_length

        admob = Service(ADMOB)
        ips = [admob.ip_for(h) for h in ADMOB.hosts]
        assert all(common_prefix_length(ips[0], ip) >= 16 for ip in ips[1:])


class TestAdmaker:
    def test_sends_imei_and_android_id_with_permission(self, device):
        packets = session(ADMAKER, app_with_phone(), device)
        text = "\n".join(p.canonical_text() for p in packets)
        assert device.identity.imei in text
        assert device.identity.android_id in text

    def test_omits_imei_without_permission(self, device):
        packets = session(ADMAKER, app_plain(), device)
        text = "\n".join(p.canonical_text() for p in packets)
        assert device.identity.imei not in text
        assert device.identity.android_id in text  # no permission needed


class TestMicroad:
    def test_android_id_travels_in_cookie(self, device):
        packets = session(MICROAD, app_plain(), device, n=30)
        cookie_leaks = [p for p in packets if device.identity.android_id in p.cookie]
        assert cookie_leaks


class TestFlurry:
    def test_posts_form_body(self, device):
        packets = session(FLURRY, app_with_phone(), device, n=10)
        assert all(p.request.method == "POST" for p in packets)
        assert all(p.body for p in packets)

    def test_carrier_reported_with_permission(self, device):
        packets = session(FLURRY, app_with_phone(), device, n=30)
        text = "\n".join(p.canonical_text() for p in packets)
        assert device.identity.carrier.replace(" ", "+") in text or device.identity.carrier in text


class TestZqapk:
    def test_full_identifier_harvest(self, device):
        packets = session(ZQAPK, app_with_phone(), device, n=40)
        text = "\n".join(p.canonical_text() for p in packets)
        assert device.identity.imei in text
        assert device.identity.sim_serial in text
        assert device.identity.imsi in text

    def test_harvest_blocked_without_permission(self, device):
        packets = session(ZQAPK, app_plain(), device, n=40)
        text = "\n".join(p.canonical_text() for p in packets)
        assert device.identity.imei not in text
        assert device.identity.sim_serial not in text
