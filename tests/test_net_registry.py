"""The WHOIS-style IP registry and the corrected IP distance (paper §VI)."""

import pytest

from repro.errors import AddressError
from repro.net.ipv4 import IPv4Address
from repro.net.registry import (
    Allocation,
    IpRegistry,
    build_corpus_registry,
    registry_corrected_ip_distance,
)


def ip(text):
    return IPv4Address.parse(text)


class TestAllocation:
    def test_contains(self):
        allocation = Allocation(ip("10.0.0.0"), 8, "TestOrg")
        assert allocation.contains(ip("10.200.3.4"))
        assert not allocation.contains(ip("11.0.0.1"))

    def test_invalid_prefix_rejected(self):
        with pytest.raises(AddressError):
            Allocation(ip("10.0.0.0"), 40, "TestOrg")


class TestRegistry:
    def test_lookup_hits_registered_block(self):
        registry = IpRegistry()
        registry.register("198.51.100.0", 24, "ExampleNet")
        assert registry.organization_of(ip("198.51.100.77")) == "ExampleNet"

    def test_lookup_unregistered_is_none(self):
        registry = IpRegistry()
        registry.register("198.51.100.0", 24, "ExampleNet")
        assert registry.lookup(ip("203.0.113.5")) is None

    def test_most_specific_block_wins(self):
        registry = IpRegistry()
        registry.register("10.0.0.0", 8, "Carrier")
        registry.register("10.5.0.0", 16, "Tenant")
        assert registry.organization_of(ip("10.5.1.1")) == "Tenant"
        assert registry.organization_of(ip("10.9.1.1")) == "Carrier"

    def test_same_organization_verdicts(self):
        registry = IpRegistry()
        registry.register("10.0.0.0", 16, "A")
        registry.register("10.1.0.0", 16, "B")
        registry.register("172.16.0.0", 16, "A")
        assert registry.same_organization(ip("10.0.0.1"), ip("172.16.9.9")) is True
        assert registry.same_organization(ip("10.0.0.1"), ip("10.1.0.1")) is False
        assert registry.same_organization(ip("10.0.0.1"), ip("203.0.113.1")) is None


class TestCorrectedDistance:
    def setup_method(self):
        self.registry = IpRegistry()
        self.registry.register("10.0.0.0", 16, "A")
        self.registry.register("10.1.0.0", 16, "B")
        self.registry.register("172.16.0.0", 16, "A")

    def test_same_org_is_zero_even_far_apart(self):
        assert registry_corrected_ip_distance(self.registry, ip("10.0.0.1"), ip("172.16.1.1")) == 0.0

    def test_different_org_is_one_even_close(self):
        # 10.0.x and 10.1.x share 15 upper bits but different owners —
        # the erroneous-proximity case the paper warns about.
        assert registry_corrected_ip_distance(self.registry, ip("10.0.0.1"), ip("10.1.0.1")) == 1.0

    def test_unregistered_falls_back_to_heuristic(self):
        value = registry_corrected_ip_distance(self.registry, ip("203.0.113.1"), ip("203.0.113.2"))
        assert 0.0 < value < 0.1  # bit-prefix heuristic


class TestCorpusRegistry:
    def test_covers_all_shared_services(self):
        from repro.android.admodules import AD_SERVICES
        from repro.android.webapi import WEB_SERVICES

        registry = build_corpus_registry()
        assert len(registry._allocations) == len(AD_SERVICES) + len(WEB_SERVICES)

    def test_google_family_is_one_org(self):
        from repro.android.admodules import ADMOB
        from repro.android.services import Service
        from repro.android.webapi import GOOGLE_ANALYTICS

        registry = build_corpus_registry()
        admob_ip = Service(ADMOB).ip_for(ADMOB.hosts[0])
        analytics_ip = Service(GOOGLE_ANALYTICS).ip_for(GOOGLE_ANALYTICS.hosts[0])
        assert registry.same_organization(admob_ip, analytics_ip) is True

    def test_distinct_networks_are_distinct_orgs(self):
        from repro.android.admodules import ADMAKER, NEND
        from repro.android.services import Service

        registry = build_corpus_registry()
        admaker_ip = Service(ADMAKER).ip_for(ADMAKER.hosts[0])
        nend_ip = Service(NEND).ip_for(NEND.hosts[0])
        assert registry.same_organization(admaker_ip, nend_ip) is False


class TestDistanceIntegration:
    def test_packet_distance_accepts_registry(self):
        from repro.distance.packet import PacketDistance
        from tests.conftest import make_packet

        registry = IpRegistry()
        registry.register("10.0.0.0", 16, "A")
        registry.register("10.1.0.0", 16, "B")
        metric = PacketDistance.whois_verified(registry)
        x = make_packet(host="a.one.com", ip="10.0.0.1")
        y = make_packet(host="a.one.com", ip="10.1.0.1")
        plain = PacketDistance.paper()
        # WHOIS says different owners: the verified metric must be larger.
        assert metric.distance(x, y) > plain.distance(x, y)
