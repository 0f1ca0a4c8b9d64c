"""A simulated address-registration (WHOIS) registry.

The paper's discussion (Section VI) flags a weakness of the IP component
of the destination distance: "two HTTP packets may have close IP addresses
but be owned [by] different organizations, thus generating an erroneously
small distance ... a registration information process such as WHOIS could
be helpful for the verification of IP addresses."

This module implements that suggestion.  An :class:`IpRegistry` maps
address blocks to owning organizations (the corpus builder registers every
service's block); :func:`registry_corrected_ip_distance` consults it and
overrides the bit-prefix heuristic when registration data proves two
addresses belong to different owners — or confirms they share one.

The ``registry`` ablation bench quantifies the effect on clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError
from repro.net.ipv4 import ADDRESS_BITS, IPv4Address, common_prefix_length


@dataclass(frozen=True, slots=True)
class Allocation:
    """One registered address block.

    :param network: base address of the block.
    :param prefix_len: CIDR prefix length.
    :param organization: owner name ("Google Inc.", "SAKURA Internet"...).
    """

    network: IPv4Address
    prefix_len: int
    organization: str

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= ADDRESS_BITS:
            raise AddressError("prefix length out of range", str(self.prefix_len))

    def contains(self, address: IPv4Address) -> bool:
        return address.in_network(self.network, self.prefix_len)


class IpRegistry:
    """Longest-prefix-match lookup over registered allocations.

    Mirrors how NIR/RIR delegation works: the most specific registered
    block wins.  Lookups for unregistered space return ``None`` — the
    distance correction then falls back to the paper's bit heuristic.
    """

    def __init__(self) -> None:
        self._allocations: list[Allocation] = []

    def register(self, network: str, prefix_len: int, organization: str) -> Allocation:
        """Register ``network/prefix_len`` to ``organization``."""
        allocation = Allocation(IPv4Address.parse(network), prefix_len, organization)
        self._allocations.append(allocation)
        # Keep most-specific-first so lookup can stop at the first hit.
        self._allocations.sort(key=lambda a: -a.prefix_len)
        return allocation

    def lookup(self, address: IPv4Address) -> Allocation | None:
        """The most specific allocation containing ``address``, if any."""
        for allocation in self._allocations:
            if allocation.contains(address):
                return allocation
        return None

    def organization_of(self, address: IPv4Address) -> str | None:
        allocation = self.lookup(address)
        return allocation.organization if allocation else None

    def same_organization(self, a: IPv4Address, b: IPv4Address) -> bool | None:
        """Whether two addresses share a registered owner.

        ``None`` when either side is unregistered — the caller cannot
        conclude anything and should fall back to the heuristic.
        """
        org_a = self.organization_of(a)
        org_b = self.organization_of(b)
        if org_a is None or org_b is None:
            return None
        return org_a == org_b


def registry_corrected_ip_distance(
    registry: IpRegistry, ip_x: IPv4Address, ip_y: IPv4Address
) -> float:
    """``d_ip`` with WHOIS verification (the paper's §VI suggestion).

    - registered to the *same* organization: distance 0.0 regardless of
      how far apart the addresses look bitwise (CDNs spread blocks);
    - registered to *different* organizations: distance 1.0 even if the
      upper bits coincide (the erroneous-proximity case the paper warns
      about);
    - otherwise: the paper's bit-prefix heuristic.
    """
    verdict = registry.same_organization(ip_x, ip_y)
    if verdict is True:
        return 0.0
    if verdict is False:
        return 1.0
    return 1.0 - common_prefix_length(ip_x, ip_y) / ADDRESS_BITS


def build_corpus_registry() -> IpRegistry:
    """The registry covering every shared service in the corpus catalog.

    Organizations follow real 2012 ownership: the Google advertising stack
    (AdMob, DoubleClick, AdSense, Analytics, static hosts) is one owner;
    each Japanese ad network is its own.
    """
    from repro.android.admodules import AD_SERVICES
    from repro.android.webapi import WEB_SERVICES

    google_family = {
        "admob", "google_analytics", "google_api", "gstatic", "ggpht",
    }
    registry = IpRegistry()
    for spec in list(AD_SERVICES) + list(WEB_SERVICES):
        organization = "Google Inc." if spec.name in google_family else f"org:{spec.name}"
        registry.register(spec.ip_base, spec.ip_prefix, organization)
    return registry
