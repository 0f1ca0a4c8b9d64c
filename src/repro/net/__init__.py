"""Network-layer substrate: IPv4 addresses, ports, FQDNs, edit distance.

These are the primitives the paper's *HTTP packet destination distance*
(Section IV-B) is built from:

- :func:`repro.net.ipv4.common_prefix_length` — ``lmatch`` in the paper,
- :func:`repro.net.ports.ports_match` — the boolean port comparison,
- :func:`repro.net.editdist.levenshtein` — ``ed`` over FQDN strings.
"""

from repro.net.editdist import levenshtein, normalized_levenshtein
from repro.net.fqdn import registered_domain
from repro.net.ipv4 import IPv4Address, common_prefix_length
from repro.net.registry import IpRegistry, registry_corrected_ip_distance
from repro.net.ports import ports_match

__all__ = [
    "IPv4Address",
    "common_prefix_length",
    "ports_match",
    "registered_domain",
    "levenshtein",
    "normalized_levenshtein",
    "IpRegistry",
    "registry_corrected_ip_distance",
]
