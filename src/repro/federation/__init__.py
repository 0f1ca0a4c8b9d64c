"""``repro.federation`` — byzantine-tolerant crowdsourced fleet aggregation.

The paper's server collects traffic from one lab device; the production
shape (PrivacyProxy, arXiv:1708.06384) is a *fleet*: many devices report
candidate-leak observations and the server aggregates across users before
signature generation.  This package is the layer between device reports
and the signature pipeline, built to survive a fleet full of crashed,
buggy, replaying, and outright adversarial reporters:

- :mod:`repro.federation.report` — versioned, SHA-256-checksummed report
  envelopes with per-device monotonic sequence numbers;
- :mod:`repro.federation.faults` — :class:`DeviceFaultPlan`, a seeded
  injector of the fleet fault taxonomy (malform / duplicate / replay /
  poison / flood);
- :mod:`repro.federation.ingest` — :class:`FleetIngest`, sharded
  validating admission with a per-device dedup window, replay defense,
  DROP/DEGRADE shedding, and circuit-breaker quarantine with cooldown
  release;
- :mod:`repro.federation.aggregate` — :class:`FederatedAggregator` over a
  pluggable :class:`SupportStore` (in-memory or dir-backed): per-token
  distinct-device support, per-device contribution caps, and the
  k-anonymity min-support gate;
- :mod:`repro.federation.fleet` — the round orchestrator: per-device
  report substreams -> faulty transport -> ingest -> aggregation ->
  signature generation.

The headline guarantee, enforced by ``repro chaos --target federation``:
at device-fault rates 0-50 %, the federated signature set is
**byte-identical** to the fault-free same-seed baseline — validation,
dedup, quarantine, and the min-support gate absorb every injected fault
class bit-for-bit.
"""

from repro.federation.aggregate import (
    AcceptOutcome,
    DirSupportStore,
    FederatedAggregator,
    InMemorySupportStore,
    SupportStore,
)
from repro.federation.faults import DeviceFaultKind, DeviceFaultPlan
from repro.federation.fleet import FederationResult, run_federation
from repro.federation.ingest import FleetIngest, IngestConfig, ReportStatus
from repro.federation.report import (
    REPORT_FORMAT_VERSION,
    DeviceReport,
    decode_report,
    encode_report,
    token_for,
)

__all__ = [
    "REPORT_FORMAT_VERSION",
    "AcceptOutcome",
    "DeviceFaultKind",
    "DeviceFaultPlan",
    "DeviceReport",
    "DirSupportStore",
    "FederatedAggregator",
    "FederationResult",
    "FleetIngest",
    "InMemorySupportStore",
    "IngestConfig",
    "ReportStatus",
    "SupportStore",
    "decode_report",
    "encode_report",
    "run_federation",
    "token_for",
]
