"""The network-facing signature service.

Everything before this package runs in-process: generation, screening,
distribution, and federation are libraries driven by a single Python
caller.  :mod:`repro.service` puts a real network boundary around them —
a stdlib-only HTTP server (``http.server`` + ``sqlite3``, no external
dependencies) that exposes:

- ``POST /v1/signatures`` — publish a checksummed signature envelope
  (monotonic versions; a stale publish gets ``409``);
- ``GET /v1/signatures`` — fetch the latest envelope, with
  ``?since=<version>`` conditional fetch answering ``304``;
- ``POST /v1/screen`` — screen events through the in-process
  :class:`~repro.serving.gateway.ScreeningGateway`, byte-identical to
  running the gateway directly;
- ``POST /v1/reports`` — fleet report ingest through
  :class:`~repro.federation.ingest.FleetIngest`;
- ``GET /metrics`` — Prometheus text from the shared
  :class:`~repro.obs.metrics.Metrics` registry;
- ``GET /healthz`` — liveness plus gateway/ingest/storage snapshots.

Persistence sits behind :class:`SignatureRepository` /
:class:`ReportRepository` interfaces with in-memory and sqlite (WAL)
implementations; envelope checksums are re-verified on every read and a
corrupt row degrades to the last known good version, mirroring
:class:`~repro.core.distribution.SignatureFetcher`.
"""

from repro.service.repository import (
    InMemoryReportRepository,
    InMemorySignatureRepository,
    ReportRepository,
    SignatureRepository,
    SqliteReportRepository,
    SqliteSignatureRepository,
    SqliteStore,
    open_repositories,
)
from repro.service.server import (
    ServiceConfig,
    ServiceServer,
    SignatureService,
)

__all__ = [
    "InMemoryReportRepository",
    "InMemorySignatureRepository",
    "ReportRepository",
    "ServiceConfig",
    "ServiceServer",
    "SignatureRepository",
    "SignatureService",
    "SqliteReportRepository",
    "SqliteSignatureRepository",
    "SqliteStore",
    "open_repositories",
]
