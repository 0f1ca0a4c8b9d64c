"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are grouped
by the subsystem that raises them; each carries a human-readable message and
keeps the offending value around where that is useful for debugging.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParseError(ReproError):
    """Raw input (HTTP bytes, addresses, URLs) could not be parsed.

    :param message: description of what failed.
    :param data: the offending input fragment, truncated for display.
    """

    def __init__(self, message: str, data: bytes | str | None = None) -> None:
        self.data = data
        if data is not None:
            shown = data if len(data) <= 64 else data[:61] + (b"..." if isinstance(data, bytes) else "...")
            message = f"{message}: {shown!r}"
        super().__init__(message)


class AddressError(ParseError):
    """An IPv4 address or port number was syntactically invalid."""


class HttpParseError(ParseError):
    """A raw HTTP request could not be parsed into a message."""


class DistanceError(ReproError):
    """A distance computation received incompatible or invalid operands."""


class ClusteringError(ReproError):
    """Hierarchical clustering was invoked on invalid input."""


class SignatureError(ReproError):
    """Signature generation or matching failed."""


class SignatureStoreError(SignatureError):
    """A signature document could not be decoded or failed validation.

    Raised by :class:`repro.signatures.store.SignatureStore` for malformed
    JSON, schema mismatches, bad envelope checksums, and version skew —
    i.e. *corrupt payloads*, as distinct from programming errors.  A
    fetcher's retry loop catches this class to decide "retry the
    transfer", while genuine bugs keep their original exception types.
    """


class PermissionDenied(ReproError):
    """The simulated Binder refused a resource access.

    Mirrors Android's ``SecurityException``: an application attempted to use
    a resource without holding the required permission.

    :param app: package name of the offending application.
    :param permission: the permission that was missing.
    """

    def __init__(self, app: str, permission: str) -> None:
        self.app = app
        self.permission = permission
        super().__init__(f"{app} lacks permission {permission}")


class SimulationError(ReproError):
    """The traffic simulation was configured inconsistently."""


class SupervisionError(ReproError):
    """Supervised pipeline execution could not recover a run.

    Raised by :mod:`repro.supervision` when a checkpointed run exhausts its
    restart budget, or when a checkpoint journal is inconsistent with the
    requested resume.  Injected inter-stage crashes are the subclass
    :class:`repro.supervision.crash.InjectedCrash`, which the supervisor
    absorbs during restart-with-resume.
    """


class FederationError(ReproError):
    """Crowdsourced fleet federation was configured or driven inconsistently.

    Raised by :mod:`repro.federation` for invalid ingest/aggregation
    configuration and for protocol violations that are programming errors
    rather than byzantine input (those are rejected per-report with
    :class:`ReportValidationError` and counted, never raised mid-batch).
    """


class ReportValidationError(FederationError):
    """A device report envelope failed validation at ingest.

    Carries a short machine-readable ``reason`` category — ``"schema"``,
    ``"checksum"``, ``"version"`` — so the ingest layer can keep per-cause
    rejection counters and trip per-device circuit breakers on it without
    string-matching messages.

    :param message: description of what failed.
    :param reason: rejection category (defaults to ``"schema"``).
    """

    def __init__(self, message: str, reason: str = "schema") -> None:
        self.reason = reason
        super().__init__(message)


class DatasetError(ReproError):
    """A trace or dataset file was malformed or inconsistent."""


class ServiceError(ReproError):
    """The network-facing signature service hit an operational error.

    Raised by :mod:`repro.service` for conditions the HTTP layer maps to
    client-visible statuses (a stale publish, a misconfigured backend) —
    as distinct from payload corruption, which keeps its own
    :class:`SignatureStoreError` / :class:`ReportValidationError` types so
    retry loops can classify it.
    """
