"""The Binder reference monitor (paper Section II-A).

"The Binder takes charge of the reference monitor to manage the
application's request [and] verifies that the application has the
appropriate permissions to bind to the requested resource."  The simulated
Binder gates every sensitive-resource read an application (or an ad module
running inside it) performs, raising :class:`~repro.errors.PermissionDenied`
on a missing permission — exactly the sandboxing boundary the paper relies
on for its threat model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.permissions import (
    ACCESS_COARSE_LOCATION,
    ACCESS_FINE_LOCATION,
    INTERNET,
    Manifest,
    Permission,
    READ_CONTACTS,
    READ_PHONE_STATE,
)
from repro.errors import PermissionDenied

#: Resource name -> permission required to read it.  Mirrors the Android
#: API: TelephonyManager getters need READ_PHONE_STATE, Settings.Secure
#: ANDROID_ID is world-readable, the carrier name needs phone state, etc.
RESOURCE_PERMISSIONS: dict[str, Permission | None] = {
    "imei": READ_PHONE_STATE,
    "imsi": READ_PHONE_STATE,
    "sim_serial": READ_PHONE_STATE,
    "carrier": READ_PHONE_STATE,
    "android_id": None,  # readable without any permission (the 2012 reality)
    "location": ACCESS_FINE_LOCATION,
    "coarse_location": ACCESS_COARSE_LOCATION,
    "contacts": READ_CONTACTS,
    "network": INTERNET,
}


@dataclass(slots=True)
class AccessRecord:
    """One audited resource access (granted or denied)."""

    package: str
    resource: str
    granted: bool


@dataclass
class Binder:
    """Permission-checked resource broker with an audit log.

    :param audit: when true, every check is recorded in :attr:`log` —
        useful in tests asserting that ad modules only read what the host
        app's manifest allows.
    """

    audit: bool = False
    log: list[AccessRecord] = field(default_factory=list)

    def check(self, manifest: Manifest, resource: str) -> bool:
        """Whether ``manifest`` may access ``resource`` (no exception)."""
        try:
            required = RESOURCE_PERMISSIONS[resource]
        except KeyError:
            raise PermissionDenied(manifest.package, f"<unknown resource {resource}>") from None
        if required is None:
            granted = True
        elif resource == "location":
            # Fine location is also satisfied by... nothing else; but the
            # coarse permission grants coarse reads only.
            granted = manifest.holds(required)
        else:
            granted = manifest.holds(required)
        if self.audit:
            self.log.append(AccessRecord(manifest.package, resource, granted))
        return granted

    def require(self, manifest: Manifest, resource: str) -> None:
        """Raise :class:`PermissionDenied` unless access is allowed."""
        if not self.check(manifest, resource):
            required = RESOURCE_PERMISSIONS[resource]
            raise PermissionDenied(manifest.package, str(required))
