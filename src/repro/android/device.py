"""The simulated device: identifier providers behind the Binder.

Models the experiment hardware ("Galaxy Nexus S, Android 2.3.x"): one
device identity, a Binder instance, and permission-gated getters mirroring
``TelephonyManager`` / ``Settings.Secure``.  Ad modules call these getters
through their host application's manifest — a module can only leak what
the host app's permissions allow, which is exactly the coupling the
paper's Table I / Table III analysis exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.android.binder import Binder
from repro.android.permissions import Manifest
from repro.sensitive.identifiers import DeviceIdentity, IdentifierKind
from repro.sensitive.location import GeoPoint


@dataclass
class Device:
    """One simulated handset.

    :param identity: the sensitive identifier set of this device.
    :param binder: the reference monitor gating reads.
    :param location: the device's position (None = no GPS fix).
    :param model: handset model string (goes into User-Agent headers).
    :param android_version: OS version string (ditto).
    """

    identity: DeviceIdentity
    binder: Binder = field(default_factory=Binder)
    location: GeoPoint | None = None
    model: str = "Galaxy Nexus S"
    android_version: str = "2.3.6"

    @classmethod
    def generate(cls, rng: Random, *, audit: bool = False) -> "Device":
        """A device with a freshly sampled coherent identity and a fix in
        the greater Tokyo area (the study's locale)."""
        return cls(
            identity=DeviceIdentity.generate(rng),
            binder=Binder(audit=audit),
            location=GeoPoint.tokyo_area(rng),
        )

    # -- permission-gated getters (the Android API surface) -------------------

    def get_device_id(self, manifest: Manifest) -> str:
        """``TelephonyManager.getDeviceId()`` — the IMEI."""
        self.binder.require(manifest, "imei")
        return self.identity.imei

    def get_subscriber_id(self, manifest: Manifest) -> str:
        """``TelephonyManager.getSubscriberId()`` — the IMSI."""
        self.binder.require(manifest, "imsi")
        return self.identity.imsi

    def get_sim_serial_number(self, manifest: Manifest) -> str:
        """``TelephonyManager.getSimSerialNumber()`` — the ICCID."""
        self.binder.require(manifest, "sim_serial")
        return self.identity.sim_serial

    def get_network_operator_name(self, manifest: Manifest) -> str:
        """``TelephonyManager.getNetworkOperatorName()`` — the carrier."""
        self.binder.require(manifest, "carrier")
        return self.identity.carrier

    def get_android_id(self, manifest: Manifest) -> str:
        """``Settings.Secure.ANDROID_ID`` — no permission required."""
        self.binder.require(manifest, "android_id")
        return self.identity.android_id

    def get_last_known_location(self, manifest: Manifest) -> GeoPoint | None:
        """``LocationManager.getLastKnownLocation()`` — fine-location gated.

        Returns ``None`` when the device has no fix (as the real API does).
        """
        self.binder.require(manifest, "location")
        return self.location

    def read_identifier(self, manifest: Manifest, kind: IdentifierKind) -> str:
        """Generic gated read by identifier kind."""
        getter = {
            IdentifierKind.IMEI: self.get_device_id,
            IdentifierKind.IMSI: self.get_subscriber_id,
            IdentifierKind.SIM_SERIAL: self.get_sim_serial_number,
            IdentifierKind.CARRIER: self.get_network_operator_name,
            IdentifierKind.ANDROID_ID: self.get_android_id,
        }[kind]
        return getter(manifest)

    @property
    def user_agent(self) -> str:
        """The Android WebView/HttpClient User-Agent of the era."""
        return (
            f"Mozilla/5.0 (Linux; U; Android {self.android_version}; ja-jp; "
            f"{self.model} Build/GRK39F) AppleWebKit/533.1 (KHTML, like Gecko) "
            "Version/4.0 Mobile Safari/533.1"
        )
