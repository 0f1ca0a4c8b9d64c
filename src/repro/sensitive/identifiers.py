"""Device identifier kinds and well-formed identifier generation.

The generators produce *structurally valid* identifiers — IMEIs and ICCIDs
carry correct Luhn check digits, IMSIs start with a real MCC/MNC — because
the simulated ad modules transmit them verbatim and the payload check must
find them inside arbitrary packet text without false anchoring.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random


class IdentifierKind(enum.Enum):
    """The identifier taxonomy of the paper's Table III.

    ``ANDROID_ID_MD5``-style hashed rows in the table are represented by
    a (kind, transform) pair — see :mod:`repro.sensitive.transforms`.
    """

    ANDROID_ID = "ANDROID_ID"
    IMEI = "IMEI"
    IMSI = "IMSI"
    SIM_SERIAL = "SIM_SERIAL"
    CARRIER = "CARRIER"


#: Japanese mobile carriers of the 2012 study period; the corpus device
#: population samples from these.
CARRIERS: tuple[str, ...] = ("NTT DOCOMO", "SoftBank", "KDDI", "EMOBILE", "WILLCOM")

#: (MCC, MNC) prefixes for Japanese carriers, used to build plausible IMSIs.
_MCC_MNC: dict[str, str] = {
    "NTT DOCOMO": "44010",
    "SoftBank": "44020",
    "KDDI": "44050",
    "EMOBILE": "44000",
    "WILLCOM": "44003",
}

#: Type Allocation Codes of handsets common in the study period (8 digits).
_TAC_POOL: tuple[str, ...] = (
    "35853704",  # Galaxy Nexus
    "35693803",  # Nexus S
    "35316604",  # Xperia
    "35824005",
    "35920405",
)


def luhn_check_digit(digits: str) -> int:
    """Check digit making ``digits + d`` pass the Luhn algorithm.

    Used for both IMEI (15th digit) and ICCID (final digit).

    >>> luhn_check_digit("49015420323751")
    8
    """
    if not digits.isdigit():
        raise ValueError(f"Luhn input must be numeric: {digits!r}")
    total = 0
    # Double every second digit from the right of (digits + check digit).
    for i, ch in enumerate(reversed(digits)):
        value = int(ch)
        if i % 2 == 0:
            value *= 2
            if value > 9:
                value -= 9
        total += value
    return (10 - total % 10) % 10


def make_imei(rng: Random) -> str:
    """A structurally valid 15-digit IMEI: TAC + serial + Luhn digit."""
    tac = rng.choice(_TAC_POOL)
    serial = "".join(str(rng.randrange(10)) for __ in range(6))
    partial = tac + serial
    return partial + str(luhn_check_digit(partial))


def make_imsi(rng: Random, carrier: str) -> str:
    """A 15-digit IMSI starting with the carrier's MCC+MNC."""
    prefix = _MCC_MNC.get(carrier, "44010")
    msin = "".join(str(rng.randrange(10)) for __ in range(15 - len(prefix)))
    return prefix + msin


def make_iccid(rng: Random, carrier: str) -> str:
    """A 19-digit SIM serial (ICCID) with a valid Luhn check digit.

    Format: ``89`` (telecom) + country code ``81`` (Japan) + issuer +
    account + check digit.
    """
    issuer = _MCC_MNC.get(carrier, "44010")[3:]
    partial = "8981" + issuer + "".join(str(rng.randrange(10)) for __ in range(18 - 4 - len(issuer)))
    return partial + str(luhn_check_digit(partial))


def make_android_id(rng: Random) -> str:
    """A 16-hex-digit Android ID, as generated at first boot."""
    return "".join(rng.choice("0123456789abcdef") for __ in range(16))


@dataclass(frozen=True, slots=True)
class DeviceIdentity:
    """The complete identifier set of one simulated device.

    This is the ground truth the payload check scans for; it corresponds to
    the experimenters *knowing their own test device's identifiers* when
    labelling the captured trace.
    """

    android_id: str
    imei: str
    imsi: str
    sim_serial: str
    carrier: str

    @classmethod
    def generate(cls, rng: Random) -> "DeviceIdentity":
        """Sample a coherent identity (IMSI/ICCID agree with the carrier)."""
        carrier = rng.choice(CARRIERS)
        return cls(
            android_id=make_android_id(rng),
            imei=make_imei(rng),
            imsi=make_imsi(rng, carrier),
            sim_serial=make_iccid(rng, carrier),
            carrier=carrier,
        )

    def value_of(self, kind: IdentifierKind) -> str:
        """The raw value for an identifier kind."""
        return {
            IdentifierKind.ANDROID_ID: self.android_id,
            IdentifierKind.IMEI: self.imei,
            IdentifierKind.IMSI: self.imsi,
            IdentifierKind.SIM_SERIAL: self.sim_serial,
            IdentifierKind.CARRIER: self.carrier,
        }[kind]

    def items(self) -> list[tuple[IdentifierKind, str]]:
        """All ``(kind, value)`` pairs, UDIDs first."""
        return [(kind, self.value_of(kind)) for kind in IdentifierKind]

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable form (for persisting a capture's ground truth)."""
        return {
            "android_id": self.android_id,
            "imei": self.imei,
            "imsi": self.imsi,
            "sim_serial": self.sim_serial,
            "carrier": self.carrier,
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "DeviceIdentity":
        """Inverse of :meth:`to_dict`.

        :raises KeyError: when a field is missing (identity files are
            written by :meth:`to_dict`, so this indicates corruption).
        """
        return cls(
            android_id=data["android_id"],
            imei=data["imei"],
            imsi=data["imsi"],
            sim_serial=data["sim_serial"],
            carrier=data["carrier"],
        )
