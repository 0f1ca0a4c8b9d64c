"""Seeded, deterministic fault injection for fleet reporters.

:class:`~repro.reliability.faults.FaultPlan` models an unreliable network,
:class:`~repro.reliability.workerfaults.WorkerFaultPlan` an unreliable
compute fleet; :class:`DeviceFaultPlan` models an unreliable (and partly
hostile) *reporting fleet*.  The unit of failure is one device report.

The taxonomy (FlowIntent's stance: treat unexplained traffic as hostile
until corroborated):

- ``MALFORM`` — the envelope arrives corrupted (bad checksum, truncated
  fields, version skew, mistyped sequence).  Ingest rejects it; the honest
  device retries until a clean copy lands, so no observation is lost.
- ``DUPLICATE`` — the device's uploader re-sends an already-accepted
  envelope (an at-least-once transport doing its thing).  The dedup
  window must reject the copy.
- ``REPLAY`` — an *old* envelope (an earlier sequence number) is sent
  again, the classic replay attack.  Sequence monotonicity must reject it.
- ``POISON`` — the device lies: it fabricates an observation no other
  device ever saw (a made-up token with a made-up payload).  Validation
  *accepts* it — it is well-formed — and the k-anonymity min-support gate
  must keep it out of signature material.
- ``FLOOD`` — the device spams copies of one envelope, stressing bounded
  admission and the dedup window at once.

Outcomes are a pure function of ``(seed, device_id, seq[, attempt])``, so
the same plan replays identically regardless of fleet size or interleaving
— the property behind the federation chaos sweep's byte-identity verdict.
Fabricated poison material embeds the fabricator's identity, so two
uncoordinated poisoners can never collude on a token by accident.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Any

from repro.errors import SimulationError
from repro.federation.report import DeviceReport
from repro.http.message import HttpRequest
from repro.http.packet import HttpPacket
from repro.simulation.rng import derive_rng


class DeviceFaultKind(enum.Enum):
    """What happens to one device report on its way to the server."""

    NONE = "none"
    MALFORM = "malform"
    DUPLICATE = "duplicate"
    REPLAY = "replay"
    POISON = "poison"
    FLOOD = "flood"


#: Envelope corruption modes MALFORM draws from (each must fail validation).
_MALFORM_MODES: tuple[str, ...] = ("checksum", "truncate", "version", "seqtype")


class DeviceFaultPlan:
    """A seeded injector of fleet-report faults.

    Rates are independent probabilities that must sum to at most 1; the
    remainder is the clean-delivery probability.

    :param seed: determinism root; equal seeds and rates produce identical
        outcomes for every ``(device_id, seq)``.
    :param malform: probability a report's first attempts arrive corrupted.
    :param duplicate: probability an accepted report is re-sent verbatim.
    :param replay: probability an older envelope is re-sent afterwards.
    :param poison: probability the device also uploads a fabricated report.
    :param flood: probability the device spams extra copies of a report.
    :raises SimulationError: for rates outside ``[0, 1]`` or summing past 1.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        malform: float = 0.0,
        duplicate: float = 0.0,
        replay: float = 0.0,
        poison: float = 0.0,
        flood: float = 0.0,
    ) -> None:
        rates = {
            DeviceFaultKind.MALFORM: malform,
            DeviceFaultKind.DUPLICATE: duplicate,
            DeviceFaultKind.REPLAY: replay,
            DeviceFaultKind.POISON: poison,
            DeviceFaultKind.FLOOD: flood,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{kind.value} rate must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise SimulationError(f"fault rates sum to {sum(rates.values()):.3f} > 1")
        self.seed = seed
        self.rates = rates
        #: Server-side outcome tally (the uploader records what it injected).
        self.counts: Counter[DeviceFaultKind] = Counter()

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "DeviceFaultPlan":
        """A plan spreading ``rate`` across the whole taxonomy.

        Split 30 % malform / 20 % duplicate / 20 % replay / 15 % poison /
        15 % flood — the mix the federation chaos sweep uses.
        """
        return cls(
            seed=seed,
            malform=0.30 * rate,
            duplicate=0.20 * rate,
            replay=0.20 * rate,
            poison=0.15 * rate,
            flood=0.15 * rate,
        )

    def record(self, kind: DeviceFaultKind) -> None:
        """Tally one observed outcome (uploader-side bookkeeping)."""
        self.counts[kind] += 1

    # -- draws (all pure functions of seed + labels) -------------------------------

    def outcome(self, device_id: str, seq: int) -> DeviceFaultKind:
        """The fault (if any) attached to one report."""
        rng = derive_rng(self.seed, "device-fault", device_id, str(seq))
        point = rng.random()
        cumulative = 0.0
        for kind, rate in self.rates.items():
            cumulative += rate
            if point < cumulative:
                return kind
        return DeviceFaultKind.NONE

    def malform_attempts(self, device_id: str, seq: int) -> int:
        """How many corrupted attempts precede the clean copy (1-2)."""
        rng = derive_rng(self.seed, "device-malform-n", device_id, str(seq))
        return 1 + rng.randrange(2)

    def mangle(self, record: dict[str, Any], device_id: str, seq: int, attempt: int) -> dict[str, Any]:
        """Deterministically corrupt one envelope for a MALFORM attempt.

        Picks a corruption mode that validation is guaranteed to catch —
        the fault model is "detected garbage", never "silent garbage"
        (silent lies are POISON's job, and min-support's problem).
        """
        rng = derive_rng(self.seed, "device-mangle", device_id, str(seq), str(attempt))
        mode = _MALFORM_MODES[rng.randrange(len(_MALFORM_MODES))]
        mangled = dict(record)
        if mode == "checksum":
            mangled["checksum"] = "0" * 64
        elif mode == "truncate":
            mangled.pop("packet", None)
        elif mode == "version":
            mangled["format_version"] = 0
        else:  # seqtype
            mangled["seq"] = str(mangled.get("seq"))
        return mangled

    def replay_target(self, device_id: str, seq: int) -> int:
        """Which earlier sequence number a REPLAY re-sends (1-based)."""
        if seq <= 1:
            return 1
        rng = derive_rng(self.seed, "device-replay", device_id, str(seq))
        return 1 + rng.randrange(seq - 1)

    def flood_copies(self, device_id: str, seq: int) -> int:
        """Extra verbatim copies a FLOOD burst sends (2-5)."""
        rng = derive_rng(self.seed, "device-flood", device_id, str(seq))
        return 2 + rng.randrange(4)

    def fabricate(self, template: DeviceReport, seq: int) -> DeviceReport:
        """A POISON device's lie: a well-formed report nobody corroborates.

        The fabrication is *structurally novel* — its own path, parameter
        names, and body, sharing nothing but the destination with the
        template — because a poisoner's goal is to trick the server into
        signing traffic shapes no honest device produces (and so spamming
        every fleet user with false prompts).  The fabricated token and
        payload embed ``(device_id, seq)`` plus seeded entropy, so no two
        fabrications — even from the same device — collide.  The envelope
        validates perfectly; only distinct-device support can reveal it
        for what it is.
        """
        rng = derive_rng(self.seed, "device-poison", template.device_id, str(seq))
        marker = f"{template.device_id}-{seq}-{rng.getrandbits(48):012x}"
        body = f"uid={marker}&burst={rng.randrange(10 ** 6)}".encode("ascii")
        source = template.packet.request
        request = HttpRequest(
            method="POST",
            target=f"/beacon/{marker}?cb={rng.randrange(10 ** 9)}",
            version=source.version,
            headers=[
                (name, value)
                for name, value in source.headers
                if name.lower() in ("host", "user-agent")
            ],
            body=body,
        )
        request.set_header("Content-Type", "application/x-www-form-urlencoded")
        request.set_header("Content-Length", str(len(body)))
        packet = HttpPacket(
            destination=template.packet.destination,
            request=request,
            app_id=template.packet.app_id,
            timestamp=template.packet.timestamp,
            meta={"fabricated": True},
        )
        return DeviceReport(
            device_id=template.device_id,
            seq=seq,
            token=f"POISON {marker}",
            packet=packet,
        )
