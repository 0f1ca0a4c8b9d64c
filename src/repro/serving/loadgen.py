"""Seeded fleet load generator: device traffic as a logical-clock stream.

The simulation layer produces *corpora* — per-app capture sessions with
their own timestamps.  A serving gateway instead sees one interleaved
arrival stream from a whole fleet of devices.  :class:`FleetLoadGenerator`
turns a :class:`~repro.simulation.corpus.Corpus` trace into that stream:
each packet gets an arrival *tick* (cumulative seeded-exponential
interarrivals) and a device id, so the same ``(corpus, profile, seed)``
always yields the byte-identical event sequence the gateway tests and
the benchmark rely on.

A :class:`LoadProfile` shapes the stream: the mean interarrival sets the
offered load, and an optional burst window compresses interarrivals by
``burst_factor`` to push the gateway into overload for shedding tests.

Two stream shapes exist:

- :meth:`FleetLoadGenerator.events` — the original single interleaved
  stream (one shared RNG draws interarrivals and attributes packets to
  devices), used by the gateway tests and the benchmark;
- :meth:`FleetLoadGenerator.device_events` — one device's **independent
  substream**, derived from a child RNG keyed by the device id alone, so
  the stream for ``device-00003`` is a pure function of
  ``(corpus, profile, seed, device id)``: growing the fleet from 10 to
  10\\ :sup:`4` devices never perturbs any existing device's packets or
  ticks.  :meth:`FleetLoadGenerator.fleet_events` merges those substreams
  into one tick-ordered arrival stream — the federation ingest workload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.http.packet import HttpPacket
from repro.simulation.corpus import Corpus
from repro.simulation.rng import derive_rng


@dataclass(frozen=True, slots=True)
class ScreeningEvent:
    """One arrival at the gateway.

    :param seq: 0-based position in the stream (stable identity).
    :param tick: logical arrival time.
    :param device_id: which fleet device sent the packet.
    :param packet: the outgoing request to screen.
    """

    seq: int
    tick: float
    device_id: str
    packet: HttpPacket


@dataclass(frozen=True, slots=True)
class LoadProfile:
    """The offered-load shape.

    :param mean_interarrival_ticks: average gap between arrivals.
    :param n_devices: fleet size; packets are attributed round-robin-free
        (seeded-uniform) across devices.
    :param burst_factor: interarrival divisor inside the burst window
        (``1.0`` = no change; ``4.0`` = 4x arrival rate).
    :param burst_start: first tick of the burst window.
    :param burst_ticks: window length (``0`` disables the burst).
    """

    mean_interarrival_ticks: float = 1.0
    n_devices: int = 4
    burst_factor: float = 1.0
    burst_start: float = 0.0
    burst_ticks: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_interarrival_ticks <= 0:
            raise SimulationError("mean_interarrival_ticks must be positive")
        if self.n_devices < 1:
            raise SimulationError("need at least one device")
        if self.burst_factor < 1.0:
            raise SimulationError("burst_factor must be >= 1.0")
        if self.burst_ticks < 0 or self.burst_start < 0:
            raise SimulationError("burst window must be non-negative")

    def in_burst(self, tick: float) -> bool:
        """Whether ``tick`` falls inside the burst window."""
        return (
            self.burst_ticks > 0
            and self.burst_start <= tick < self.burst_start + self.burst_ticks
        )


class FleetLoadGenerator:
    """Replays a corpus trace as a deterministic fleet arrival stream.

    :param corpus: the simulated population whose trace is replayed.
    :param profile: the offered-load shape.
    :param seed: determinism root for interarrivals and device choice
        (independent of the corpus seed, so the same corpus can be
        replayed under many load shapes).
    :param packets: optional replacement packet pool; when given, events
        draw from it instead of the full trace.  Federation uses this to
        replay only the locally-flagged suspicious pool — the packets a
        real fleet device would actually report.
    """

    def __init__(
        self,
        corpus: Corpus,
        profile: LoadProfile | None = None,
        seed: int = 0,
        *,
        packets: list[HttpPacket] | None = None,
    ) -> None:
        self.corpus = corpus
        self.profile = profile or LoadProfile()
        self.seed = seed
        self._packets = list(packets) if packets is not None else list(corpus.trace.packets)
        if not self._packets:
            raise SimulationError("cannot generate load from an empty trace")

    def events(self, n_events: int | None = None) -> list[ScreeningEvent]:
        """The first ``n_events`` arrivals (default: one pass of the trace).

        The trace is cycled when ``n_events`` exceeds its length, so a
        small corpus can still drive a long-running serving scenario.
        """
        packets = self._packets
        if n_events is None:
            n_events = len(packets)
        if n_events < 1:
            raise SimulationError("n_events must be positive")
        rng = derive_rng(self.seed, "serving-load")
        profile = self.profile
        events: list[ScreeningEvent] = []
        tick = 0.0
        for seq, packet in enumerate(itertools.islice(itertools.cycle(packets), n_events)):
            mean = profile.mean_interarrival_ticks
            if profile.in_burst(tick):
                mean /= profile.burst_factor
            tick += rng.expovariate(1.0 / mean)
            device = f"device-{rng.randrange(profile.n_devices):03d}"
            events.append(ScreeningEvent(seq=seq, tick=tick, device_id=device, packet=packet))
        return events

    # -- per-device substreams (seed-stable under fleet growth) -------------------

    @staticmethod
    def device_id(device_index: int) -> str:
        """The canonical fleet device id for ``device_index`` (0-based)."""
        return f"device-{device_index:05d}"

    def device_events(self, device_index: int, n_events: int) -> list[ScreeningEvent]:
        """One device's independent arrival substream.

        Everything about the substream — which trace packets the device
        replays and when — comes from a child RNG derived from
        ``(seed, device id)``, never from a fleet-shared RNG.  The
        resulting guarantee is the one fleet simulations need: adding or
        removing *other* devices, or generating their streams first, can
        never shift this device's stream.  ``seq`` here is the device-local
        report index (0-based); the merged fleet stream renumbers globally.
        """
        if device_index < 0:
            raise SimulationError(f"device_index must be >= 0, got {device_index}")
        if n_events < 1:
            raise SimulationError("n_events must be positive")
        device = self.device_id(device_index)
        rng = derive_rng(self.seed, "fleet-device", device)
        packets = self._packets
        profile = self.profile
        events: list[ScreeningEvent] = []
        tick = 0.0
        for seq in range(n_events):
            mean = profile.mean_interarrival_ticks
            if profile.in_burst(tick):
                mean /= profile.burst_factor
            tick += rng.expovariate(1.0 / mean)
            packet = packets[rng.randrange(len(packets))]
            events.append(ScreeningEvent(seq=seq, tick=tick, device_id=device, packet=packet))
        return events

    def fleet_events(self, n_devices: int, events_per_device: int) -> list[ScreeningEvent]:
        """All devices' substreams merged into one tick-ordered stream.

        Ties break on ``(tick, device_id, device-local seq)`` so the merge
        is total and deterministic; ``seq`` is renumbered globally over the
        merged order.  Because each substream is independent, the merged
        stream for ``n_devices + 1`` devices is the ``n_devices`` stream
        with the new device's events spliced in — nothing else moves.
        """
        if n_devices < 1:
            raise SimulationError("need at least one device")
        merged: list[ScreeningEvent] = []
        for device_index in range(n_devices):
            merged.extend(self.device_events(device_index, events_per_device))
        merged.sort(key=lambda event: (event.tick, event.device_id, event.seq))
        return [
            ScreeningEvent(seq=seq, tick=event.tick, device_id=event.device_id, packet=event.packet)
            for seq, event in enumerate(merged)
        ]
