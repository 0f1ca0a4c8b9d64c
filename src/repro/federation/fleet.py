"""The federation round: fleet substreams -> faulty transport -> signatures.

:func:`run_federation` drives one end-to-end crowdsourcing round on the
logical clock:

1. every simulated device replays its independent suspicious-packet
   substream (:meth:`~repro.serving.loadgen.FleetLoadGenerator.device_events`)
   and compiles it into a *send script* — honest envelopes plus whatever
   junk its :class:`~repro.federation.faults.DeviceFaultPlan` outcome
   injects (corrupted attempts, duplicate/replay/flood copies, fabricated
   poison reports appended after the honest stream);
2. a heap-merged transport delivers sends across devices in tick order;
   each device is strictly sequential — an honest envelope is retried
   (exponential backoff) until accepted before the next is sent, which is
   what per-device sequence monotonicity demands of a real uploader;
3. accepted reports flow into the
   :class:`~repro.federation.aggregate.FederatedAggregator`; after the
   fleet drains, the k-anonymity min-support gate selects signature
   material and the standard cluster + generate pipeline runs over it.

Determinism inventory (why the chaos sweep can demand byte-identity):
honest wire sequence numbers equal the device-local observation index, so
faults never shift them; poison fabrications consume only tail sequence
numbers; per-device acceptance order is always sequence order; and the
aggregate is a pure function of the accepted-contribution set.  The only
thing faults can change is *when* things happen — never what the fleet
agreed on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.core.pipeline import PipelineConfig
from repro.errors import FederationError
from repro.eval.crossval import generate_from
from repro.federation.aggregate import FederatedAggregator
from repro.federation.faults import DeviceFaultKind, DeviceFaultPlan
from repro.federation.ingest import FleetIngest, IngestConfig
from repro.federation.report import DeviceReport, encode_report, token_for
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability
from repro.reliability.retry import RetryPolicy
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureStore
from repro.simulation.corpus import Corpus
from repro.simulation.rng import derive_rng

#: Logical gap between consecutive sends from one device's uploader.
_SEND_GAP = 0.01

#: Per-envelope delivery-attempt cap; an honest envelope still unaccepted
#: after this many tries means the admission plane livelocked — fail loudly.
_MAX_ATTEMPTS = 64


@dataclass(slots=True)
class _Send:
    """One scripted transmission from a device's uploader.

    :param record: the wire envelope (possibly deliberately corrupted).
    :param must_deliver: retry until accepted (honest + poison payloads)
        versus fire-and-forget junk (corrupted attempts, copies).
    :param base_tick: earliest logical send time (``None`` = as soon as
        the uploader gets there).
    """

    record: dict[str, Any]
    must_deliver: bool
    base_tick: float | None = None


@dataclass(slots=True)
class _Uploader:
    """One device's sequential transport cursor."""

    device_id: str
    script: list[_Send]
    index: int = 0
    retries: int = 0
    ready_tick: float = 0.0

    def current(self) -> _Send:
        return self.script[self.index]

    def done(self) -> bool:
        return self.index >= len(self.script)


@dataclass(slots=True)
class FederationResult:
    """Everything one federation round produced.

    :param n_devices: fleet size driven.
    :param reports_per_device: honest observations per device.
    :param min_support: the k-anonymity gate applied.
    :param signatures: the generated signature set.
    :param signature_bytes: canonical serialization of ``signatures`` —
        the byte-identity handle the chaos sweep compares.
    :param admitted_tokens: tokens that passed the min-support gate.
    :param material_size: packets handed to the generation pipeline.
    :param sends: total transport-level submissions (honest + junk + retries).
    :param final_tick: logical time when the fleet drained.
    :param ingest_stats: :meth:`FleetIngest.stats` snapshot.
    :param aggregate_stats: :meth:`FederatedAggregator.stats` snapshot.
    :param fault_counts: injected-fault tally by kind.
    :param material: the signature material the k-gate admitted.
    :param fabricated_pool: every fabricated packet poison devices got
        *accepted* this round (gate-independent) — the adversarial traffic
        an evaluation must screen against.
    """

    n_devices: int
    reports_per_device: int
    min_support: int
    signatures: list[ConjunctionSignature]
    signature_bytes: str
    admitted_tokens: list[str]
    material_size: int
    sends: int
    final_tick: float
    ingest_stats: dict[str, Any] = field(default_factory=dict)
    aggregate_stats: dict[str, Any] = field(default_factory=dict)
    fault_counts: dict[str, int] = field(default_factory=dict)
    material: list[HttpPacket] = field(default_factory=list)
    fabricated_pool: list[HttpPacket] = field(default_factory=list)


def _compile_script(
    device_index: int,
    loadgen: FleetLoadGenerator,
    reports_per_device: int,
    plan: DeviceFaultPlan,
) -> list[_Send]:
    """One device's full send script: honest stream plus injected junk.

    Honest observation ``j`` (0-based) always travels with wire sequence
    number ``j + 1`` regardless of fault outcomes, and poison fabrications
    take tail numbers after the honest stream — the invariant that keeps
    the accepted honest set identical across fault rates.
    """
    device_id = loadgen.device_id(device_index)
    events = loadgen.device_events(device_index, reports_per_device)
    script: list[_Send] = []
    accepted_records: list[dict[str, Any]] = []
    poison_triggers: list[int] = []
    for event in events:
        seq = event.seq + 1
        report = DeviceReport(
            device_id=device_id, seq=seq, token=token_for(event.packet), packet=event.packet
        )
        record = encode_report(report)
        kind = plan.outcome(device_id, seq)
        plan.record(kind)
        if kind is DeviceFaultKind.MALFORM:
            for attempt in range(plan.malform_attempts(device_id, seq)):
                script.append(
                    _Send(
                        record=plan.mangle(record, device_id, seq, attempt),
                        must_deliver=False,
                        base_tick=event.tick,
                    )
                )
        script.append(_Send(record=record, must_deliver=True, base_tick=event.tick))
        accepted_records.append(record)
        if kind is DeviceFaultKind.DUPLICATE:
            script.append(_Send(record=record, must_deliver=False))
        elif kind is DeviceFaultKind.REPLAY:
            target = plan.replay_target(device_id, seq)
            script.append(_Send(record=accepted_records[target - 1], must_deliver=False))
        elif kind is DeviceFaultKind.FLOOD:
            for _ in range(plan.flood_copies(device_id, seq)):
                script.append(_Send(record=record, must_deliver=False))
        elif kind is DeviceFaultKind.POISON:
            poison_triggers.append(seq)
    next_seq = len(events) + 1
    for trigger_seq in poison_triggers:
        template = DeviceReport(
            device_id=device_id,
            seq=next_seq,
            token="",  # replaced by the fabricated token
            packet=events[trigger_seq - 1].packet,
        )
        fabricated = plan.fabricate(template, next_seq)
        script.append(_Send(record=encode_report(fabricated), must_deliver=True))
        next_seq += 1
    return script


def run_federation(
    corpus: Corpus,
    *,
    seed: int = 0,
    n_devices: int = 16,
    reports_per_device: int = 8,
    min_support: int = 3,
    fault_plan: DeviceFaultPlan | None = None,
    ingest_config: IngestConfig | None = None,
    contribution_cap: int = 64,
    profile: LoadProfile | None = None,
    pipeline_config: PipelineConfig | None = None,
    obs: Observability | None = None,
) -> FederationResult:
    """Run one crowdsourced signature-generation round.

    :param corpus: the simulated population; devices replay its
        locally-flagged suspicious pool.
    :param seed: determinism root for substreams, faults, and backoff.
    :param n_devices: fleet size.
    :param reports_per_device: honest observations per device.
    :param min_support: the k-anonymity gate (tokens need this many
        distinct supporting devices to become signature material).
    :param fault_plan: injected fleet faults (default: fault-free).
    :param ingest_config: admission tuning.
    :param contribution_cap: distinct tokens one device may introduce.
    :param profile: offered-load shape for the device substreams.
    :param pipeline_config: cluster + generate configuration.
    :param obs: optional observability bundle, shared with ingest.
    :raises FederationError: when an honest envelope cannot be delivered
        within the attempt cap (an admission-plane livelock, never
        expected under the shipped configurations).
    """
    if n_devices < 1:
        raise FederationError("n_devices must be >= 1")
    if reports_per_device < 1:
        raise FederationError("reports_per_device must be >= 1")
    obs = obs or NULL_OBS
    plan = fault_plan or DeviceFaultPlan(seed=seed)
    check = corpus.payload_check()
    suspicious, _normal = check.split(corpus.trace)
    if not suspicious:
        raise FederationError("corpus has no suspicious packets for devices to report")
    loadgen = FleetLoadGenerator(corpus, profile, seed=seed, packets=suspicious)
    ingest = FleetIngest(ingest_config, obs=obs)
    aggregator = FederatedAggregator(contribution_cap=contribution_cap, obs=obs)
    retry_policy = RetryPolicy(max_attempts=_MAX_ATTEMPTS, base_delay=1.0, multiplier=2.0,
                               max_delay=ingest.config.quarantine_release_ticks)

    # Compile every device's script, then heap-merge sends in tick order.
    heap: list[tuple[float, str, int]] = []
    uploaders: dict[str, _Uploader] = {}
    for device_index in range(n_devices):
        script = _compile_script(device_index, loadgen, reports_per_device, plan)
        device_id = loadgen.device_id(device_index)
        uploader = _Uploader(device_id=device_id, script=script)
        first = script[0]
        uploader.ready_tick = first.base_tick if first.base_tick is not None else 0.0
        uploaders[device_id] = uploader
        heapq.heappush(heap, (uploader.ready_tick, device_id, device_index))

    sends = 0
    final_tick = 0.0
    while heap:
        tick, device_id, device_index = heapq.heappop(heap)
        uploader = uploaders[device_id]
        send = uploader.current()
        result = ingest.submit(send.record, tick)
        sends += 1
        final_tick = max(final_tick, tick)
        if send.must_deliver and not result.accepted:
            if not result.status.retryable:
                raise FederationError(
                    f"honest envelope from {device_id} rejected terminally "
                    f"({result.status.value}: {result.reason})"
                )
            if uploader.retries + 1 >= _MAX_ATTEMPTS:
                raise FederationError(
                    f"honest envelope from {device_id} exceeded "
                    f"{_MAX_ATTEMPTS} delivery attempts"
                )
            backoff_rng = derive_rng(seed, "fed-retry", device_id, str(uploader.index),
                                     str(uploader.retries))
            uploader.ready_tick = tick + retry_policy.backoff(uploader.retries, backoff_rng)
            uploader.retries += 1
            heapq.heappush(heap, (uploader.ready_tick, device_id, device_index))
            continue
        if result.accepted and result.report is not None:
            aggregator.accept(result.report)
        uploader.index += 1
        uploader.retries = 0
        if not uploader.done():
            nxt = uploader.current()
            ready = tick + _SEND_GAP
            if nxt.base_tick is not None:
                ready = max(ready, nxt.base_tick)
            uploader.ready_tick = ready
            heapq.heappush(heap, (ready, device_id, device_index))

    # The k-gate, then the standard generation pipeline over admitted material.
    admitted = aggregator.admitted_tokens(min_support)
    material = aggregator.admitted_material(min_support)
    if len(material) >= 2:
        signatures = generate_from(material, pipeline_config)
    else:
        signatures = []
    fabricated_pool = [
        packet
        for packet in aggregator.admitted_material(1)
        if packet.meta.get("fabricated")
    ]
    obs.set_gauge("fed_admitted_tokens", len(admitted))
    obs.set_gauge("fed_signatures", len(signatures))
    return FederationResult(
        n_devices=n_devices,
        reports_per_device=reports_per_device,
        min_support=min_support,
        signatures=signatures,
        signature_bytes=SignatureStore.dumps(signatures),
        admitted_tokens=admitted,
        material_size=len(material),
        sends=sends,
        final_tick=final_tick,
        ingest_stats=ingest.stats(),
        aggregate_stats=aggregator.stats(),
        fault_counts={kind.value: count for kind, count in sorted(
            plan.counts.items(), key=lambda item: item[0].value)},
        material=material,
        fabricated_pool=fabricated_pool,
    )
