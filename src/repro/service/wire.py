"""JSON wire forms shared by the service handler, its clients, and tests.

The byte-identity contract in the service acceptance test — "screening
decisions over the socket equal in-process gateway decisions" — only
means something if both sides serialize through the *same* functions, so
the encode/decode pairs live here, imported by the HTTP handler, the
load-harness client, and the equivalence tests alike.

Everything is plain ``dict``/``list`` JSON with sorted keys where the
payload is compared byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.errors import ParseError, ServiceError
from repro.http.packet import HttpPacket
from repro.obs.context import TraceContext, parse_traceparent
from repro.serving.gateway import ServeResult
from repro.serving.loadgen import ScreeningEvent

#: The W3C trace-propagation header both sides of the socket agree on.
TRACEPARENT_HEADER = "traceparent"


def extract_traceparent(headers: Any) -> TraceContext | None:
    """Read the trace context from incoming headers (mapping-like).

    Absent or malformed headers yield ``None``: the request is served
    identically, its route span just carries no trace id.
    """
    return parse_traceparent(headers.get(TRACEPARENT_HEADER))


def encode_event(event: ScreeningEvent) -> dict[str, Any]:
    """One gateway arrival as its wire record."""
    return {
        "seq": event.seq,
        "tick": event.tick,
        "device_id": event.device_id,
        "packet": event.packet.to_dict(),
    }


def decode_event(record: Any) -> ScreeningEvent:
    """Parse one wire record back into a :class:`ScreeningEvent`.

    :raises ServiceError: for a missing/mistyped field or unparseable
        packet (the handler maps this to HTTP 400).
    """
    if not isinstance(record, dict):
        raise ServiceError(f"event must be an object, got {type(record).__name__}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ServiceError(f"bad event seq {seq!r}")
    tick = record.get("tick")
    if not isinstance(tick, (int, float)) or isinstance(tick, bool) or tick < 0:
        raise ServiceError(f"bad event tick {tick!r}")
    try:
        tick = float(tick)
    except OverflowError as exc:  # an int beyond float range
        raise ServiceError(f"bad event tick {tick!r}") from exc
    device_id = record.get("device_id")
    if not isinstance(device_id, str) or not device_id:
        raise ServiceError(f"bad event device_id {device_id!r}")
    packet_record = record.get("packet")
    if not isinstance(packet_record, dict):
        raise ServiceError("missing or mistyped event packet")
    try:
        packet = HttpPacket.from_dict(packet_record)
    except (ParseError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"unparseable event packet: {exc}") from exc
    return ScreeningEvent(seq=seq, tick=tick, device_id=device_id, packet=packet)


def encode_result(result: ServeResult) -> dict[str, Any]:
    """One gateway verdict as its wire record.

    Carries everything a device needs to act on the verdict plus the
    audit fields (generation, set version, batch) the equivalence tests
    compare; the packet itself is not echoed back.
    """
    match = result.match
    return {
        "seq": result.event.seq,
        "outcome": result.outcome.value,
        "generation": result.generation,
        "set_version": result.set_version,
        "batch_id": result.batch_id,
        "completed_tick": result.completed_tick,
        "latency_ticks": result.latency_ticks,
        "screened": result.screened,
        "match": None
        if match is None
        else {
            "matched": match.matched,
            "score": match.score,
            "signature": None if match.signature is None else match.signature.to_dict(),
        },
    }


def encode_results(results: Sequence[ServeResult]) -> list[dict[str, Any]]:
    """A whole verdict stream, in gateway output order."""
    return [encode_result(result) for result in results]


def canonical_decisions(records: Sequence[dict[str, Any]]) -> str:
    """The canonical byte form decision streams are compared in."""
    return json.dumps(list(records), sort_keys=True, separators=(",", ":"))
