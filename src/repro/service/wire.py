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
import math
from typing import Any, Mapping, Sequence

from repro.errors import ParseError, ServiceError
from repro.http.packet import HttpPacket
from repro.obs.context import TraceContext, parse_traceparent
from repro.serving.gateway import ServeOutcome, ServeResult
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
    if not math.isfinite(tick):  # NaN never orders, so the gateway could not queue it
        raise ServiceError(f"bad event tick {tick!r}")
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
    event = object.__new__(ScreeningEvent)
    _set_seq(event, seq)
    _set_tick(event, tick)
    _set_device_id(event, device_id)
    _set_packet(event, packet)
    return event


# A frozen dataclass's ``__init__`` sets each field through
# ``object.__setattr__``; the slot setters cost a third of that per event.
_set_seq = ScreeningEvent.seq.__set__  # type: ignore[attr-defined]
_set_tick = ScreeningEvent.tick.__set__  # type: ignore[attr-defined]
_set_device_id = ScreeningEvent.device_id.__set__  # type: ignore[attr-defined]
_set_packet = ScreeningEvent.packet.__set__  # type: ignore[attr-defined]


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


_OUTCOME_JSON = {outcome: json.dumps(outcome.value) for outcome in ServeOutcome}


def _is_finite_float(value: Any) -> bool:
    """Whether ``repr(value)`` is how :func:`json.dumps` writes ``value``."""
    return type(value) is float and value - value == 0.0


def _result_json(result: ServeResult, fragments: Mapping[int, str]) -> str:
    """``json.dumps(encode_result(result), sort_keys=True)``, from fragments.

    Fields of an unusual type (an int tick, a non-finite float, an outcome
    outside :class:`ServeOutcome`) take ``json.dumps`` itself.
    """
    match = result.match
    if match is None:
        match_json: str | None = "null"
    elif type(match.matched) is bool and _is_finite_float(match.score):
        signature = match.signature
        if signature is None:
            signature_json = "null"
        else:
            signature_json = fragments.get(id(signature)) or json.dumps(
                signature.to_dict(), sort_keys=True
            )
        match_json = (
            f'{{"matched": {"true" if match.matched else "false"}, '
            f'"score": {match.score!r}, "signature": {signature_json}}}'
        )
    else:
        match_json = None
    seq = result.event.seq
    completed = result.completed_tick
    latency = result.latency_ticks
    outcome = _OUTCOME_JSON.get(result.outcome)
    if (
        match_json is None
        or outcome is None
        or type(seq) is not int
        or type(result.batch_id) is not int
        or type(result.generation) is not int
        or type(result.set_version) is not int
        or not _is_finite_float(completed)
        or not _is_finite_float(latency)
    ):
        return json.dumps(encode_result(result), sort_keys=True)
    return (
        f'{{"batch_id": {result.batch_id}, "completed_tick": {completed!r}, '
        f'"generation": {result.generation}, "latency_ticks": {latency!r}, '
        f'"match": {match_json}, "outcome": {outcome}, '
        f'"screened": {"false" if match is None else "true"}, "seq": {seq}, '
        f'"set_version": {result.set_version}}}'
    )


def encode_screen_reply(
    results: Sequence[ServeResult],
    generation: int,
    set_version: int,
    fragments: Mapping[int, str],
) -> bytes:
    """The ``POST /v1/screen`` reply body, written as bytes.

    Byte-identical to ``json.dumps({"results": encode_results(results),
    "generation": generation, "set_version": set_version},
    sort_keys=True).encode()``, but each verdict is one string format and
    each signature is a fragment rendered when its matcher was built.

    :param fragments: ``id(signature) -> json.dumps(signature.to_dict(),
        sort_keys=True)`` for the live matcher's signatures
        (:attr:`ScreeningGateway.fragments
        <repro.serving.gateway.ScreeningGateway.fragments>`); a
        signature it lacks, such as one from an earlier generation, is
        rendered on the spot.
    """
    body = ", ".join([_result_json(result, fragments) for result in results])
    return (
        f'{{"generation": {json.dumps(generation)}, "results": [{body}], '
        f'"set_version": {json.dumps(set_version)}}}'
    ).encode()


def canonical_decisions(records: Sequence[dict[str, Any]]) -> str:
    """The canonical byte form decision streams are compared in."""
    return json.dumps(list(records), sort_keys=True, separators=(",", ":"))
