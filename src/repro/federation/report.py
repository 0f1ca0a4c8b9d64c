"""The device -> server report protocol: checksummed, versioned envelopes.

A fleet device that locally flags a packet as a candidate leak uploads a
*report*: the packet itself plus the **token** summarizing the leak shape
it observed.  The token is the aggregation key for k-anonymity: it names
*where and how* data flowed (method, destination, path, parameter names)
— never the parameter *values*, which are exactly the per-device material
(UDIDs, Android IDs) that must not be pooled raw across users.

On the wire a report travels as a JSON-able envelope mirroring the
signature-distribution format (:mod:`repro.signatures.store` format 2):

- ``format_version`` — protocol version, rejected on skew;
- ``device_id`` / ``seq`` — the reporter and its per-device monotonic
  sequence number (1-based), the replay-defense handle;
- ``token`` — the aggregation key;
- ``packet`` — the serialized :class:`~repro.http.packet.HttpPacket`;
- ``checksum`` — hex SHA-256 over the canonical serialization of all
  other fields, so truncation and bit corruption are detected without
  trusting the transport.

Every validation failure raises
:class:`~repro.errors.ReportValidationError` with a machine-readable
``reason`` (``schema`` / ``version`` / ``checksum``) — ingest counts them
per cause and never lets one bad envelope abort a batch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError, ReportValidationError
from repro.http.packet import HttpPacket

#: Current report envelope protocol version.
REPORT_FORMAT_VERSION = 1


def token_for(packet: HttpPacket) -> str:
    """The aggregation token: the leak *shape*, never the leaked values.

    ``METHOD host:port/path?name&name|name&name`` — query parameter names
    before the bar, body (form) parameter names after, each sorted.  Two
    devices leaking *different* identifier values through the same app
    endpoint produce the same token (so honest support accumulates), while
    a fabricated observation no other device saw stays unique to its
    fabricator (so min-support kills it).
    """
    request = packet.request
    query_names = ",".join(sorted(request.query.keys()))
    form_names = ",".join(sorted(request.form().keys()))
    return (
        f"{request.method} {packet.host}:{packet.port}"
        f"{request.path}?{query_names}|{form_names}"
    )


@dataclass(frozen=True, slots=True)
class DeviceReport:
    """One validated candidate-leak observation.

    :param device_id: the reporting device.
    :param seq: per-device monotonic sequence number (1-based).
    :param token: the leak-shape aggregation key (see :func:`token_for`).
    :param packet: the observed packet (signature material once the
        token passes the min-support gate).
    """

    device_id: str
    seq: int
    token: str
    packet: HttpPacket


def _payload_checksum(record: dict[str, Any]) -> str:
    """SHA-256 over the canonical serialization of the non-checksum fields."""
    material = {key: value for key, value in record.items() if key != "checksum"}
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_report(report: DeviceReport) -> dict[str, Any]:
    """Serialize one report to its checksummed wire envelope."""
    record: dict[str, Any] = {
        "format_version": REPORT_FORMAT_VERSION,
        "device_id": report.device_id,
        "seq": report.seq,
        "token": report.token,
        "packet": report.packet.to_dict(),
    }
    record["checksum"] = _payload_checksum(record)
    return record


def decode_report(record: Any) -> DeviceReport:
    """Validate one wire envelope back into a :class:`DeviceReport`.

    :raises ReportValidationError: with ``reason`` ``"schema"`` for a
        missing/mistyped field or unparseable packet, ``"version"`` for
        protocol skew, and ``"checksum"`` for payload corruption.
    """
    if not isinstance(record, dict):
        raise ReportValidationError(
            f"report envelope must be a mapping, got {type(record).__name__}"
        )
    version = record.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise ReportValidationError(
            f"unsupported report format version {version!r}", reason="version"
        )
    device_id = record.get("device_id")
    if not isinstance(device_id, str) or not device_id:
        raise ReportValidationError(f"bad device_id {device_id!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ReportValidationError(f"bad seq {seq!r} (need int >= 1)")
    token = record.get("token")
    if not isinstance(token, str) or not token:
        raise ReportValidationError(f"bad token {token!r}")
    packet_record = record.get("packet")
    if not isinstance(packet_record, dict):
        raise ReportValidationError("missing or mistyped packet record")
    checksum = record.get("checksum")
    if not isinstance(checksum, str):
        raise ReportValidationError("missing checksum", reason="checksum")
    if checksum != _payload_checksum(record):
        raise ReportValidationError(
            f"checksum mismatch for {device_id}#{seq}", reason="checksum"
        )
    try:
        packet = HttpPacket.from_dict(packet_record)
    except (ParseError, TypeError, ValueError, OverflowError) as exc:
        raise ReportValidationError(f"unparseable packet payload: {exc}") from exc
    return DeviceReport(device_id=device_id, seq=seq, token=token, packet=packet)
