"""From-scratch HTTP/1.x request substrate.

The detector inspects three content fields of each outgoing request —
request-line, ``Cookie`` header, and message body — plus the destination
triple (IP, port, host).  This package provides:

- :class:`repro.http.message.HttpRequest` — the parsed message model,
- :class:`repro.http.packet.HttpPacket` — message + destination, the unit
  every distance and signature operates on,
- :func:`repro.http.parser.parse_request` — tolerant raw-bytes parser,
- :func:`repro.http.serializer.serialize_request` — canonical wire form.
"""

from repro.http.message import HttpRequest
from repro.http.packet import Destination, HttpPacket
from repro.http.parser import parse_request
from repro.http.serializer import serialize_request
from repro.http.url import QueryString, parse_url, percent_decode, percent_encode

__all__ = [
    "HttpRequest",
    "HttpPacket",
    "Destination",
    "parse_request",
    "serialize_request",
    "parse_url",
    "percent_decode",
    "percent_encode",
    "QueryString",
]
