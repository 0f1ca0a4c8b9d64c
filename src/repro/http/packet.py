"""The unit of analysis: an HTTP request plus its network destination.

The paper's packet model is ``p = {ip, port, host, rline, cookie, body}``.
:class:`HttpPacket` bundles a :class:`~repro.http.message.HttpRequest` with
a :class:`Destination` and carries provenance (which app sent it, when in
simulated time) that the corpus statistics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParseError
from repro.http.message import HttpRequest
from repro.http.parser import parse_canonical_request, parse_request
from repro.http.serializer import serialize_request
from repro.net.fqdn import LEGAL_HOST, normalize_host, registered_domain_of_normalized
from repro.net.ipv4 import IPv4Address
from repro.net.ports import MAX_PORT, validate_port


@dataclass(frozen=True, slots=True)
class Destination:
    """Where a packet was sent: the ``(ip, port, host)`` triple.

    ``host`` is the FQDN from the request's ``Host`` header (normalized to
    lowercase); ``ip`` is the resolved IPv4 address; ``port`` the TCP port.
    """

    ip: IPv4Address
    port: int
    host: str

    def __post_init__(self) -> None:
        validate_port(self.port)
        object.__setattr__(self, "host", normalize_host(self.host))

    @classmethod
    def make(cls, ip: str, port: int, host: str) -> "Destination":
        """Convenience constructor from dotted-quad text."""
        return cls(IPv4Address.parse(ip), port, host)

    @classmethod
    def from_checked(cls, ip: IPv4Address, port: int, host: str) -> "Destination":
        """A destination from a valid port and an already normalized host.

        :meth:`__post_init__` is not run again.
        """
        destination = object.__new__(cls)
        _set_ip(destination, ip)
        _set_port(destination, port)
        _set_host(destination, host)
        return destination

    @property
    def registered_domain(self) -> str:
        """Aggregation key used by the paper's Table II."""
        return registered_domain_of_normalized(self.host)

    def __str__(self) -> str:
        return f"{self.host}[{self.ip}]:{self.port}"


#: The slot setters, past the frozen ``__setattr__``, for :meth:`Destination.from_checked`.
_set_ip = Destination.ip.__set__  # type: ignore[attr-defined]
_set_port = Destination.port.__set__  # type: ignore[attr-defined]
_set_host = Destination.host.__set__  # type: ignore[attr-defined]


@dataclass(slots=True)
class HttpPacket:
    """One captured outgoing HTTP request.

    :param destination: the ``(ip, port, host)`` triple.
    :param request: the parsed request message.
    :param app_id: package name of the sending application (provenance).
    :param timestamp: seconds of simulated time since the session started.
    :param meta: free-form annotations set by the simulator (e.g. which
        ad module emitted the packet).  Never consulted by the detector —
        it exists for ground-truth bookkeeping and debugging only.
    """

    destination: Destination
    request: HttpRequest
    app_id: str = ""
    timestamp: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    # -- the six fields of the paper's packet model --------------------------

    @property
    def ip(self) -> IPv4Address:
        return self.destination.ip

    @property
    def port(self) -> int:
        return self.destination.port

    @property
    def host(self) -> str:
        return self.destination.host

    @property
    def request_line(self) -> str:
        return self.request.request_line

    @property
    def cookie(self) -> str:
        return self.request.cookie

    @property
    def body(self) -> bytes:
        return self.request.body

    # -- canonical text -----------------------------------------------------

    def canonical_text(self) -> str:
        """The inspected content in a deterministic, matchable form.

        Signatures are matched against this text: request-line, cookie and
        body joined by newlines.  The destination is intentionally not part
        of the text — destination constraints live on the signature itself.
        """
        return self.request.content_text()

    def wire_bytes(self) -> bytes:
        """Full canonical wire form of the request."""
        return serialize_request(self.request)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (used by trace files)."""
        return {
            "ip": str(self.ip),
            "port": self.port,
            "host": self.host,
            "raw": self.wire_bytes().decode("latin-1"),
            "app_id": self.app_id,
            "timestamp": self.timestamp,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HttpPacket":
        """Inverse of :meth:`to_dict`.

        A record in the exact form :meth:`to_dict` writes is decoded in one
        pass by :meth:`_from_canonical_dict`; any other record takes the
        general path below, which yields the same packet or error.

        :raises ParseError: when required keys are missing, ``ip``, ``host``
            or ``raw`` is not a string, or the embedded raw request does not
            parse.
        """
        packet = cls._from_canonical_dict(data)
        if packet is not None:
            return packet
        try:
            ip, port, host, raw = data["ip"], data["port"], data["host"], data["raw"]
        except KeyError as exc:
            raise ParseError(f"packet record missing key {exc}") from exc
        for key, value in (("ip", ip), ("host", host), ("raw", raw)):
            if not isinstance(value, str):
                raise ParseError(
                    f"packet field {key!r} must be a string, got {type(value).__name__}"
                )
        return cls(
            destination=Destination.make(ip, port, host),
            request=parse_request(raw.encode("latin-1")),
            app_id=data.get("app_id", ""),
            timestamp=float(data.get("timestamp", 0.0)),
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def _from_canonical_dict(cls, data: Any) -> "HttpPacket | None":
        """:meth:`from_dict` of a record in canonical form, else ``None``.

        Canonical means: a canonical dotted-quad ``ip``, an int ``port`` in
        range, an already normalized ``host``, and a ``raw`` request that
        :func:`~repro.http.parser.parse_canonical_request` accepts.  Those
        checks are the only validation the parts get.  The remaining
        fields are read as the general path reads them, and raise the
        same errors it would.
        """
        if type(data) is not dict:
            return None
        ip, port, host, raw = data.get("ip"), data.get("port"), data.get("host"), data.get("raw")
        if (
            type(port) is not int
            or not 1 <= port <= MAX_PORT
            or type(host) is not str
            or LEGAL_HOST.fullmatch(host) is None
            or type(ip) is not str
            or type(raw) is not str
        ):
            return None
        address = IPv4Address.parse_canonical(ip)
        if address is None:
            return None
        request = parse_canonical_request(raw)
        if request is None:
            return None
        return cls(
            Destination.from_checked(address, port, host),
            request,
            data.get("app_id", ""),
            float(data.get("timestamp", 0.0)),
            dict(data.get("meta", {})),
        )
