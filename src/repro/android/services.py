"""Data-driven network service models (wire-format engine).

Every destination an application talks to — an advertisement network, an
analytics service, a Web API, a content host — is described by a
:class:`ServiceSpec`: its hosts, IP plan, request templates, and leak
profile.  :class:`Service` turns specs into concrete
:class:`~repro.http.packet.HttpPacket` objects during a simulated session.

The template language is deliberately small: a request is a method, a path,
and three parameter lists (query, body, cookies) whose values come from
:class:`ValueSource` kinds — literals, device identifiers (gated through
the Binder), per-app or per-session tokens, random material, timestamps.
This is enough to model the real SDK wire formats the paper observed
(identifiers in query strings, form bodies, and cookies) while keeping the
catalog of ~30 services declarative and auditable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

from repro.errors import PermissionDenied, SimulationError
from repro.http.message import HttpRequest
from repro.http.packet import Destination, HttpPacket
from repro.http.url import percent_encode
from repro.net.ipv4 import IPv4Address
from repro.sensitive.identifiers import IdentifierKind
from repro.sensitive.transforms import Transform, transform_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.android.app import Application
    from repro.android.device import Device


class ValueSource:
    """Factory namespace for parameter value specifications."""

    LITERAL = "literal"
    IDENTIFIER = "identifier"
    APP_TOKEN = "app_token"  # stable per (service, app) — an app install id
    SESSION_TOKEN = "session_token"  # stable within one run of the app
    RANDOM_HEX = "random_hex"  # fresh every request
    RANDOM_DIGITS = "random_digits"
    PACKAGE = "package"  # the host application's package name
    TIMESTAMP = "timestamp"  # simulated epoch milliseconds
    SEQUENCE = "sequence"  # per-session increasing counter
    LOCALE = "locale"
    LOCATION_LAT = "location_lat"  # device latitude (fine-location gated)
    LOCATION_LON = "location_lon"  # device longitude (ditto)


@dataclass(frozen=True, slots=True)
class Param:
    """One wire parameter.

    :param key: parameter name as it appears on the wire.
    :param source: a :class:`ValueSource` kind.
    :param literal: the value for LITERAL sources.
    :param identifier: identifier kind for IDENTIFIER sources.
    :param transform: hash transform applied to an identifier.
    :param length: length of generated random/token material.
    :param probability: chance the parameter is present at all (models
        optional fields SDKs include conditionally).
    :param app_gate: fraction of adopting apps whose build/config includes
        this parameter at all; decided deterministically per (app, key).
        Models SDK versions and integration options — the mechanism behind
        the paper's Table III "# Apps" being much smaller than a service's
        total adoption for some identifier kinds.
    """

    key: str
    source: str = ValueSource.LITERAL
    literal: str = ""
    identifier: IdentifierKind | None = None
    transform: Transform = Transform.PLAIN
    length: int = 16
    probability: float = 1.0
    app_gate: float = 1.0

    @classmethod
    def lit(cls, key: str, value: str) -> "Param":
        return cls(key, ValueSource.LITERAL, literal=value)

    @classmethod
    def ident(
        cls,
        key: str,
        kind: IdentifierKind,
        transform: Transform = Transform.PLAIN,
        probability: float = 1.0,
        app_gate: float = 1.0,
    ) -> "Param":
        return cls(
            key,
            ValueSource.IDENTIFIER,
            identifier=kind,
            transform=transform,
            probability=probability,
            app_gate=app_gate,
        )


@dataclass(frozen=True, slots=True)
class RequestTemplate:
    """One request shape a service can emit.

    :param name: event label ("ad_request", "imp", "track"...), recorded in
        packet metadata for ground-truth debugging.
    :param method: GET or POST.
    :param path: URL path (no query string; query comes from ``query``).
    :param host_index: which of the service's hosts receives this request.
    :param query: query-string parameters.
    :param body: form-body parameters (POST only).
    :param cookies: cookie parameters.
    :param weight: relative frequency among the service's repeating events.
    :param once: emitted exactly once per session (SDK init beacons).
    :param app_gate: fraction of adopting apps whose integration uses this
        request shape at all (deterministic per app) — models optional SDK
        features only some apps enable, which is how a service's secondary
        hosts end up with fewer apps than its primary (Table II).
    """

    name: str
    method: str
    path: str
    host_index: int = 0
    query: tuple[Param, ...] = ()
    body: tuple[Param, ...] = ()
    cookies: tuple[Param, ...] = ()
    weight: float = 1.0
    once: bool = False
    app_gate: float = 1.0


@dataclass(frozen=True)
class ServiceSpec:
    """Full static description of one network service.

    :param name: short service id ("admob", "nend", ...).
    :param category: "ad", "analytics", "webapi", or "content".
    :param hosts: FQDNs the service answers on; index 0 is the primary.
    :param ip_base: dotted-quad base of the operator's address block; each
        host gets a stable address inside it (same org => close addresses,
        which is what the paper's ``d_ip`` exploits).
    :param ip_prefix: prefix length of the operator's block.
    :param templates: the request shapes.
    :param adoption_target: how many of the 1,188 corpus apps embed this
        service (Table II's "# Apps" column).
    :param packets_per_app: mean packets one app sends this service per
        session (Table II's "# Packets" / "# Apps").
    """

    name: str
    category: str
    hosts: tuple[str, ...]
    ip_base: str
    ip_prefix: int = 24
    templates: tuple[RequestTemplate, ...] = ()
    adoption_target: int = 0
    packets_per_app: float = 1.0

    def __post_init__(self) -> None:
        if not self.hosts:
            raise SimulationError(f"service {self.name} declares no hosts")
        for template in self.templates:
            if not 0 <= template.host_index < len(self.hosts):
                raise SimulationError(
                    f"service {self.name} template {template.name} references host "
                    f"{template.host_index} but only {len(self.hosts)} hosts exist"
                )


def _stable_offset(text: str, modulus: int) -> int:
    """Deterministic small integer derived from a string (not RNG-seeded,
    so host -> IP is stable across corpora)."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % modulus


class Service:
    """A live service instance: spec + deterministic IP assignment.

    :param spec: the static description.
    """

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec
        base = IPv4Address.parse(spec.ip_base)
        span = 1 << (32 - spec.ip_prefix)
        self._host_ips: dict[str, IPv4Address] = {}
        for host in spec.hosts:
            offset = _stable_offset(host, span - 2) + 1
            self._host_ips[host] = IPv4Address((base.value & ~(span - 1)) + offset)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def category(self) -> str:
        return self.spec.category

    def ip_for(self, host: str) -> IPv4Address:
        """The stable IPv4 address serving ``host``."""
        return self._host_ips[host]

    # -- packet construction ---------------------------------------------------

    def session_packets(
        self,
        app: "Application",
        device: "Device",
        rng: Random,
        count: int,
        *,
        start_time: float = 0.0,
        duration: float = 600.0,
    ) -> list[HttpPacket]:
        """Emit ``count`` packets for one app session.

        ``once`` templates fire first (at most once each); the remainder are
        sampled by weight.  Timestamps are spread uniformly over the
        session duration and sorted.
        """
        if count <= 0:
            return []
        state = _SessionState(app=app, device=device, rng=rng)
        templates = [
            t for t in self.spec.templates
            if t.app_gate >= 1.0 or _template_gate_open(self.name, app.package, t)
        ]
        chosen: list[RequestTemplate] = []
        once_templates = [t for t in templates if t.once]
        repeating = [t for t in templates if not t.once]
        for template in once_templates:
            if len(chosen) < count:
                chosen.append(template)
        if repeating:
            weights = [t.weight for t in repeating]
            while len(chosen) < count:
                chosen.append(rng.choices(repeating, weights=weights)[0])
        elif not chosen:
            return []
        times = sorted(start_time + rng.random() * duration for __ in chosen)
        return [
            self.build_packet(template, state, timestamp)
            for template, timestamp in zip(chosen, times)
        ]

    def build_packet(
        self, template: RequestTemplate, state: "_SessionState", timestamp: float = 0.0
    ) -> HttpPacket:
        """Instantiate one template into a concrete packet."""
        host = self.spec.hosts[template.host_index]
        query_pairs = state.render(template.query, timestamp)
        body_pairs = state.render(template.body, timestamp)
        cookie_pairs = state.render(template.cookies, timestamp)
        target = template.path
        if query_pairs:
            encoded = "&".join(f"{k}={percent_encode(v)}" for k, v in query_pairs)
            target = f"{template.path}?{encoded}"
        headers: list[tuple[str, str]] = [
            ("Host", host),
            ("User-Agent", state.device.user_agent),
            ("Accept", "*/*"),
            ("Connection", "keep-alive"),
        ]
        if cookie_pairs:
            headers.append(("Cookie", "; ".join(f"{k}={v}" for k, v in cookie_pairs)))
        body = b""
        method = template.method
        if body_pairs:
            method = "POST"
            body = "&".join(f"{k}={percent_encode(v)}" for k, v in body_pairs).encode("latin-1")
            headers.append(("Content-Type", "application/x-www-form-urlencoded"))
            headers.append(("Content-Length", str(len(body))))
        request = HttpRequest(
            method=method, target=target, version="HTTP/1.1", headers=headers, body=body
        )
        destination = Destination(self.ip_for(host), 80, host)
        return HttpPacket(
            destination=destination,
            request=request,
            app_id=state.app.package,
            timestamp=timestamp,
            meta={"service": self.name, "event": template.name, "category": self.category},
        )


def _template_gate_open(service_name: str, package: str, template: RequestTemplate) -> bool:
    """Deterministic per-(service, app, template) coin for template gating."""
    seed = f"{service_name}|{package}|{template.name}"
    digest = hashlib.md5(seed.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2**32 < template.app_gate


@dataclass
class _SessionState:
    """Per-session value generation context (tokens, counters)."""

    app: "Application"
    device: "Device"
    rng: Random
    sequence: int = 0
    _session_tokens: dict[str, str] = field(default_factory=dict)

    def render(self, params: tuple[Param, ...], timestamp: float) -> list[tuple[str, str]]:
        """Materialize a parameter list; absent/forbidden params are skipped."""
        pairs: list[tuple[str, str]] = []
        for param in params:
            if param.app_gate < 1.0 and not self._app_gate_open(param):
                continue
            if param.probability < 1.0 and self.rng.random() >= param.probability:
                continue
            value = self._value(param, timestamp)
            if value is None:
                continue
            pairs.append((param.key, value))
        return pairs

    def _app_gate_open(self, param: Param) -> bool:
        """Deterministic per-app coin for ``app_gate`` (stable across runs)."""
        seed = f"{self.app.package}|{param.key}|{param.identifier}|{param.transform}"
        digest = hashlib.md5(seed.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2**32
        return fraction < param.app_gate

    def _value(self, param: Param, timestamp: float) -> str | None:
        source = param.source
        if source == ValueSource.LITERAL:
            return param.literal
        if source == ValueSource.IDENTIFIER:
            if param.identifier is None:
                raise SimulationError(f"param {param.key} has no identifier kind")
            try:
                raw = self.device.read_identifier(self.app.manifest, param.identifier)
            except PermissionDenied:
                # Real SDKs catch SecurityException and send what they can.
                return None
            return transform_value(raw, param.transform)
        if source == ValueSource.APP_TOKEN:
            seed = f"{self.app.package}:{param.key}"
            return hashlib.md5(seed.encode("utf-8")).hexdigest()[: param.length]
        if source == ValueSource.SESSION_TOKEN:
            token = self._session_tokens.get(param.key)
            if token is None:
                token = "".join(self.rng.choice("0123456789abcdef") for __ in range(param.length))
                self._session_tokens[param.key] = token
            return token
        if source == ValueSource.RANDOM_HEX:
            return "".join(self.rng.choice("0123456789abcdef") for __ in range(param.length))
        if source == ValueSource.RANDOM_DIGITS:
            return "".join(self.rng.choice("0123456789") for __ in range(param.length))
        if source == ValueSource.PACKAGE:
            return self.app.package
        if source == ValueSource.TIMESTAMP:
            return str(int(1_330_000_000_000 + timestamp * 1000))
        if source == ValueSource.SEQUENCE:
            self.sequence += 1
            return str(self.sequence)
        if source == ValueSource.LOCALE:
            return "ja_JP"
        if source in (ValueSource.LOCATION_LAT, ValueSource.LOCATION_LON):
            fix = self._session_location()
            if fix is None:
                return None
            lat, lon = fix
            return lat if source == ValueSource.LOCATION_LAT else lon
        raise SimulationError(f"unknown value source {source!r}")

    def _session_location(self) -> tuple[str, str] | None:
        """One jittered GPS fix per session, or ``None`` when the host app
        lacks the location permission (SDKs catch the SecurityException)."""
        cached = self._session_tokens.get("__location__")
        if cached is not None:
            if cached == "denied":
                return None
            lat, __, lon = cached.partition(",")
            return lat, lon
        try:
            fix = self.device.get_last_known_location(self.app.manifest)
        except PermissionDenied:
            fix = None
        if fix is None:
            self._session_tokens["__location__"] = "denied"
            return None
        lat, lon = fix.jittered(self.rng).wire_format()
        self._session_tokens["__location__"] = f"{lat},{lon}"
        return lat, lon
