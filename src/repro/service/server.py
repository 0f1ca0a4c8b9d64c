"""The network-facing signature service: six endpoints over a real socket.

This is the deployment shape the paper implies but never specifies — the
server side of Fig 3 as an actual listener.  A stdlib
:class:`~http.server.ThreadingHTTPServer` fronts the subsystems every
prior layer built, one route each:

==========================  ====================================================
``POST /v1/signatures``     publish a checksummed format-2 envelope; persisted
                            through :class:`~repro.service.repository.SignatureRepository`
                            then hot-reloaded into the gateway (never-regress:
                            a stale version is ``409``, exactly the
                            :class:`~repro.core.distribution.SignatureFetcher` rule)
``GET /v1/signatures``      fetch the newest stored envelope **verbatim**
                            (byte-identical to what was published);
                            ``?since=V`` answers ``304`` when nothing newer
``POST /v1/screen``         screen a tick-ordered event stream through the
                            live :class:`~repro.serving.gateway.ScreeningGateway`
                            (DROP/DEGRADE shedding inherited); decisions are
                            bit-identical to the in-process gateway
``POST /v1/reports``        fleet report ingest through
                            :class:`~repro.federation.ingest.FleetIngest`
                            (validation, replay defense, quarantine); accepted
                            reports persist in the report repository
``GET /metrics``            Prometheus text exposition of the shared
                            :class:`~repro.obs.metrics.Metrics` registry —
                            HTTP, gateway, and ingest counters in one page
``GET /healthz``            liveness + the gateway's public
                            :meth:`~repro.serving.gateway.ScreeningGateway.health_snapshot`
==========================  ====================================================

The handler keeps the stdlib's socket loop but reads each request head
itself (:func:`parse_header_block`, no ``email`` message), reads any
declared body whether or not the route uses it, and writes each reply,
the same bytes the stdlib's calls wrote, in one ``send``.

Request handling is thread-per-request; the gateway and ingest plane are
each guarded by a lock, so one screening episode or publish is atomic
while sqlite WAL lets readers proceed.  Every unexpected exception is
caught at the route boundary and mapped to a counted JSON ``500`` — the
load harness budgets that count at zero.  :meth:`ServiceServer.stop`
lets requests already inside a route finish (up to a bound) before it
returns, so a trace written after it holds their spans.
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServiceError, SignatureStoreError
from repro.federation.ingest import FleetIngest, IngestConfig
from repro.federation.report import DeviceReport
from repro.obs import Observability
from repro.obs.context import FlightRecorder
from repro.obs.export import export_chrome_trace, export_spans_jsonl
from repro.obs.metrics import Metrics
from repro.obs.tracer import Tracer, deterministic_run_id
from repro.serving.gateway import GatewayConfig, ScreeningGateway
from repro.service.repository import open_repositories
# ``encode_results`` is not called here; it stays importable from this
# module because ``bench/trace.py`` wraps ``wire.encode`` by this name.
from repro.service.wire import (  # noqa: F401
    decode_event,
    encode_results,
    encode_screen_reply,
    extract_traceparent,
)
from repro.signatures.conjunction import ConjunctionSignature

#: Wall-clock request latency bucket edges, in milliseconds.
REQUEST_MS_BOUNDS: tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)

#: What an untraced request opens instead of a span: shared, stateless,
#: and yielding ``None``.
_NO_SPAN = nullcontext()

#: Spans a traced service keeps: the newest ones, about 6 MB at the
#: ~0.37 KB a span costs, or some 4,000 requests of route plus children.
SERVICE_SPAN_CAPACITY = 16_384

#: Seconds :meth:`ServiceServer.stop` waits for in-flight requests, and
#: how often it looks.
DRAIN_TIMEOUT_S = 5.0
DRAIN_POLL_S = 0.01

#: Bytes of an unread request body read and dropped before a ``413`` or
#: bad-length ``400`` closes its connection, and how long to wait for more.
#: Closing with unread bytes makes the kernel send a TCP reset, which can
#: reach a client still sending before it reads the reply.
UNREAD_BODY_DRAIN_BYTES = 8 * 1024 * 1024
UNREAD_BODY_DRAIN_WAIT_S = 0.25

#: Bounds on a request head, as ``http.client`` sets them: bytes per line,
#: and lines per head with the blank line that ends it.
MAX_HEAD_LINE_BYTES = 65536
MAX_HEAD_LINES = 100

#: One entry of a header block (see :func:`parse_header_block`): a ``From``
#: line or a stray continuation, with no name, or a field with its
#: continuation lines.
_HEADER_ENTRY = re.compile(
    r"(?:From |[\t ])[^\r\n]*(?:\r\n|\r|\n)?"
    r"|([!-9;-~]*):[ \t]*([^\r\n]*(?:(?:\r\n|\r|\n)[\t ][^\r\n]*)*)(?:\r\n|\r|\n)?"
)


class RequestHeaders(dict):
    """Header fields by lower-cased name, the first of each name kept.

    :meth:`get` answers as ``http.client.HTTPMessage.get`` does, for the
    names the handler reads.
    """

    __slots__ = ()

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


def parse_header_block(lines: list[bytes]) -> RequestHeaders:
    """The header fields of a request head, as ``http.client.parse_headers`` reads them.

    ``lines`` are the head's lines after the request line, as read from
    the socket, the blank line that ends the head included.  The values
    are those the stdlib's ``email`` parser gives, a line break being CR
    LF, a lone CR or a lone LF: a field name is printable ASCII up to the
    first colon; the value drops the blanks after the colon, keeps those
    at its end, and keeps each continuation line (one that starts with a
    blank) with the break before it.  A continuation with no field before
    it, a field with an empty name and a ``From`` line are skipped, and
    the first line that is none of these ends the block: no field after
    it is read.
    """
    text = b"".join(lines).decode("latin-1")
    fields = RequestHeaders()
    position = 0
    while entry := _HEADER_ENTRY.match(text, position):
        name, value = entry.groups()
        if name:  # an empty name is skipped too
            fields.setdefault(name.lower(), value)
        position = entry.end()
    return fields


#: The ``Date`` header line of the current second: ``(second, line)``.
_date_line: tuple[int, bytes] = (-1, b"")


def date_header_line() -> bytes:
    """``Date: ...`` for now, formatted at most once per second."""
    global _date_line
    now = int(time.time())
    second, line = _date_line
    if second != now:
        line = f"Date: {formatdate(now, usegmt=True)}\r\n".encode("latin-1")
        _date_line = (now, line)
    return line


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Service wiring: the gateway and ingest tunings plus service knobs.

    :param gateway: screening data-plane tuning.
    :param ingest: fleet-report admission tuning.
    :param report_tick_step: logical ticks the ingest clock advances per
        submitted report (the service has no load generator driving it,
        so arrival ticks are synthesized monotonically).
    :param max_body_bytes: request-body bound; larger posts are ``413``.
    :param seed: hashed (with the service config label) into the obs run
        id that ``/healthz`` and the span exports carry.
    :param trace_dir: directory for request tracing; ``None`` (the
        default) traces nothing.  When set, each request opens a route
        span, with repository/gateway/ingest children, on one logical-tick
        :class:`~repro.obs.tracer.Tracer`; a valid ``traceparent`` header
        is kept on the route span.  ``access_log.jsonl`` (route, status,
        wall ms per request) is written as requests finish, and
        :meth:`SignatureService.close` writes ``spans.jsonl``,
        ``trace.json`` and ``flight_recorder.jsonl``.  Responses are
        byte-identical either way.
    """

    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    report_tick_step: float = 1.0
    max_body_bytes: int = 32 * 1024 * 1024
    seed: int = 0
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.report_tick_step <= 0:
            raise ServiceError("report_tick_step must be positive")
        if self.max_body_bytes < 1:
            raise ServiceError("max_body_bytes must be >= 1")


class SignatureService:
    """All service state behind the HTTP handler, usable without a socket.

    Every endpoint has a plain-Python method (``publish`` / ``fetch`` /
    ``screen`` / ``ingest_reports`` / ``metrics_text`` / ``health``)
    returning ``(status, payload)``; the handler only does HTTP framing.
    That keeps the logic unit-testable and makes the socket layer thin
    enough to trust.

    :param boot_signatures: generation-1 set, published as version 1 when
        the repository is empty.  When the repository already holds state
        (a restart over a sqlite file), the newest verified envelope wins
        and ``boot_signatures`` is ignored — durable state outlives boots.
    :param db_path: sqlite file for durable state; ``None`` = in-memory.
    :param config: service wiring.
    :param metrics: shared registry for ``/metrics``; created if omitted.
    """

    def __init__(
        self,
        boot_signatures: Sequence[ConjunctionSignature] = (),
        *,
        db_path: str | None = None,
        config: ServiceConfig | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or Metrics()
        self.metrics.histogram("service_request_ms", REQUEST_MS_BOUNDS)
        self.run_id = deterministic_run_id(self.config.seed, "service")
        self.flight_recorder = FlightRecorder()
        self.tracer: Tracer | None = None
        self._access_log = None
        if self.config.trace_dir is not None:
            trace_dir = Path(self.config.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            self.tracer = Tracer(
                self.run_id, capacity=SERVICE_SPAN_CAPACITY, metrics=self.metrics
            )
            self._access_log = (trace_dir / "access_log.jsonl").open("w", encoding="utf-8")
        self._obs_lock = threading.Lock()
        self._requests_observed = 0
        self.signatures, self.reports, self.store = open_repositories(db_path)
        self.ingest = FleetIngest(
            self.config.ingest, obs=Observability(metrics=self.metrics)
        )
        self._gateway_lock = threading.Lock()
        self._ingest_lock = threading.Lock()
        self._tick = 0.0

        recovered = self.signatures.latest()
        if recovered is not None:
            __, envelope = recovered
            boot_set: Sequence[ConjunctionSignature] = envelope.signatures
            boot_version = envelope.set_version
        else:
            boot_set = boot_signatures
            boot_version = 1
            if boot_signatures:
                boot_version = self.signatures.publish(boot_signatures).set_version
        self.gateway = ScreeningGateway(
            list(boot_set),
            config=self.config.gateway,
            metrics=self.metrics,
            set_version=boot_version,
            run_id=self.run_id,
        )

    # -- tracing and request observation ---------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span on the service tracer; yields ``None`` when untraced."""
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(name, **attrs)

    def observe_request(
        self,
        route: str,
        status: int,
        ms: float,
        trace_id: str | None = None,
        span_id: int | None = None,
    ):
        """Account one served request, wherever it was framed.

        Both the HTTP handler and in-process callers (the ``repro
        metrics`` episode) feed this, so the ``service_request_ms``
        histogram, the uptime counter, the access log, and the flight
        recorder agree regardless of transport.  ``span_id`` links an
        access-log line to its route span in ``spans.jsonl``.  A 5xx
        trips the flight recorder — the requests leading up to the
        failure are frozen for post-hoc debugging.
        """
        self.metrics.observe("service_request_ms", ms, REQUEST_MS_BOUNDS)
        with self._obs_lock:
            self._requests_observed += 1
        record: dict[str, Any] = {
            "kind": "access",
            "route": route,
            "status": status,
            "ms": round(ms, 3),
            "trace_id": trace_id,
            "span_id": span_id,
        }
        self.flight_recorder.add(record)
        if status >= 500:
            self.flight_recorder.trip("5xx", route=route, status=status, trace_id=trace_id)
        if self._access_log is not None:
            line = json.dumps(record, sort_keys=True)
            with self._obs_lock:
                if self._access_log is not None:
                    self._access_log.write(line + "\n")
                    self._access_log.flush()
        return record

    def close(self) -> None:
        """Write the trace directory (when tracing) and release storage.

        Call after the server has stopped: a span still open is left out.
        """
        if self.tracer is not None:
            trace_dir = Path(self.config.trace_dir)
            export_spans_jsonl(self.tracer, trace_dir / "spans.jsonl")
            export_chrome_trace(self.tracer, trace_dir / "trace.json")
            self.flight_recorder.export_jsonl(trace_dir / "flight_recorder.jsonl")
        with self._obs_lock:
            if self._access_log is not None:
                self._access_log.close()
                self._access_log = None
        if self.store is not None:
            self.store.close()

    # -- endpoint logic (HTTP-free) ------------------------------------------------

    def publish(self, document: str) -> tuple[int, dict[str, Any]]:
        """``POST /v1/signatures``: verify, persist, hot-reload."""
        try:
            with self._gateway_lock:
                with self.span("repository_write") as span:
                    envelope = self.signatures.store(document)
                    if span is not None:
                        span.attrs["set_version"] = envelope.set_version
                applied = self.gateway.apply_reload(envelope)
        except SignatureStoreError as exc:
            return 400, {"error": f"invalid envelope: {exc}"}
        except ServiceError as exc:
            return 409, {"error": str(exc), "latest": self.signatures.latest_version()}
        self.metrics.set_gauge("service_latest_set_version", envelope.set_version)
        return 201, {
            "set_version": envelope.set_version,
            "checksum": envelope.checksum,
            "n_signatures": len(envelope.signatures),
            "reload_applied": applied,
        }

    def fetch(
        self, since: int | None = None
    ) -> tuple[int, str | dict[str, Any], int]:
        """``GET /v1/signatures``: newest verified envelope, verbatim.

        :returns: ``(status, payload, served_version)`` —
            ``(200, document_text, version)``, ``(304, {}, version)`` when
            ``since`` is already current, or ``(404, error, 0)`` when
            nothing valid is stored (including everything-corrupt
            degradation).  ``served_version`` is the version of the
            envelope actually served, which is *lower* than
            ``latest_version()`` after degradation.
        """
        with self.span("repository_read"):
            found = self.signatures.latest()
        if found is None:
            return 404, {"error": "no valid signature set stored"}, 0
        document, envelope = found
        if since is not None and since >= envelope.set_version:
            return 304, {}, envelope.set_version
        return 200, document, envelope.set_version

    def screen(self, records: Any) -> tuple[int, bytes | dict[str, Any]]:
        """``POST /v1/screen``: one gateway episode over posted events.

        A ``200`` carries the reply body already written as JSON bytes
        (:func:`~repro.service.wire.encode_screen_reply`); an error carries
        a dict, as every other endpoint does.
        """
        if isinstance(records, dict):
            records = records.get("events")
        if not isinstance(records, list) or not records:
            return 400, {"error": "body must be {'events': [...]} with >= 1 event"}
        try:
            events = [decode_event(record) for record in records]
        except ServiceError as exc:
            return 400, {"error": str(exc)}
        with self._gateway_lock:
            with self.span("gateway_screen", n_events=len(events)) as span:
                try:
                    results = self.gateway.run(events)
                except Exception as exc:  # tick-order violations etc.
                    return 400, {"error": str(exc)}
                generation = self.gateway.generation
                set_version = self.gateway.set_version
                fragments = self.gateway.matcher.fragments
                if span is not None:
                    span.attrs["generation"] = generation
                    span.attrs["set_version"] = set_version
        shed = sum(1 for result in results if not result.screened)
        if shed:
            self.flight_recorder.trip(
                "shed", route="screen", shed=shed, n_events=len(events)
            )
        return 200, encode_screen_reply(results, generation, set_version, fragments)

    def ingest_reports(self, records: Any) -> tuple[int, dict[str, Any]]:
        """``POST /v1/reports``: run each envelope through the ingest gauntlet."""
        if isinstance(records, dict):
            records = records.get("reports")
        if not isinstance(records, list) or not records:
            return 400, {"error": "body must be {'reports': [...]} with >= 1 report"}
        verdicts: list[dict[str, Any]] = []
        to_store: list[tuple[DeviceReport, dict[str, Any]]] = []
        banned_devices: list[str] = []
        with self._ingest_lock:
            with self.span("ingest_validate", n_reports=len(records)):
                for record in records:
                    self._tick += self.config.report_tick_step
                    result = self.ingest.submit(record, tick=self._tick)
                    verdict: dict[str, Any] = {
                        "status": result.status.value,
                        "retryable": result.status.retryable,
                    }
                    if result.reason:
                        verdict["reason"] = result.reason
                    if result.banned and isinstance(record, dict):
                        banned_devices.append(str(record.get("device_id", "")))
                    if result.accepted and result.report is not None:
                        to_store.append(
                            (result.report, record if isinstance(record, dict) else {})
                        )
                    verdicts.append(verdict)
            # One commit for the whole POST; a re-delivered (device, seq)
            # fails only its own insert.
            with self.reports.transaction():
                stored = sum(
                    self.reports.add(report.device_id, report.seq, report.token, record)
                    for report, record in to_store
                )
        if banned_devices:
            self.flight_recorder.trip("quarantine", devices=banned_devices)
        return 200, {"results": verdicts, "accepted": len(to_store), "stored": stored}

    def metrics_text(self) -> str:
        """``GET /metrics``: the shared registry as Prometheus text."""
        return self.metrics.to_prometheus()

    def health(self) -> tuple[int, dict[str, Any]]:
        """``GET /healthz``: liveness plus public subsystem snapshots."""
        with self._gateway_lock:
            gateway = self.gateway.health_snapshot()
        with self._obs_lock:
            uptime_ticks = self._requests_observed
        return 200, {
            "ok": True,
            "service": {
                # The restart-detection pair: run_id is seed-derived and
                # survives restarts, uptime_ticks resets with the process.
                "run_id": self.run_id,
                "uptime_ticks": uptime_ticks,
                "flight_dumps": len(self.flight_recorder.dumps),
            },
            "gateway": gateway,
            "ingest": self.ingest.stats(),
            "signatures": {
                "latest_version": self.signatures.latest_version(),
                "versions": self.signatures.versions(),
                "corrupt_reads": self.signatures.corrupt_reads(),
            },
            "reports": {"stored": self.reports.count()},
            "storage": {
                "backend": "sqlite" if self.store is not None else "memory",
                "schema_version": self.store.schema_version() if self.store else 0,
            },
        }


class _ServiceHandler(BaseHTTPRequestHandler):
    """HTTP framing only; all decisions live in :class:`SignatureService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    #: Status of the last response written on this connection turn, read
    #: back by ``_guard`` for span attrs and access accounting.
    last_status = 0
    # Responses are small and latency-gated by the bench: without
    # TCP_NODELAY, Nagle + delayed ACK adds ~40ms per keep-alive round
    # trip on loopback.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SignatureService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # replaced by the structured access log in observe_request

    # -- request head -------------------------------------------------------------

    def parse_request(self) -> bool:
        """Read the request line and header block, as the stdlib does, in one pass.

        Same limits, statuses and header values as
        ``BaseHTTPRequestHandler.parse_request``, which hands the header
        lines to ``http.client.parse_headers`` and so to the ``email``
        parser; :func:`parse_header_block` reads them without building a
        message.  ``True`` when the request can be routed; otherwise an
        error reply has been sent, or, for a blank request line, nothing.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                major, minor = base_version_number.split(".")
                if not (major.isdigit() and minor.isdigit()):
                    raise ValueError
                if len(major) > 10 or len(minor) > 10:
                    raise ValueError
                number = int(major), int(minor)
            except ValueError:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({base_version_number})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # As the stdlib does, against an open redirect: '//x' is a path, not a host.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        lines: list[bytes] = []
        while True:
            line = self.rfile.readline(MAX_HEAD_LINE_BYTES + 1)
            if len(line) > MAX_HEAD_LINE_BYTES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_HEAD_LINE_BYTES} bytes when reading header line",
                )
                return False
            lines.append(line)
            if len(lines) > MAX_HEAD_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEAD_LINES} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
        self.headers = headers = parse_header_block(lines)

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    # -- plumbing -----------------------------------------------------------------

    def _body(self) -> bytes | None:
        """The declared body, read whole; ``None`` once a 400 or 413 has been sent.

        Every request's body is read, also where the route ignores it:
        left unread, it would be parsed as the next request.
        """
        declared = self.headers.get("Content-Length") or "0"
        limit = self.service.config.max_body_bytes
        if not (declared.isascii() and declared.isdigit()):
            status, error = 400, f"bad Content-Length {declared!r}"
        elif int(declared) > limit:
            status, error = 413, f"body exceeds {limit} byte limit"
        else:
            length = int(declared)
            return self.rfile.read(length) if length else b""
        # The unread body would be parsed as the next request: close instead.
        self.close_connection = True
        self._respond_json(status, {"error": error}, Connection="close")
        self._drop_unread_body()
        return None

    def _drop_unread_body(self) -> None:
        """Read and drop what the client sends, up to a bound, before the close.

        Stops at the bound, at end of stream, or when nothing arrives for
        :data:`UNREAD_BODY_DRAIN_WAIT_S`.
        """
        self.connection.settimeout(UNREAD_BODY_DRAIN_WAIT_S)
        left = UNREAD_BODY_DRAIN_BYTES
        try:
            while left > 0:
                chunk = self.rfile.read1(min(left, 64 * 1024))
                if not chunk:
                    return
                left -= len(chunk)
        except OSError:  # the wait ran out, or the client reset first
            pass

    def _respond(
        self, status: int, payload: bytes, content_type: str | None, **headers: str
    ) -> None:
        """Write one reply, head and body, in a single write.

        The bytes are those ``send_response``, ``send_header`` and
        ``end_headers`` write: status line, ``Server``, ``Date``, then
        ``Content-Type`` (when given), ``Content-Length`` and ``headers``
        (``_`` in a name becomes ``-``).  An HTTP/0.9 request gets the body
        alone.
        """
        if self.request_version == "HTTP/0.9":
            reply = payload
        else:
            phrase = self.responses[status][0] if status in self.responses else ""
            start = f"{self.protocol_version} {status} {phrase}\r\n"
            start += f"Server: {self.version_string()}\r\n"
            fields = f"Content-Length: {len(payload)}\r\n"
            if content_type is not None:
                fields = f"Content-Type: {content_type}\r\n" + fields
            for name, value in headers.items():
                fields += f"{name.replace('_', '-')}: {value}\r\n"
            head = start.encode("latin-1") + date_header_line() + fields.encode("latin-1")
            reply = head + b"\r\n" + payload
        if reply:
            self.wfile.write(reply)
        self.last_status = status
        self.service.metrics.inc(f"service_responses_{status}")

    def _respond_json(self, status: int, payload: dict[str, Any], **headers: str) -> None:
        if status == 304:  # 304 carries no body by spec
            self._respond(304, b"", None, **headers)
            return
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(status, body, "application/json", **headers)

    def _guard(self, route: str, handler: Callable[[bytes], None]) -> None:
        """Read the body and run one route on it, inside its trace span.

        An escape from the route maps to a 500.  A traced route span keeps
        the client's ``traceparent`` context when one arrived; either way
        the request lands in the access accounting (histogram, access
        log, flight recorder) with the status the client actually saw.
        The request counts as in flight until its access line is written,
        so a stop drains it whole.
        """
        service = self.service
        with self.server.in_flight():  # type: ignore[attr-defined]
            service.metrics.inc(f"service_requests_{route}")
            context = extract_traceparent(self.headers) if service.tracer is not None else None
            self.last_status = 0
            started = time.perf_counter()
            with service.span(route, context=context, route=route) as span:
                try:
                    body = self._body()
                    if body is not None:
                        handler(body)
                except BrokenPipeError:  # client went away mid-response
                    service.metrics.inc("service_client_disconnects")
                except Exception as exc:  # noqa: BLE001 — the zero-5xx budget counts these
                    service.metrics.inc("service_unhandled_errors")
                    try:
                        self._respond_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    except OSError:
                        pass
                if span is not None:
                    span.attrs["status"] = self.last_status
                    span.attrs["set_version"] = service.gateway.set_version
                    span.attrs["generation"] = service.gateway.generation
            elapsed_ms = 1000.0 * (time.perf_counter() - started)
            service.observe_request(
                route,
                self.last_status,
                elapsed_ms,
                trace_id=context.trace_id if context is not None else None,
                span_id=span.span_id if span is not None else None,
            )

    # -- routes -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/v1/signatures":
            self._guard("fetch", lambda __: self._get_signatures(url.query))
        elif url.path == "/metrics":
            self._guard(
                "metrics",
                lambda __: self._respond(
                    200,
                    self.service.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4",
                ),
            )
        elif url.path == "/healthz":
            self._guard("healthz", lambda __: self._respond_json(*self.service.health()))
        elif self._body() is not None:
            self._respond_json(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/v1/signatures":
            self._guard("publish", self._post_signatures)
        elif url.path == "/v1/screen":
            self._guard("screen", lambda body: self._post_json(self.service.screen, body))
        elif url.path == "/v1/reports":
            self._guard("reports", lambda body: self._post_json(self.service.ingest_reports, body))
        elif self._body() is not None:
            self._respond_json(404, {"error": f"no route {url.path}"})

    def _get_signatures(self, query: str) -> None:
        since: int | None = None
        values = parse_qs(query).get("since")
        if values:
            try:
                since = int(values[0])
            except ValueError:
                self._respond_json(400, {"error": f"bad since value {values[0]!r}"})
                return
        status, payload, version = self.service.fetch(since)
        if status != 200:
            self._respond_json(status, payload if isinstance(payload, dict) else {})
            return
        assert isinstance(payload, str)
        self._respond(
            200, payload.encode("utf-8"), "application/json", X_Set_Version=str(version)
        )

    def _post_signatures(self, body: bytes) -> None:
        self._respond_json(*self.service.publish(body.decode("utf-8", errors="replace")))

    def _post_json(self, endpoint, body: bytes) -> None:
        try:
            decoded = json.loads(body.decode("utf-8", errors="replace"))
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            self._respond_json(400, {"error": f"body is not valid JSON: {exc}"})
            return
        status, payload = endpoint(decoded)
        if isinstance(payload, bytes):  # already written as JSON
            self._respond(status, payload, "application/json")
        else:
            self._respond_json(status, payload)


class _ListeningServer(ThreadingHTTPServer):
    """The socket server, counting requests that are inside a route.

    Handler threads are daemons and nothing joins them, so :meth:`drain`
    is how a stop waits for requests in flight.  An idle keep-alive
    connection is not in flight: its thread blocks reading the next
    request line, which may never come.
    """

    # The socketserver default backlog of 5 makes a thundering herd of
    # load-harness clients retransmit SYNs (a clean +1s latency mode);
    # must be set before __init__ calls listen().
    request_queue_size = 128

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # One token per request in flight.  A set's add and discard are
        # atomic, so the request path takes no lock that every handler
        # thread would contend for.
        self._in_flight: set[object] = set()

    @contextmanager
    def in_flight(self) -> Iterator[None]:
        """Count one request as in flight while the block runs."""
        token = object()
        self._in_flight.add(token)
        try:
            yield
        finally:
            self._in_flight.discard(token)

    def drain(self, timeout: float) -> bool:
        """Wait up to ``timeout`` s for no request in flight; ``True`` if none is."""
        deadline = time.monotonic() + timeout
        while self._in_flight:
            if time.monotonic() >= deadline:
                return False
            time.sleep(DRAIN_POLL_S)
        return True


class ServiceServer:
    """The listening server: a :class:`SignatureService` behind a socket.

    :param service: the state/logic bundle to serve.
    :param host: bind address.
    :param port: bind port (``0`` = ephemeral, read back from ``address``).
    """

    def __init__(self, service: SignatureService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.httpd = _ListeningServer((host, port), _ServiceHandler)
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Serve in a daemon thread; returns the bound address."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.httpd.serve_forever()

    def stop(self) -> bool:
        """Stop accepting, let in-flight requests finish, release the socket.

        Waits at most :data:`DRAIN_TIMEOUT_S` for requests already inside
        a route; returns ``False`` if some were still running then.
        """
        if self._thread is not None:
            # Only a loop on another thread needs asking to end.  One on the
            # calling thread has returned already, or never started (an
            # interrupt before it did), and ``shutdown`` would wait forever.
            self.httpd.shutdown()
        drained = self.httpd.drain(DRAIN_TIMEOUT_S)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return drained
