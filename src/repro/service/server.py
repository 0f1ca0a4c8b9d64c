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

Request handling is thread-per-request; the gateway and ingest plane are
each guarded by a lock, so one screening episode or publish is atomic
while sqlite WAL lets readers proceed.  Every unexpected exception is
caught at the route boundary and mapped to a counted JSON ``500`` — the
load harness budgets that count at zero.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Sequence
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
from repro.serving.telemetry import ServingTelemetry
from repro.service.repository import open_repositories
from repro.service.wire import decode_event, encode_results, extract_traceparent
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureStore

#: Wall-clock request latency bucket edges, in milliseconds.
REQUEST_MS_BOUNDS: tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)

#: What an untraced request opens instead of a span: shared, stateless,
#: and yielding ``None``.
_NO_SPAN = nullcontext()


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
            self.tracer = Tracer(self.run_id)
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
                self.signatures.store(
                    SignatureStore.dumps_envelope(list(boot_signatures), 1)
                )
        self.gateway = ScreeningGateway(
            list(boot_set),
            config=self.config.gateway,
            telemetry=ServingTelemetry(metrics=self.metrics),
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
                applied = self.gateway.apply_reload(envelope, tick=self._tick)
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

    def screen(self, records: Any) -> tuple[int, dict[str, Any]]:
        """``POST /v1/screen``: one gateway episode over posted events."""
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
                if span is not None:
                    span.attrs["generation"] = generation
                    span.attrs["set_version"] = set_version
        shed = sum(1 for result in results if not result.screened)
        if shed:
            self.flight_recorder.trip(
                "shed", route="screen", shed=shed, n_events=len(events)
            )
        return 200, {
            "results": encode_results(results),
            "generation": generation,
            "set_version": set_version,
        }

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

    # -- plumbing -----------------------------------------------------------------

    def _body(self) -> bytes | None:
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
        return None

    def _respond(self, status: int, payload: bytes, content_type: str, **headers: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers()
        if payload:
            self.wfile.write(payload)
        self.last_status = status
        self.service.metrics.inc(f"service_responses_{status}")

    def _respond_json(self, status: int, payload: dict[str, Any], **headers: str) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        if status == 304:  # 304 carries no body by spec
            self.send_response(status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            self.last_status = 304
            self.service.metrics.inc("service_responses_304")
            return
        self._respond(status, body, "application/json", **headers)

    def _guard(self, route: str, handler) -> None:
        """Run one route inside its trace span, mapping escapes to a 500.

        A traced route span keeps the client's ``traceparent`` context
        when one arrived; either way the request lands in the access
        accounting (histogram, access log, flight recorder) with the
        status the client actually saw.
        """
        service = self.service
        service.metrics.inc(f"service_requests_{route}")
        context = extract_traceparent(self.headers) if service.tracer is not None else None
        self.last_status = 0
        started = time.perf_counter()
        with service.span(route, context=context, route=route) as span:
            try:
                handler()
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
            self._guard("fetch", lambda: self._get_signatures(url.query))
        elif url.path == "/metrics":
            self._guard(
                "metrics",
                lambda: self._respond(
                    200,
                    self.service.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4",
                ),
            )
        elif url.path == "/healthz":
            self._guard("healthz", lambda: self._respond_json(*self.service.health()))
        else:
            self._respond_json(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/v1/signatures":
            self._guard("publish", self._post_signatures)
        elif url.path == "/v1/screen":
            self._guard("screen", lambda: self._post_json(self.service.screen))
        elif url.path == "/v1/reports":
            self._guard("reports", lambda: self._post_json(self.service.ingest_reports))
        else:
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

    def _post_signatures(self) -> None:
        body = self._body()
        if body is None:
            return
        self._respond_json(*self.service.publish(body.decode("utf-8", errors="replace")))

    def _post_json(self, endpoint) -> None:
        body = self._body()
        if body is None:
            return
        try:
            decoded = json.loads(body.decode("utf-8", errors="replace"))
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            self._respond_json(400, {"error": f"body is not valid JSON: {exc}"})
            return
        self._respond_json(*endpoint(decoded))


class _ListeningServer(ThreadingHTTPServer):
    # The socketserver default backlog of 5 makes a thundering herd of
    # load-harness clients retransmit SYNs (a clean +1s latency mode);
    # must be set before __init__ calls listen().
    request_queue_size = 128


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

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
