"""Tracing, access logs, and health over the live service socket.

The contracts under test here:

- a ``traceparent`` request header is kept on the server's route span,
  whose children nest under it; a malformed one is ignored, never
  rejected;
- concurrent requests each build their own span tree: a child span
  parents only under the route span of its own handler thread;
- tracing adds **zero bytes** to responses — a traced service answers
  byte-identically to an untraced one;
- ``/metrics`` serves the Prometheus exposition content type and carries
  the ``service_request_ms`` histogram series (fed by request
  accounting, not just registered);
- ``/healthz`` exposes the restart-detection pair: a seed-derived
  ``run_id`` that survives restarts and an ``uptime_ticks`` that resets
  with the process;
- the access log of a traced run links each line to its route span and
  replays through the SLO engine with no page; closing the service
  writes the rest of the trace directory;
- the service tracer keeps a bounded ring of spans, and a stop waits for
  requests in flight but not for idle keep-alive connections.
"""

import http.client
import json
import threading
import time

import pytest

from repro.federation.report import DeviceReport, encode_report, token_for
from repro.obs.context import TraceContext
from repro.obs.slo import replay_access_log
from repro.service.server import (
    SERVICE_SPAN_CAPACITY,
    ServiceConfig,
    ServiceServer,
    SignatureService,
)
from repro.service.wire import encode_event
from repro.serving.loadgen import ScreeningEvent
from repro.signatures.conjunction import ConjunctionSignature
from repro.simulation.rng import derive_rng


def boot_signatures():
    return [
        ConjunctionSignature(tokens=("udid=abc", "seq="), scope_domain="admob.com"),
        ConjunctionSignature(tokens=("imei=1234",), label="IMEI"),
    ]


def events_from(small_corpus, n=6, seed=5):
    rng = derive_rng(seed, "tracing-test")
    packets = small_corpus.trace.packets
    return [
        ScreeningEvent(
            seq=i,
            tick=float(i),
            device_id="trace-device",
            packet=packets[rng.randrange(len(packets))],
        )
        for i in range(n)
    ]


@pytest.fixture()
def traced(tmp_path):
    """A live service tracing into ``tmp_path / "trace"``."""
    trace_dir = tmp_path / "trace"
    access_log = trace_dir / "access_log.jsonl"
    service = SignatureService(
        boot_signatures(),
        db_path=str(tmp_path / "service.sqlite3"),
        config=ServiceConfig(trace_dir=str(trace_dir)),
    )
    server = ServiceServer(service)
    host, port = server.start()

    def request(method, path, body=None, headers=None):
        # The span closes (and the access log is written) *after* the
        # response bytes reach the client, on the handler thread — wait
        # for the request to be accounted so assertions are race-free.
        before = service._requests_observed
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            sent = dict(headers or {})
            if body is not None:
                sent.setdefault("Content-Type", "application/json")
            connection.request(method, path, body=body, headers=sent)
            response = connection.getresponse()
            result = response.status, response.read(), dict(response.getheaders())
        finally:
            connection.close()
        deadline = time.monotonic() + 5.0
        while service._requests_observed <= before:
            assert time.monotonic() < deadline, "request never accounted"
            time.sleep(0.002)
        return result

    yield service, request, access_log
    server.stop()
    service.close()


CONTEXT = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
TRACEPARENT = f"00-{CONTEXT.trace_id}-{CONTEXT.span_id}-01"


class TestPropagation:
    def test_traceparent_continues_into_route_span(self, traced):
        service, request, __log = traced
        status, __b, __h = request("GET", "/v1/signatures", headers={"traceparent": TRACEPARENT})
        assert status == 200
        (route,) = [s for s in service.tracer.closed_spans if s.name == "fetch"]
        assert route.context == CONTEXT
        assert route.parent_id is None
        assert route.attrs["status"] == 200
        # the repository read nests under the route span
        (child,) = [s for s in service.tracer.closed_spans if s.name == "repository_read"]
        assert child.parent_id == route.span_id
        assert child.context is None

    def test_malformed_traceparent_is_ignored_not_rejected(self, traced):
        service, request, __log = traced
        status, __b, __h = request(
            "GET", "/v1/signatures", headers={"traceparent": "garbage-header"}
        )
        assert status == 200
        (route,) = [s for s in service.tracer.closed_spans if s.name == "fetch"]
        assert route.context is None

    def test_screen_span_tree_carries_gateway_attrs(self, traced, small_corpus):
        service, request, __log = traced
        body = json.dumps(
            {"events": [encode_event(e) for e in events_from(small_corpus)]}
        ).encode()
        status, __b, __h = request(
            "POST", "/v1/screen", body,
            headers={"traceparent": TRACEPARENT},
        )
        assert status == 200
        (route,) = [s for s in service.tracer.closed_spans if s.name == "screen"]
        (gateway_span,) = [s for s in service.tracer.closed_spans if s.name == "gateway_screen"]
        assert route.context == CONTEXT
        assert gateway_span.parent_id == route.span_id
        assert gateway_span.attrs["n_events"] == 6
        assert gateway_span.attrs["set_version"] == 1

    def test_tracing_adds_no_response_headers(self, traced):
        __s, request, __log = traced
        __status, __b, headers = request(
            "GET", "/v1/signatures", headers={"traceparent": TRACEPARENT}
        )
        assert not any(name.lower().startswith("trace") for name in headers)


class TestConcurrentRequests:
    def test_child_spans_parent_within_their_own_thread(self, traced, small_corpus):
        """Overlapping fetch and screen requests keep separate span trees."""
        service, request, __log = traced
        screen_body = json.dumps(
            {"events": [encode_event(e) for e in events_from(small_corpus)]}
        ).encode()
        calls = [("GET", "/v1/signatures", None), ("POST", "/v1/screen", screen_body)] * 4
        start = threading.Barrier(len(calls))
        statuses = []

        def client(method, path, body):
            start.wait()
            statuses.append(request(method, path, body)[0])

        threads = [threading.Thread(target=client, args=call) for call in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        deadline = time.monotonic() + 5.0
        while service._requests_observed < len(calls):  # every span closed
            assert time.monotonic() < deadline
            time.sleep(0.002)
        assert statuses == [200] * len(calls)
        by_id = {span.span_id: span for span in service.tracer.closed_spans}
        routes = {"repository_read": "fetch", "gateway_screen": "screen"}
        children = [span for span in by_id.values() if span.name in routes]
        assert len(children) == len(calls)
        for child in children:
            parent = by_id[child.parent_id]
            assert parent.name == routes[child.name]
            assert parent.parent_id is None
        # one child per route span: no request adopted another's child
        assert len({child.parent_id for child in children}) == len(calls)


class TestByteIdentity:
    def test_traced_and_untraced_responses_identical(self, tmp_path, small_corpus):
        """Tracing on vs off: every response body and status matches."""
        screen_body = json.dumps(
            {"events": [encode_event(e) for e in events_from(small_corpus)]}
        ).encode()
        requests = [
            ("GET", "/v1/signatures", None),
            ("POST", "/v1/screen", screen_body),
            ("GET", "/v1/signatures?since=1", None),
            ("GET", "/healthz", None),
        ]

        def run(tracing):
            service = SignatureService(
                boot_signatures(),
                db_path=str(tmp_path / f"svc_{tracing}.sqlite3"),
                config=ServiceConfig(
                    trace_dir=str(tmp_path / "trace") if tracing else None
                ),
            )
            server = ServiceServer(service)
            host, port = server.start()
            out = []
            try:
                for n, (method, path, body) in enumerate(requests):
                    connection = http.client.HTTPConnection(host, port, timeout=10.0)
                    headers = {"traceparent": TRACEPARENT}
                    if body is not None:
                        headers["Content-Type"] = "application/json"
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    out.append((response.status, response.read()))
                    connection.close()
                    deadline = time.monotonic() + 5.0
                    while service._requests_observed <= n:  # healthz reads this
                        assert time.monotonic() < deadline
                        time.sleep(0.002)
            finally:
                server.stop()
                service.close()
            return out

        assert run(tracing=True) == run(tracing=False)


class TestMetricsEndpoint:
    def test_prometheus_content_type(self, traced):
        __s, request, __log = traced
        __status, __b, headers = request("GET", "/metrics")
        assert headers["Content-Type"] == "text/plain; version=0.0.4"

    def test_request_histogram_series_present_and_fed(self, traced):
        __s, request, __log = traced
        request("GET", "/v1/signatures")
        request("GET", "/healthz")
        status, body, __h = request("GET", "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_service_request_ms_bucket")
        ]
        assert bucket_lines, "histogram buckets missing from exposition"
        assert bucket_lines[-1].startswith('repro_service_request_ms_bucket{le="+Inf"}')
        count = next(
            line for line in text.splitlines()
            if line.startswith("repro_service_request_ms_count")
        )
        assert int(count.split()[-1]) >= 2  # the fetch and healthz above
        assert any(
            line.startswith("repro_service_request_ms_sum") for line in text.splitlines()
        )


class TestHealthz:
    def test_run_id_stable_and_uptime_climbs_under_load(self, traced):
        __s, request, __log = traced
        seen = []
        for _ in range(5):
            request("GET", "/v1/signatures")
            __status, body, __h = request("GET", "/healthz")
            health = json.loads(body)["service"]
            seen.append((health["run_id"], health["uptime_ticks"]))
        run_ids = {run_id for run_id, _ in seen}
        assert len(run_ids) == 1  # one process, one identity
        ticks = [t for _, t in seen]
        assert ticks == sorted(ticks)
        assert ticks[-1] > ticks[0]

    def test_restart_resets_uptime_but_keeps_run_id(self, tmp_path):
        db = str(tmp_path / "svc.sqlite3")

        def boot_and_probe():
            service = SignatureService(
                boot_signatures(), db_path=db, config=ServiceConfig(seed=7)
            )
            server = ServiceServer(service)
            host, port = server.start()
            try:
                for _ in range(3):
                    connection = http.client.HTTPConnection(host, port, timeout=10.0)
                    connection.request("GET", "/v1/signatures")
                    connection.getresponse().read()
                    connection.close()
                deadline = time.monotonic() + 5.0
                while service._requests_observed < 3:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                connection = http.client.HTTPConnection(host, port, timeout=10.0)
                connection.request("GET", "/healthz")
                payload = json.loads(connection.getresponse().read())["service"]
                connection.close()
            finally:
                server.stop()
                if service.store is not None:
                    service.store.close()
            return payload

        first = boot_and_probe()
        second = boot_and_probe()
        assert first["run_id"] == second["run_id"]  # seed-derived, survives
        assert first["uptime_ticks"] == second["uptime_ticks"] == 3
        # a restarted process starts counting from zero — detectable even
        # though the identity is unchanged


class TestAccessLog:
    def test_jsonl_lines_carry_route_status_ms_trace(self, traced):
        service, request, access_log = traced
        request("GET", "/v1/signatures", headers={"traceparent": TRACEPARENT})
        request("GET", "/healthz")
        lines = [
            json.loads(line) for line in access_log.read_text().splitlines() if line
        ]
        assert [line["kind"] for line in lines] == ["access", "access"]
        fetch, health = lines
        assert fetch["route"] == "fetch"
        assert fetch["status"] == 200
        assert fetch["trace_id"] == CONTEXT.trace_id
        assert fetch["ms"] >= 0.0
        assert health["route"] == "healthz"
        assert health["trace_id"] is None  # no traceparent sent
        # each line names its route span in spans.jsonl
        spans = {span.span_id: span.name for span in service.tracer.closed_spans}
        assert [spans[line["span_id"]] for line in lines] == ["fetch", "healthz"]

    def test_disabled_by_default(self, tmp_path):
        service = SignatureService(boot_signatures(), config=ServiceConfig())
        record = service.observe_request("fetch", 200, 1.0)
        assert record["kind"] == "access"
        assert service.tracer is None
        assert service._access_log is None
        with service.span("repository_read") as span:
            assert span is None


class TestTraceDirectory:
    def test_access_log_meets_slo_and_close_writes_the_rest(self, traced, small_corpus):
        service, request, access_log = traced
        packets = small_corpus.trace.packets
        records = [
            encode_report(
                DeviceReport(
                    device_id="trace-device",
                    seq=i + 1,
                    token=token_for(packets[i]),
                    packet=packets[i],
                )
            )
            for i in range(3)
        ]
        screen = {"events": [encode_event(e) for e in events_from(small_corpus)]}
        calls = [
            ("GET", "/v1/signatures", None),
            ("POST", "/v1/screen", json.dumps(screen).encode()),
            ("POST", "/v1/reports", json.dumps({"reports": records}).encode()),
            ("GET", "/v1/signatures?since=1", None),
        ]
        for method, path, body in calls:
            status, __b, __h = request(method, path, body, headers={"traceparent": TRACEPARENT})
            assert status in (200, 304), (path, status)

        slo = replay_access_log(access_log).report()
        assert slo["ok"], slo
        assert slo["objectives"]["availability"]["total"] == len(calls)
        service.close()
        trace_dir = access_log.parent
        spans = [
            json.loads(line) for line in (trace_dir / "spans.jsonl").read_text().splitlines()
        ]
        routes = [s for s in spans[1:] if s["parent_id"] is None]
        assert [s["name"] for s in routes] == ["fetch", "screen", "reports", "fetch"]
        assert all(s["trace_id"] == CONTEXT.trace_id for s in routes)
        assert "traceEvents" in json.loads((trace_dir / "trace.json").read_text())
        header = json.loads((trace_dir / "flight_recorder.jsonl").read_text().splitlines()[0])
        assert header["kind"] == "flight_recorder"


class TestBoundedLifetime:
    def test_service_tracer_is_a_ring_reporting_to_the_registry(self, traced):
        service, __r, __a = traced
        assert service.tracer.spans.maxlen == SERVICE_SPAN_CAPACITY
        assert service.tracer.metrics is service.metrics

    def test_stop_does_not_wait_for_an_idle_keep_alive_connection(self, tmp_path):
        server = ServiceServer(SignatureService(boot_signatures()))
        host, port = server.start()
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            # The connection stays open; its handler thread waits for a
            # next request that never comes, and the drain does not wait
            # for it (a timed-out drain returns False).
            assert server.stop()
        finally:
            connection.close()
