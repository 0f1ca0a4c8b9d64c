"""The network-facing service, exercised over real sockets.

Every test talks to a live :class:`ServiceServer` bound to an ephemeral
loopback port — nothing here calls the endpoint methods directly, so the
HTTP framing (routing, status codes, headers, body limits) is under test
too.  The two headline contracts:

- screening over ``POST /v1/screen`` is **byte-identical** to running the
  same seeded stream through an in-process ``ScreeningGateway``;
- an envelope published then fetched through the sqlite repository comes
  back **byte-identical** to what was posted.
"""

import http.client
import json
import socket

import pytest

from repro.serving.gateway import GatewayConfig, ScreeningGateway
from repro.serving.loadgen import ScreeningEvent
from repro.service.server import ServiceConfig, ServiceServer, SignatureService
from repro.service.wire import canonical_decisions, encode_event, encode_results
from repro.federation.report import DeviceReport, _payload_checksum, encode_report, token_for
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureStore
from repro.simulation.rng import derive_rng
from tests.conftest import call_with_timeout


def boot_signatures():
    return [
        ConjunctionSignature(tokens=("udid=abc", "seq="), scope_domain="admob.com"),
        ConjunctionSignature(tokens=("imei=1234",), label="IMEI"),
    ]


@pytest.fixture()
def live(tmp_path):
    """A live service over sqlite: yields ``(service, request, db_path)``."""
    db_path = str(tmp_path / "service.sqlite3")
    service = SignatureService(boot_signatures(), db_path=db_path)
    server = ServiceServer(service)
    host, port = server.start()

    def request(method, path, body=None):
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read(), dict(response.getheaders())
        finally:
            connection.close()

    yield service, request, db_path
    server.stop()
    if service.store is not None:
        service.store.close()


def events_from(small_corpus, n=12, seed=3):
    rng = derive_rng(seed, "http-test")
    packets = small_corpus.trace.packets
    return [
        ScreeningEvent(
            seq=i,
            tick=float(i),
            device_id="test-device",
            packet=packets[rng.randrange(len(packets))],
        )
        for i in range(n)
    ]


class TestFetch:
    def test_boot_envelope_served_verbatim(self, live):
        __, request, __db = live
        status, body, headers = request("GET", "/v1/signatures")
        assert status == 200
        assert headers["X-Set-Version"] == "1"
        assert body.decode("utf-8") == SignatureStore.dumps_envelope(
            boot_signatures(), 1
        )

    def test_conditional_fetch_304(self, live):
        __, request, __db = live
        status, body, __h = request("GET", "/v1/signatures?since=1")
        assert status == 304
        assert body == b""
        # an older client still gets the document
        status, __b, __h = request("GET", "/v1/signatures?since=0")
        assert status == 200

    def test_bad_since_is_400(self, live):
        __, request, __db = live
        status, __b, __h = request("GET", "/v1/signatures?since=banana")
        assert status == 400

    def test_degraded_header_reports_served_version(self, live):
        service, request, __db = live
        document = SignatureStore.dumps_envelope(boot_signatures()[:1], 2)
        request("POST", "/v1/signatures", document.encode())
        # corrupt version 2 at rest; fetch must degrade to version 1
        service.store.write(
            "UPDATE signature_envelopes SET document = ? WHERE set_version = 2",
            ('{"garbage": true}',),
        )
        status, body, headers = request("GET", "/v1/signatures")
        assert status == 200
        assert headers["X-Set-Version"] == "1"
        assert SignatureStore.loads_envelope(body.decode()).set_version == 1


class TestPublish:
    def test_publish_fetch_roundtrip_byte_identical(self, live):
        __, request, __db = live
        document = SignatureStore.dumps_envelope(boot_signatures()[:1], 7)
        status, body, __h = request("POST", "/v1/signatures", document.encode())
        assert status == 201
        reply = json.loads(body)
        assert reply["set_version"] == 7
        assert reply["reload_applied"] is True
        status, fetched, headers = request("GET", "/v1/signatures")
        assert status == 200
        assert fetched.decode("utf-8") == document  # byte-identical
        assert headers["X-Set-Version"] == "7"

    def test_stale_publish_409_and_state_unchanged(self, live):
        service, request, __db = live
        stale = SignatureStore.dumps_envelope(boot_signatures(), 1)
        status, body, __h = request("POST", "/v1/signatures", stale.encode())
        assert status == 409
        assert json.loads(body)["latest"] == 1
        assert service.gateway.set_version == 1
        assert service.signatures.versions() == [1]

    def test_invalid_envelope_400(self, live):
        __, request, __db = live
        status, __b, __h = request("POST", "/v1/signatures", b'{"not": "envelope"}')
        assert status == 400

    def test_publish_hot_reloads_gateway(self, live):
        service, request, __db = live
        document = SignatureStore.dumps_envelope(boot_signatures()[:1], 2)
        request("POST", "/v1/signatures", document.encode())
        assert service.gateway.set_version == 2
        assert service.gateway.generation == 2


class TestScreen:
    def test_socket_decisions_byte_identical_to_in_process(self, live, small_corpus):
        __, request, __db = live
        events = events_from(small_corpus)
        reference = ScreeningGateway(boot_signatures(), config=GatewayConfig())
        expected = canonical_decisions(encode_results(reference.run(list(events))))
        body = json.dumps({"events": [encode_event(e) for e in events]}).encode()
        status, reply, __h = request("POST", "/v1/screen", body)
        assert status == 200
        decoded = json.loads(reply)
        assert canonical_decisions(decoded["results"]) == expected
        assert decoded["set_version"] == 1

    def test_malformed_event_400(self, live):
        __, request, __db = live
        for bad in (
            b'{"events": []}',
            b'{"events": [{"seq": -1}]}',
            b'{"events": "nope"}',
            b"not json at all",
        ):
            status, __b, __h = request("POST", "/v1/screen", bad)
            assert status == 400

    def test_mistyped_packet_field_400(self, live, small_corpus):
        service, request, __db = live
        for key in ("raw", "host", "ip"):
            record = encode_event(events_from(small_corpus, n=1)[0])
            record["packet"][key] = 5
            status, reply, __h = request(
                "POST", "/v1/screen", json.dumps({"events": [record]}).encode()
            )
            assert status == 400, reply
            assert f"'{key}' must be a string" in json.loads(reply)["error"]
        assert "service_unhandled_errors" not in service.metrics.counters

    def test_unrepresentable_json_numbers_400(self, live):
        service, request, __db = live
        for body in (b'{"events": [' + b"1" * 5000 + b"]}", b"[" * 100_000):
            status, __b, __h = request("POST", "/v1/screen", body)
            assert status == 400
        assert "service_unhandled_errors" not in service.metrics.counters

    def test_non_finite_tick_400_and_service_keeps_serving(self, live, small_corpus):
        # A NaN tick once hung the gateway while it held the lock, so every
        # later request blocked; Infinity was a 400 about a list index.
        service, request, __db = live
        record = encode_event(events_from(small_corpus, n=1)[0])
        for tick, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
            body = json.dumps({"events": [record]}).replace('"tick": 0.0', f'"tick": {tick}')
            status, reply, __h = call_with_timeout(
                lambda body=body: request("POST", "/v1/screen", body.encode()), 30.0
            )
            assert status == 400, reply
            assert json.loads(reply) == {"error": f"bad event tick {shown}"}
        status, __b, __h = call_with_timeout(lambda: request("GET", "/healthz"), 30.0)
        assert status == 200
        assert "service_unhandled_errors" not in service.metrics.counters

    def test_nan_tick_in_process_returns(self, small_corpus):
        service = SignatureService(boot_signatures())
        record = encode_event(events_from(small_corpus, n=1)[0])
        record["tick"] = float("nan")
        status, payload = call_with_timeout(lambda: service.screen({"events": [record]}), 30.0)
        assert (status, payload) == (400, {"error": "bad event tick nan"})

    def test_canonical_and_lf_only_packets_decide_alike(self, live, small_corpus):
        __, request, __db = live
        events = events_from(small_corpus, n=8)
        canonical = [encode_event(e) for e in events]
        lf_only = [encode_event(e) for e in events]
        for record in lf_only:
            raw = record["packet"]["raw"]
            head, __, body = raw.partition("\r\n\r\n")
            record["packet"]["raw"] = head.replace("\r\n", "\n") + "\n\n" + body
        replies = []
        for records in (canonical, lf_only):
            status, reply, __h = request(
                "POST", "/v1/screen", json.dumps({"events": records}).encode()
            )
            assert status == 200
            replies.append(reply)
        assert replies[0] == replies[1]

    def test_screen_after_reload_uses_new_version(self, live, small_corpus):
        __, request, __db = live
        document = SignatureStore.dumps_envelope(boot_signatures()[:1], 2)
        request("POST", "/v1/signatures", document.encode())
        events = events_from(small_corpus, n=4)
        body = json.dumps({"events": [encode_event(e) for e in events]}).encode()
        status, reply, __h = request("POST", "/v1/screen", body)
        assert status == 200
        decoded = json.loads(reply)
        assert decoded["set_version"] == 2
        assert all(r["set_version"] == 2 for r in decoded["results"])


class TestReports:
    def reports_body(self, small_corpus, n=3, device="http-dev"):
        packets = small_corpus.trace.packets
        records = [
            encode_report(
                DeviceReport(
                    device_id=device,
                    seq=i + 1,
                    token=token_for(packets[i]),
                    packet=packets[i],
                )
            )
            for i in range(n)
        ]
        return records, json.dumps({"reports": records}).encode()

    def test_valid_reports_accepted_and_stored(self, live, small_corpus):
        service, request, __db = live
        __, body = self.reports_body(small_corpus)
        status, reply, __h = request("POST", "/v1/reports", body)
        assert status == 200
        decoded = json.loads(reply)
        assert decoded["accepted"] == 3
        assert decoded["stored"] == 3
        assert service.reports.count() == 3

    def test_duplicate_rejected_not_an_http_error(self, live, small_corpus):
        __, request, __db = live
        records, body = self.reports_body(small_corpus, n=2)
        request("POST", "/v1/reports", body)
        replay = json.dumps({"reports": [records[0]]}).encode()
        status, reply, __h = request("POST", "/v1/reports", replay)
        assert status == 200  # application verdict, not transport failure
        decoded = json.loads(reply)
        assert decoded["accepted"] == 0
        assert decoded["results"][0]["status"].startswith("rejected")

    def test_garbage_record_rejected_per_report(self, live, small_corpus):
        __, request, __db = live
        records, __ = self.reports_body(small_corpus, n=1)
        mixed = json.dumps({"reports": [{"junk": 1}, records[0]]}).encode()
        status, reply, __h = request("POST", "/v1/reports", mixed)
        assert status == 200
        decoded = json.loads(reply)
        statuses = [r["status"] for r in decoded["results"]]
        assert statuses[0].startswith("rejected")
        assert decoded["accepted"] == 1

    def test_bad_body_400(self, live):
        __, request, __db = live
        status, __b, __h = request("POST", "/v1/reports", b'{"reports": []}')
        assert status == 400

    def test_mistyped_packet_field_is_a_schema_verdict(self, live, small_corpus):
        service, request, __db = live
        records, __ = self.reports_body(small_corpus, n=3)
        for record, key in zip(records, ("raw", "host", "ip")):
            record["packet"][key] = 5
            record["checksum"] = _payload_checksum(record)  # reaches the packet decoder
        body = json.dumps({"reports": records}).encode()
        status, reply, __h = request("POST", "/v1/reports", body)
        assert status == 200, reply
        decoded = json.loads(reply)
        assert [(r["status"], r["reason"]) for r in decoded["results"]] == [
            ("rejected_malformed", "schema")
        ] * 3
        assert decoded["accepted"] == decoded["stored"] == 0
        assert "service_unhandled_errors" not in service.metrics.counters


class TestOperationalEndpoints:
    def test_healthz_snapshot(self, live):
        __, request, __db = live
        status, body, __h = request("GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["gateway"]["set_version"] == 1
        assert health["signatures"]["latest_version"] == 1
        assert health["storage"] == {"backend": "sqlite", "schema_version": 2}

    def test_metrics_prometheus_text(self, live, small_corpus):
        __, request, __db = live
        events = events_from(small_corpus, n=3)
        request(
            "POST",
            "/v1/screen",
            json.dumps({"events": [encode_event(e) for e in events]}).encode(),
        )
        status, body, headers = request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_service_requests_screen" in text
        assert "repro_admitted" in text  # gateway counters share the registry

    def test_unknown_route_404(self, live):
        __, request, __db = live
        for method, path in (("GET", "/nope"), ("POST", "/v1/nope")):
            status, __b, __h = request(method, path, b"{}" if method == "POST" else None)
            assert status == 404

    def test_oversized_body_413(self, tmp_path):
        service = SignatureService(
            boot_signatures(), config=ServiceConfig(max_body_bytes=64)
        )
        server = ServiceServer(service)
        host, port = server.start()
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            connection.request(
                "POST", "/v1/screen", body=b"x" * 256,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read()) == {"error": "body exceeds 64 byte limit"}
            connection.close()

            # The unread body must not be parsed as the next request on a
            # kept-alive connection: the server answers once, then closes.
            replies = self.send_raw(
                host, port,
                b"POST /v1/screen HTTP/1.1\r\nHost: t\r\nContent-Length: 256\r\n\r\n"
                + b"x" * 256
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            assert replies.startswith(b"HTTP/1.1 413 ")
            assert replies.count(b"HTTP/1.") == 1  # no 501 for the leftover bytes
        finally:
            server.stop()

    def test_client_still_sending_reads_its_413(self):
        # Closing with unread body bytes makes the kernel reset the
        # connection; without reading some of them first, a client still
        # sending a body this size got EPIPE/ECONNRESET, not the reply.
        service = SignatureService(
            boot_signatures(), config=ServiceConfig(max_body_bytes=64)
        )
        server = ServiceServer(service)
        host, port = server.start()
        try:
            for __ in range(3):
                connection = http.client.HTTPConnection(host, port, timeout=10.0)
                connection.request(
                    "POST", "/v1/screen", body=b"x" * (4 * 1024 * 1024),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 413
                assert json.loads(response.read()) == {"error": "body exceeds 64 byte limit"}
                connection.close()
        finally:
            server.stop()

    def test_malformed_content_length_400_and_close(self):
        service = SignatureService(boot_signatures())
        server = ServiceServer(service)
        host, port = server.start()
        try:
            for declared in (b"-1", b"abc", b"+5"):
                replies = self.send_raw(
                    host, port,
                    b"POST /v1/screen HTTP/1.1\r\nHost: t\r\nContent-Length: " + declared
                    + b"\r\n\r\n{}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                )
                assert replies.startswith(b"HTTP/1.1 400 ")
                assert b"Connection: close" in replies
                assert replies.count(b"HTTP/1.") == 1
            assert "service_unhandled_errors" not in service.metrics.counters
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "method, path, first",
        [
            ("POST", "/v1/nope", b"404"),
            ("GET", "/v1/nope", b"404"),
            ("GET", "/v1/signatures", b"200"),
            ("GET", "/v1/signatures?since=1", b"304"),
            ("GET", "/healthz", b"200"),
            ("GET", "/metrics", b"200"),
        ],
    )
    def test_a_body_the_route_ignores_is_not_the_next_request(self, method, path, first):
        service = SignatureService(boot_signatures())
        server = ServiceServer(service)
        host, port = server.start()
        try:
            embedded = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(embedded)}"
            replies = self.send_raw(
                host, port, head.encode() + b"\r\n\r\n" + embedded, half_close=True
            )
            assert replies.startswith(b"HTTP/1.1 " + first + b" ")
            assert replies.count(b"HTTP/1.1 ") == 1  # the embedded request is never answered
            healthz = service.metrics.counters.get("service_requests_healthz", 0)
            assert healthz == (1 if path == "/healthz" else 0)
        finally:
            server.stop()

    def test_a_bad_or_oversized_body_on_a_get_is_refused_and_closed(self):
        service = SignatureService(boot_signatures(), config=ServiceConfig(max_body_bytes=64))
        server = ServiceServer(service)
        host, port = server.start()
        try:
            for path in ("/v1/signatures", "/nope"):
                for declared, status in ((b"abc", b"400"), (b"65", b"413")):
                    replies = self.send_raw(
                        host, port,
                        b"GET " + path.encode() + b" HTTP/1.1\r\nHost: t\r\nContent-Length: "
                        + declared + b"\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                    )
                    assert replies.startswith(b"HTTP/1.1 " + status + b" ")
                    assert b"Connection: close" in replies
                    assert replies.count(b"HTTP/1.") == 1
        finally:
            server.stop()

    @staticmethod
    def send_raw(host, port, payload: bytes, half_close: bool = False) -> bytes:
        """Everything the server sends back on one connection until it closes.

        ``half_close`` ends the client's side after the payload, so a
        kept-alive connection closes once the server has read it all.
        """
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        return received


class TestStop:
    def test_stop_before_serving_returns(self):
        # An interrupt between binding and serving (repro service, stopped
        # right after its ready file appears) left stop() waiting forever
        # for a serve loop that never ran.
        server = ServiceServer(SignatureService(boot_signatures()))
        assert call_with_timeout(server.stop, 10.0) is True


class TestRecovery:
    def test_restart_recovers_latest_envelope_from_sqlite(self, live):
        service, request, db_path = live
        document = SignatureStore.dumps_envelope(boot_signatures()[:1], 5)
        request("POST", "/v1/signatures", document.encode())
        service.store.close()

        # a fresh boot with *no* boot signatures must recover version 5
        reborn = SignatureService([], db_path=db_path)
        assert reborn.gateway.set_version == 5
        assert reborn.signatures.latest_version() == 5
        status, payload, version = reborn.fetch()
        assert status == 200 and version == 5
        assert payload == document  # byte-identical across the restart
        reborn.store.close()

    def test_boot_signatures_ignored_when_state_exists(self, live):
        service, __req, db_path = live
        service.store.close()
        reborn = SignatureService(
            [ConjunctionSignature(tokens=("other=1",))], db_path=db_path
        )
        # durable version 1 wins over the new boot set
        assert reborn.gateway.set_version == 1
        assert len(reborn.gateway.matcher) == len(boot_signatures())
        reborn.store.close()
