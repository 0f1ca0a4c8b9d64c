"""Edge cases and failure-injection across modules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http.message import HttpRequest
from repro.http.serializer import serialize_request
from tests.conftest import make_packet


class TestSerializerEdges:
    def test_no_content_length_update_when_disabled(self):
        request = HttpRequest(
            method="POST",
            target="/t",
            headers=[("Host", "h"), ("Content-Length", "999")],
            body=b"abc",
        )
        raw = serialize_request(request, update_content_length=False)
        assert b"Content-Length: 999" in raw

    def test_content_length_updated_by_default(self):
        request = HttpRequest(
            method="POST",
            target="/t",
            headers=[("Host", "h"), ("Content-Length", "999")],
            body=b"abc",
        )
        raw = serialize_request(request)
        assert b"Content-Length: 3" in raw

    def test_get_without_body_gets_no_content_length(self):
        request = HttpRequest(method="GET", target="/t", headers=[("Host", "h")])
        raw = serialize_request(request)
        assert b"Content-Length" not in raw

    def test_serialization_does_not_mutate_original(self):
        request = HttpRequest(
            method="POST", target="/t", headers=[("Host", "h")], body=b"abc"
        )
        serialize_request(request)
        assert request.header("Content-Length") == ""


class TestPayloadCheckShadowing:
    def test_encoded_spelling_not_double_counted(self, identity):
        """A value whose url-encoded form equals its plain form must yield
        one finding per occurrence, not one per spelling."""
        from repro.sensitive.payload_check import PayloadCheck
        from repro.sensitive.transforms import Transform

        check = PayloadCheck(identity)
        findings = [
            f
            for f in check.scan_text(f"x={identity.imei}")
            if f.transform is Transform.PLAIN and f.kind.value == "IMEI"
        ]
        assert len(findings) == 1


class TestServiceValueSources:
    def test_locale_and_timestamp(self):
        from random import Random

        from repro.android.app import Application
        from repro.android.device import Device
        from repro.android.permissions import INTERNET, Manifest
        from repro.android.services import Param, RequestTemplate, Service, ServiceSpec

        spec = ServiceSpec(
            name="svc",
            category="webapi",
            hosts=("api.svc.example",),
            ip_base="203.0.113.0",
            templates=(
                RequestTemplate(
                    name="t",
                    method="GET",
                    path="/p",
                    query=(Param("hl", "locale"), Param("ts", "timestamp")),
                ),
            ),
        )
        app = Application(
            package="jp.t.app",
            manifest=Manifest(package="jp.t.app", permissions=frozenset({INTERNET})),
        )
        device = Device.generate(Random(1))
        packet = Service(spec).session_packets(app, device, Random(2), 1)[0]
        assert dict(packet.request.query.pairs).get("hl") == "ja_JP"
        assert dict(packet.request.query.pairs).get("ts").startswith("13300")

    def test_unknown_value_source_rejected(self):
        from random import Random

        from repro.android.app import Application
        from repro.android.device import Device
        from repro.android.permissions import INTERNET, Manifest
        from repro.android.services import Param, RequestTemplate, Service, ServiceSpec
        from repro.errors import SimulationError

        spec = ServiceSpec(
            name="svc",
            category="webapi",
            hosts=("api.svc.example",),
            ip_base="203.0.113.0",
            templates=(
                RequestTemplate(
                    name="t", method="GET", path="/p", query=(Param("x", "teleport"),)
                ),
            ),
        )
        app = Application(
            package="jp.t.app",
            manifest=Manifest(package="jp.t.app", permissions=frozenset({INTERNET})),
        )
        device = Device.generate(Random(1))
        with pytest.raises(SimulationError):
            Service(spec).session_packets(app, device, Random(2), 1)


class TestOwnBackends:
    def test_own_backend_unique_per_app(self):
        from random import Random

        from repro.android.webapi import make_own_backend

        a = make_own_backend("jp.co.soft1.puzzle", Random(1))
        b = make_own_backend("jp.co.soft2.camera", Random(2))
        assert not (set(a.spec.hosts) & set(b.spec.hosts))

    def test_browser_service_single_host(self):
        from random import Random

        from repro.android.webapi import make_browser_service

        service = make_browser_service(7, Random(3))
        assert len(service.spec.hosts) == 1
        assert service.category == "browser"


class TestIncrementalEdges:
    def test_consolidate_with_no_material_is_noop(self):
        from repro.core.incremental import IncrementalSignatureSet
        from repro.signatures.conjunction import ConjunctionSignature

        sig = ConjunctionSignature(tokens=("keepme=1",))
        incset = IncrementalSignatureSet([sig])
        assert incset.consolidate() == 1
        assert incset.signatures == [sig]

    def test_empty_batch(self):
        from repro.core.incremental import IncrementalSignatureSet

        incset = IncrementalSignatureSet()
        report = incset.update([])
        assert report.batch_size == 0
        assert len(incset) == 0


class TestCliErrors:
    def test_generate_with_no_sensitive_traffic(self, tmp_path, identity, capsys):
        import json

        from repro.cli import main
        from repro.dataset.trace import Trace

        trace_path = tmp_path / "clean.jsonl"
        Trace([make_packet(target=f"/n?q={i}") for i in range(5)]).save_jsonl(trace_path)
        identity_path = tmp_path / "id.json"
        identity_path.write_text(json.dumps(identity.to_dict()))
        code = main(
            [
                "generate", "--trace", str(trace_path), "--identity", str(identity_path),
                "--sample", "10", "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 1
        assert "no sensitive packets" in capsys.readouterr().err


@given(st.text(alphabet="abc012.-", min_size=1, max_size=20))
def test_fqdn_normalize_never_crashes_on_plausible_hosts(text):
    """normalize_host either returns a cleaned host or raises ParseError —
    never anything else."""
    from repro.errors import ParseError
    from repro.net.fqdn import normalize_host

    try:
        result = normalize_host(text)
    except ParseError:
        return
    assert result == result.strip().lower()


@given(st.binary(max_size=120))
def test_parser_never_crashes_unexpectedly(raw):
    """parse_request either parses or raises HttpParseError — no other
    exception may escape on arbitrary bytes."""
    from repro.errors import HttpParseError
    from repro.http.parser import parse_request

    try:
        parse_request(raw)
    except HttpParseError:
        pass
