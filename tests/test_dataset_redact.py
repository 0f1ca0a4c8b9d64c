"""Trace redaction: completeness, consistency, structure preservation."""

import hashlib

from repro.dataset.redact import TraceRedactor
from repro.dataset.trace import Trace
from tests.conftest import make_packet


class TestRedaction:
    def test_plain_value_removed(self, identity):
        redactor = TraceRedactor(identity)
        packet = make_packet(target=f"/x?imei={identity.imei}&k=1")
        clean = redactor.redact_packet(packet)
        assert identity.imei not in clean.canonical_text()
        assert "REDACTED_IMEI" in clean.canonical_text()

    def test_hashed_value_removed(self, identity):
        redactor = TraceRedactor(identity)
        digest = hashlib.md5(identity.android_id.encode()).hexdigest()
        packet = make_packet(target=f"/x?u={digest}")
        clean = redactor.redact_packet(packet)
        assert digest not in clean.canonical_text()
        assert "REDACTED_ANDROID_ID_MD5" in clean.canonical_text()

    def test_cookie_and_body_redacted(self, identity):
        redactor = TraceRedactor(identity)
        packet = make_packet(
            cookie=f"muid={identity.android_id}",
            body=f"iccid={identity.sim_serial}".encode(),
        )
        clean = redactor.redact_packet(packet)
        assert identity.android_id not in clean.canonical_text()
        assert identity.sim_serial not in clean.canonical_text()

    def test_consistent_placeholders(self, identity):
        redactor = TraceRedactor(identity)
        a = redactor.redact_packet(make_packet(target=f"/a?imei={identity.imei}"))
        b = redactor.redact_packet(make_packet(target=f"/b?imei={identity.imei}"))
        token_a = a.request.query.get("imei")
        token_b = b.request.query.get("imei")
        assert token_a == token_b

    def test_non_sensitive_content_untouched(self, identity):
        redactor = TraceRedactor(identity)
        packet = make_packet(target="/x?page=3&q=search+term", cookie="sid=abc123")
        clean = redactor.redact_packet(packet)
        assert clean.request.target == packet.request.target
        assert clean.cookie == packet.cookie

    def test_original_packet_untouched(self, identity):
        redactor = TraceRedactor(identity)
        packet = make_packet(target=f"/x?imei={identity.imei}")
        redactor.redact_packet(packet)
        assert identity.imei in packet.canonical_text()

    def test_provenance_preserved(self, identity):
        redactor = TraceRedactor(identity)
        packet = make_packet(target=f"/x?imei={identity.imei}", app_id="jp.app.z")
        packet.meta["service"] = "svc"
        clean = redactor.redact_packet(packet)
        assert clean.app_id == "jp.app.z"
        assert clean.meta == {"service": "svc"}
        assert clean.destination == packet.destination


class TestTraceLevel:
    def test_redacted_corpus_is_clean(self, small_corpus):
        redactor = TraceRedactor(small_corpus.device.identity)
        sample = Trace(small_corpus.trace.packets[:400])
        clean = redactor.redact_trace(sample)
        assert redactor.verify_clean(clean)
        assert len(clean) == len(sample)

    def test_clustering_survives_redaction(self, small_corpus, small_split):
        """Signatures generated from a redacted trace still work —
        placeholders are invariants too."""
        from repro.eval.crossval import generate_from
        from repro.signatures.matcher import SignatureMatcher

        suspicious, __ = small_split
        redactor = TraceRedactor(small_corpus.device.identity)
        redacted = [redactor.redact_packet(p) for p in list(suspicious)[:90]]
        signatures = generate_from(redacted)
        assert signatures
        matcher = SignatureMatcher(signatures)
        fresh = [redactor.redact_packet(p) for p in list(suspicious)[90:180]]
        recall = sum(matcher.is_sensitive(p) for p in fresh) / len(fresh)
        assert recall > 0.4
