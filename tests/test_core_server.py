"""SignatureServer: ingest -> cluster -> generate."""

import pytest

from repro.core.server import SignatureServer
from repro.dataset.trace import Trace
from repro.errors import SignatureError
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.store import SignatureStore
from tests.conftest import make_packet


def leaky_packet(identity, seq):
    return make_packet(
        host="ads.adnet.com",
        ip="198.51.100.9",
        target=f"/imp?sid=PUB&imei={identity.imei}&seq={seq}",
    )


def clean_packet(seq):
    return make_packet(host="img.other.jp", ip="203.0.113.4", target=f"/img?i={seq}")


@pytest.fixture
def server(identity):
    return SignatureServer(PayloadCheck(identity))


class TestIngest:
    def test_splits_groups(self, server, identity):
        trace = Trace([leaky_packet(identity, i) for i in range(4)] + [clean_packet(9)])
        n_suspicious, n_normal = server.ingest(trace)
        assert n_suspicious == 4
        assert n_normal == 1
        assert len(server.suspicious) == 4
        assert len(server.normal) == 1

    def test_ingest_accumulates(self, server, identity):
        server.ingest(Trace([leaky_packet(identity, 1)]))
        server.ingest(Trace([leaky_packet(identity, 2)]))
        assert len(server.suspicious) == 2


class TestGenerate:
    def test_generates_matching_signatures(self, server, identity):
        trace = Trace([leaky_packet(identity, i) for i in range(8)])
        server.ingest(trace)
        result = server.generate(n_sample=6, seed=1)
        assert result.signatures
        assert result.dendrogram.n_leaves == 6
        assert len(result.sample) == 6
        # The signature should recognize a fresh packet from the module.
        fresh = leaky_packet(identity, 999)
        assert any(s.matches(fresh) for s in result.signatures)

    def test_sample_clamped_to_population(self, server, identity):
        server.ingest(Trace([leaky_packet(identity, i) for i in range(3)]))
        result = server.generate(n_sample=50)
        assert len(result.sample) == 3

    def test_generate_without_ingest_rejected(self, server):
        with pytest.raises(SignatureError):
            server.generate(10)

    def test_non_positive_sample_rejected(self, server, identity):
        server.ingest(Trace([leaky_packet(identity, 1)]))
        with pytest.raises(SignatureError):
            server.generate(0)

    def test_generation_deterministic(self, identity):
        trace = Trace([leaky_packet(identity, i) for i in range(8)])
        a = SignatureServer(PayloadCheck(identity))
        b = SignatureServer(PayloadCheck(identity))
        a.ingest(trace)
        b.ingest(trace)
        assert a.generate(5, seed=3).signatures == b.generate(5, seed=3).signatures


class TestPublish:
    def test_publish_roundtrips_through_store(self, server, identity):
        server.ingest(Trace([leaky_packet(identity, i) for i in range(6)]))
        result = server.generate(4)
        published = server.publish(result.signatures)
        assert SignatureStore.loads(published) == result.signatures


class TestQuarantine:
    def test_ingest_raw_parses_good_records(self, server, identity):
        records = [leaky_packet(identity, i).to_dict() for i in range(3)]
        records.append(clean_packet(7).to_dict())
        n_suspicious, n_normal = server.ingest_raw(records)
        assert (n_suspicious, n_normal) == (3, 1)
        assert server.quarantine.total == 0

    def test_malformed_records_quarantined_not_fatal(self, server, identity):
        good = leaky_packet(identity, 1).to_dict()
        truncated = dict(good, raw=good["raw"][:3])  # mid request-line
        missing_key = {k: v for k, v in good.items() if k != "raw"}
        bad_ip = dict(good, ip="999.999.1.1")
        not_a_dict = "garbage"
        n_suspicious, n_normal = server.ingest_raw(
            [good, truncated, missing_key, bad_ip, not_a_dict]
        )
        assert (n_suspicious, n_normal) == (1, 0)
        assert server.quarantine.total == 3 + 1
        assert len(server.suspicious) == 1

    def test_quarantine_counters_by_reason(self, server, identity):
        good = leaky_packet(identity, 1).to_dict()
        server.ingest_raw([dict(good, raw="")])
        assert server.quarantine.total == 1
        assert sum(server.quarantine.summary().values()) == 1

    def test_quarantine_is_bounded(self, identity):
        small = SignatureServer(PayloadCheck(identity), quarantine_capacity=2)
        good = leaky_packet(identity, 1).to_dict()
        small.ingest_raw([dict(good, raw="") for __ in range(5)])
        assert len(small.quarantine) == 2
        assert small.quarantine.total == 5

    def test_split_quarantines_canonicalization_failures(self, identity):
        from repro.errors import HttpParseError
        from repro.reliability.quarantine import Quarantine

        class ExplodingPacket:
            app_id = "jp.bad.app"

            def canonical_text(self):
                raise HttpParseError("mangled capture")

        check = PayloadCheck(identity)
        quarantine = Quarantine()
        suspicious, normal = check.split(
            [leaky_packet(identity, 1), ExplodingPacket(), clean_packet(2)],
            quarantine=quarantine,
        )
        assert len(suspicious) == 1 and len(normal) == 1
        assert quarantine.total == 1
        assert quarantine.summary() == {"HttpParseError": 1}

    def test_split_without_quarantine_still_raises(self, identity):
        from repro.errors import HttpParseError

        class ExplodingPacket:
            def canonical_text(self):
                raise HttpParseError("mangled capture")

        with pytest.raises(HttpParseError):
            PayloadCheck(identity).split([ExplodingPacket()])
