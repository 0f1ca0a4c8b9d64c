"""Cross-cutting property tests added late in development."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures.tokens import TokenFilter


class TestTokenFilterProperties:
    @given(st.text(alphabet="GETPOST /abc=&?1.HTTPn", max_size=40))
    def test_clean_idempotent(self, token):
        token_filter = TokenFilter()
        once = token_filter.clean(token)
        if once is not None:
            assert token_filter.clean(once) == once

    @given(st.text(max_size=40))
    def test_clean_never_grows(self, token):
        cleaned = TokenFilter().clean(token)
        if cleaned is not None:
            assert len(cleaned) <= len(token)

    @given(st.lists(st.text(max_size=20), max_size=8))
    def test_apply_output_unique_and_clean(self, tokens):
        token_filter = TokenFilter()
        result = token_filter.apply(tokens)
        assert len(result) == len(set(result))
        for token in result:
            assert token_filter.clean(token) == token


class TestStorePipelineProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.text(alphabet="abc=&123", min_size=1, max_size=10), min_size=1, max_size=4),
                st.sampled_from(["", "admob.com", "nend.net"]),
            ),
            min_size=0,
            max_size=5,
        )
    )
    def test_store_roundtrip_any_signature_set(self, raw):
        from repro.signatures.conjunction import ConjunctionSignature
        from repro.signatures.store import SignatureStore

        signatures = [
            ConjunctionSignature(tokens=tuple(tokens), scope_domain=scope)
            for tokens, scope in raw
        ]
        assert SignatureStore.loads(SignatureStore.dumps(signatures)) == signatures


class TestRedactionProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), noise=st.text(alphabet="abc123&=/? ", max_size=40))
    def test_redacted_text_never_contains_identifiers(self, seed, noise):
        from repro.dataset.redact import TraceRedactor
        from repro.sensitive.identifiers import DeviceIdentity

        identity = DeviceIdentity.generate(Random(seed))
        redactor = TraceRedactor(identity)
        text = f"{noise}imei={identity.imei}&aid={identity.android_id}{noise}"
        cleaned = redactor.redact_text(text)
        assert identity.imei not in cleaned
        assert identity.android_id not in cleaned


class TestCorpusScaleInvariance:
    @pytest.mark.parametrize("n_apps", [30, 60, 120])
    def test_sensitive_fraction_scale_invariant(self, n_apps):
        from repro.simulation.corpus import build_corpus

        corpus = build_corpus(n_apps=n_apps, seed=6)
        suspicious, __ = corpus.payload_check().split(corpus.trace)
        fraction = len(suspicious) / len(corpus.trace)
        assert 0.10 < fraction < 0.30


class TestDistanceMetricProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_packet_distance_non_negative_and_bounded(self, seed):
        from repro.distance.packet import PacketDistance
        from repro.simulation.corpus import mini_corpus

        corpus = mini_corpus(seed=3, n_apps=12)
        rng = Random(seed)
        packets = corpus.trace.packets
        x = packets[rng.randrange(len(packets))]
        y = packets[rng.randrange(len(packets))]
        metric = PacketDistance.paper()
        value = metric.distance(x, y)
        assert 0.0 <= value <= 6.0  # three destination plus three content components
        if x is y:
            assert value < 1.0  # self-distance is small (NCD overhead only)
