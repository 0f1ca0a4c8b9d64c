"""Obfuscation transforms and their stability classes."""

from random import Random

import pytest

from repro.sensitive.obfuscation import (
    Obfuscation,
    obfuscate,
    obfuscated_leak_packets,
)


class TestTransforms:
    def test_none_identity(self):
        assert obfuscate("abc123", Obfuscation.NONE) == "abc123"

    def test_reversed(self):
        assert obfuscate("abc123", Obfuscation.REVERSED) == "321cba"

    def test_rot13_hex_is_deterministic_bijection_ish(self):
        a = obfuscate("deadbeef00", Obfuscation.ROT13_HEX)
        b = obfuscate("deadbeef00", Obfuscation.ROT13_HEX)
        assert a == b
        assert a != "deadbeef00"

    def test_xor_fixed_key_stable(self):
        a = obfuscate("358537041234567", Obfuscation.XOR_FIXED_KEY)
        b = obfuscate("358537041234567", Obfuscation.XOR_FIXED_KEY)
        assert a == b
        assert all(c in "0123456789abcdef" for c in a)

    def test_salted_hash_differs_across_apps(self):
        a = obfuscate("value", Obfuscation.SALTED_HASH_PER_APP, app_id="jp.a")
        b = obfuscate("value", Obfuscation.SALTED_HASH_PER_APP, app_id="jp.b")
        same = obfuscate("value", Obfuscation.SALTED_HASH_PER_APP, app_id="jp.a")
        assert a != b
        assert a == same

    def test_salted_hash_requires_app_id(self):
        with pytest.raises(ValueError):
            obfuscate("value", Obfuscation.SALTED_HASH_PER_APP)

    def test_nonce_hash_differs_every_call(self):
        rng = Random(1)
        a = obfuscate("value", Obfuscation.RANDOM_NONCE_HASH, rng=rng)
        b = obfuscate("value", Obfuscation.RANDOM_NONCE_HASH, rng=rng)
        assert a != b

    def test_nonce_hash_requires_rng(self):
        with pytest.raises(ValueError):
            obfuscate("value", Obfuscation.RANDOM_NONCE_HASH)

    def test_stability_classes(self):
        stable = {m for m in Obfuscation if m.stable_per_device}
        assert Obfuscation.XOR_FIXED_KEY in stable
        assert Obfuscation.SALTED_HASH_PER_APP not in stable
        assert Obfuscation.RANDOM_NONCE_HASH not in stable


class TestLeakPackets:
    def test_packets_carry_obfuscated_value(self):
        rng = Random(3)
        packets = obfuscated_leak_packets("deadbeefcafe0123", Obfuscation.XOR_FIXED_KEY, 5, rng)
        wire = obfuscate("deadbeefcafe0123", Obfuscation.XOR_FIXED_KEY)
        assert len(packets) == 5
        assert all(wire in p.canonical_text() for p in packets)
        assert all("deadbeefcafe0123" not in p.canonical_text() for p in packets)

    def test_request_ids_fresh(self):
        rng = Random(3)
        packets = obfuscated_leak_packets("deadbeefcafe0123", Obfuscation.NONE, 6, rng)
        rids = {p.request.query.get("rid") for p in packets}
        assert len(rids) == 6

    def test_signatures_survive_stable_obfuscation(self):
        """The paper's claim: a fixed key/hash across packets is still
        detectable, because the ciphertext itself becomes invariant."""
        from repro.eval.crossval import generate_from
        from repro.signatures.matcher import SignatureMatcher

        rng = Random(5)
        packets = obfuscated_leak_packets(
            "deadbeefcafe0123", Obfuscation.XOR_FIXED_KEY, 12, rng
        )
        signatures = generate_from(packets[:8])
        matcher = SignatureMatcher(signatures)
        fresh = packets[8:]
        assert all(matcher.is_sensitive(p) for p in fresh)

    def test_nonce_hash_defeats_value_anchoring(self):
        """The flip side: per-request nonces leave only structural tokens."""
        from repro.eval.crossval import generate_from

        rng = Random(5)
        packets = obfuscated_leak_packets(
            "deadbeefcafe0123", Obfuscation.RANDOM_NONCE_HASH, 12, rng
        )
        signatures = generate_from(packets[:8])
        # Whatever tokens remain cannot include the identifier value in any
        # stable form: every signature token must appear in all packets, so
        # tokens are endpoint/parameter structure only.
        for signature in signatures:
            for token in signature.tokens:
                assert "deadbeefcafe0123" not in token
