"""Transform lattice: hashing and wire-encoding enumeration."""

import base64
import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.sensitive.transforms import (
    Transform,
    transform_value,
    transform_variants,
)


class TestTransformValue:
    def test_plain_identity(self):
        assert transform_value("abc", Transform.PLAIN) == "abc"

    def test_md5(self):
        assert transform_value("abc", Transform.MD5) == hashlib.md5(b"abc").hexdigest()

    def test_sha1(self):
        assert transform_value("abc", Transform.SHA1) == hashlib.sha1(b"abc").hexdigest()

    def test_sha256(self):
        assert transform_value("abc", Transform.SHA256) == hashlib.sha256(b"abc").hexdigest()

    def test_is_hash_flags(self):
        assert not Transform.PLAIN.is_hash
        assert Transform.MD5.is_hash
        assert Transform.SHA1.is_hash


class TestVariants:
    def test_plain_value_included(self):
        assert "358537041234567" in transform_variants("358537041234567", Transform.PLAIN)

    def test_hex_uppercase_variant(self):
        variants = transform_variants("deadbeef", Transform.PLAIN)
        assert "DEADBEEF" in variants

    def test_non_hex_gets_no_uppercase(self):
        variants = transform_variants("NTT DOCOMO", Transform.PLAIN)
        assert "ntt docomo" not in variants  # only explicit lowering elsewhere

    def test_base64_variant(self):
        variants = transform_variants("myvalue", Transform.PLAIN)
        assert base64.b64encode(b"myvalue").decode() in variants

    def test_urlencoded_variant_for_spaces(self):
        variants = transform_variants("NTT DOCOMO", Transform.PLAIN)
        assert "NTT+DOCOMO" in variants

    def test_short_spellings_dropped(self):
        variants = transform_variants("ab", Transform.PLAIN)
        assert "ab" not in variants  # < 4 chars anchors on noise

    def test_md5_variants_are_of_digest(self):
        digest = hashlib.md5(b"x-value").hexdigest()
        variants = transform_variants("x-value", Transform.MD5)
        assert digest in variants
        assert digest.upper() in variants


@given(st.text(min_size=4, max_size=24))
def test_variants_always_contain_the_transformed_value(value):
    for transform in Transform:
        transformed = transform_value(value, transform)
        if len(transformed) >= 4:
            assert transformed in transform_variants(value, transform)
