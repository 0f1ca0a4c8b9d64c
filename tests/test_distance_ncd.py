"""NCD: edge cases, metric-ish properties, compressor backends, caching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance.ncd import Compressor, NcdCalculator, ncd

payload = st.binary(min_size=0, max_size=200)


class TestEdgeCases:
    def test_both_empty_is_zero(self):
        assert ncd(b"", b"") == 0.0

    def test_one_empty_is_one(self):
        assert ncd(b"", b"data") == 1.0
        assert ncd(b"data", b"") == 1.0

    def test_identical_is_small(self):
        data = b"GET /ad?udid=abc123 HTTP/1.1" * 4
        assert ncd(data, data) < 0.2

    def test_disjoint_is_large(self):
        import random

        rng = random.Random(1)
        a = bytes(rng.randrange(256) for __ in range(400))
        b = bytes(rng.randrange(256) for __ in range(400))
        assert ncd(a, b) > 0.8

    def test_similar_closer_than_dissimilar(self):
        base = b"POST /collect?imei=358537041234567&carrier=docomo HTTP/1.1"
        similar = b"POST /collect?imei=358537049999999&carrier=docomo HTTP/1.1"
        different = b"GET /img/logo.png?cache=20120401 HTTP/1.1"
        assert ncd(base, similar) < ncd(base, different)


class TestClamp:
    @given(payload, payload)
    def test_clamped_in_unit_interval(self, x, y):
        assert 0.0 <= ncd(x, y) <= 1.0

    def test_unclamped_can_exceed_one_slightly(self):
        # Tiny incompressible inputs can push NCD just above 1.0.
        value = ncd(b"\x00", b"\xff", clamp=False)
        assert value >= 0.0  # just verify it computes; magnitude is backend-specific


class TestCompressors:
    @pytest.mark.parametrize("compressor", list(Compressor))
    def test_all_backends_work(self, compressor):
        a = b"the quick brown fox jumps over the lazy dog" * 3
        b = b"the quick brown fox jumps over the lazy cat" * 3
        value = ncd(a, b, compressor)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("compressor", list(Compressor))
    def test_compressed_length_positive(self, compressor):
        assert NcdCalculator(compressor).compressed_length(b"hello") > 0

    def test_compression_actually_compresses(self):
        data = b"ab" * 500
        assert NcdCalculator().compressed_length(data) < len(data)


class TestCalculator:
    def test_agrees_with_function(self):
        calc = NcdCalculator()
        a, b = b"aaa bbb ccc" * 5, b"aaa bbb ddd" * 5
        assert calc.distance(a, b) == pytest.approx(ncd(a, b))

    def test_cache_grows_once_per_distinct_string(self):
        calc = NcdCalculator()
        calc.distance(b"one one one", b"two two two")
        assert len(calc._length_cache) == 2
        calc.distance(b"one one one", b"three three")
        assert len(calc._length_cache) == 3  # b"one..." reused

    def test_edge_cases_match_function(self):
        calc = NcdCalculator()
        assert calc.distance(b"", b"") == 0.0
        assert calc.distance(b"", b"x") == 1.0

    @given(payload, payload)
    def test_rough_symmetry(self, x, y):
        """NCD is only approximately symmetric: C(xy) != C(yx) in general.
        Adversarial binary blobs can push the gap to ~0.15; text-like
        inputs stay much closer (checked below)."""
        calc = NcdCalculator()
        assert calc.distance(x, y) == pytest.approx(calc.distance(y, x), abs=0.2)

    @given(
        st.text(alphabet="abcdef0123456789&=/", min_size=30, max_size=200),
        st.text(alphabet="abcdef0123456789&=/", min_size=30, max_size=200),
    )
    def test_near_symmetry_on_http_like_text(self, x, y):
        """At realistic request-field lengths (>= 30 chars) the asymmetry
        shrinks well below what could flip a clustering decision.  Tiny
        strings are excluded: compressor framing overhead dominates there
        and the relative gap is unbounded."""
        calc = NcdCalculator()
        a = calc.distance(x.encode(), y.encode())
        b = calc.distance(y.encode(), x.encode())
        assert a == pytest.approx(b, abs=0.12)
