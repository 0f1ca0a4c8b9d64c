"""Edit distance: exact values and metric properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.editdist import levenshtein, normalized_levenshtein

short_text = st.text(alphabet="abcdz.", max_size=12)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xyz", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("admob.com", "amoad.com", 3),
            ("a", "b", 1),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_works_on_sequences(self):
        assert levenshtein([1, 2, 3], [1, 3]) == 1


class TestNormalized:
    def test_identical_is_zero(self):
        assert normalized_levenshtein("host.com", "host.com") == 0.0

    def test_empty_pair_is_zero(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_disjoint_is_one(self):
        assert normalized_levenshtein("aaa", "bbb") == 1.0

    def test_paper_formula(self):
        # ed / max(len) exactly
        assert normalized_levenshtein("kitten", "sitting") == 3 / 7


@given(short_text, short_text)
def test_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(short_text, short_text, short_text)
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(short_text, short_text)
def test_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(short_text, short_text)
def test_normalized_in_unit_interval(a, b):
    assert 0.0 <= normalized_levenshtein(a, b) <= 1.0
