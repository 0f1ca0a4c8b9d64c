"""Held-out evaluation and learning curves."""

import pytest

from repro.errors import ReproError
from repro.eval.crossval import (
    holdout_evaluation,
    learning_curve,
)


@pytest.fixture(scope="module")
def groups(request):
    small_split = request.getfixturevalue("small_split")
    suspicious, normal = small_split
    return list(suspicious), list(normal)


class TestHoldout:
    def test_result_shape(self, groups):
        suspicious, normal = groups
        result = holdout_evaluation(suspicious, normal, n_train=60, seed=1)
        assert result.n_train == 60
        assert result.n_heldout == len(suspicious) - 60
        assert 0.0 <= result.heldout_recall <= 1.0
        assert 0.0 <= result.false_positive_rate <= 1.0
        assert result.n_signatures > 0

    def test_heldout_recall_meaningful(self, groups):
        suspicious, normal = groups
        result = holdout_evaluation(suspicious, normal, n_train=80, seed=2)
        # Ad-module traffic repeats heavily, so held-out recall is high.
        assert result.heldout_recall > 0.5
        assert result.false_positive_rate < 0.05

    def test_train_exhausting_data_rejected(self, groups):
        suspicious, normal = groups
        with pytest.raises(ReproError):
            holdout_evaluation(suspicious, normal, n_train=len(suspicious))

    def test_deterministic(self, groups):
        suspicious, normal = groups
        a = holdout_evaluation(suspicious, normal, n_train=40, seed=9)
        b = holdout_evaluation(suspicious, normal, n_train=40, seed=9)
        assert a == b


class TestLearningCurve:
    def test_curve_monotone_within_noise(self, groups):
        suspicious, normal = groups
        curve = learning_curve(suspicious, normal, [20, 60, 110], seed=3)
        assert len(curve) == 3
        assert curve[-1].heldout_recall >= curve[0].heldout_recall - 0.12

    def test_sizes_recorded(self, groups):
        suspicious, normal = groups
        curve = learning_curve(suspicious, normal, [10, 30], seed=3)
        assert [r.n_train for r in curve] == [10, 30]
