"""Held-out evaluation and learning curves.

The paper evaluates signatures against the *entire* dataset, training
sample included (with the N-corrections of Section V-B).  A modern
reviewer asks the stricter question: how do signatures do on traffic they
never saw?  This module provides:

- :func:`holdout_evaluation` — split the suspicious group, generate from
  the training part, measure recall on the held-out part and FP on all
  normal traffic;
- :func:`learning_curve` — held-out recall as a function of N, the
  honest counterpart of Fig 4's TP series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clustering.linkage import agglomerate
from repro.core.pipeline import PipelineConfig
from repro.dataset.split import holdout_split
from repro.distance.engine import DistanceEngine
from repro.errors import ReproError
from repro.http.packet import HttpPacket
from repro.signatures.generator import SignatureGenerator
from repro.signatures.matcher import SignatureMatcher


@dataclass(frozen=True, slots=True)
class HoldoutResult:
    """One held-out evaluation."""

    n_train: int
    n_heldout: int
    heldout_recall: float
    false_positive_rate: float
    n_signatures: int


def generate_from(
    packets: Sequence[HttpPacket], config: PipelineConfig | None = None
):
    """Cluster + generate over an explicit training sample.

    The pairwise matrix goes through the distance engine, honouring the
    config's ``workers`` knob (every usable CPU by default, bit-identical
    always).
    """
    config = config or PipelineConfig()
    matrix = DistanceEngine(config.distance, workers=config.workers).matrix(list(packets))
    dendrogram = agglomerate(matrix, config.linkage)
    return SignatureGenerator(config.generator).from_dendrogram(dendrogram, list(packets))


def holdout_evaluation(
    suspicious: Sequence[HttpPacket],
    normal: Sequence[HttpPacket],
    n_train: int,
    *,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> HoldoutResult:
    """Train on ``n_train`` suspicious packets, evaluate on the rest.

    :raises ReproError: when the training size leaves no held-out data.
    """
    if n_train >= len(suspicious):
        raise ReproError(
            f"n_train={n_train} leaves no held-out data from {len(suspicious)} suspicious packets"
        )
    shuffled, __ = holdout_split(suspicious, 1.0, seed=seed)
    train = shuffled[:n_train]
    heldout = shuffled[n_train:]
    signatures = generate_from(train, config)
    matcher = SignatureMatcher(signatures)
    recall = (
        sum(1 for p in heldout if matcher.is_sensitive(p)) / len(heldout) if heldout else 0.0
    )
    fp = sum(1 for p in normal if matcher.is_sensitive(p)) / len(normal) if normal else 0.0
    return HoldoutResult(
        n_train=n_train,
        n_heldout=len(heldout),
        heldout_recall=recall,
        false_positive_rate=fp,
        n_signatures=len(signatures),
    )


def learning_curve(
    suspicious: Sequence[HttpPacket],
    normal: Sequence[HttpPacket],
    train_sizes: Sequence[int],
    *,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> list[HoldoutResult]:
    """Held-out recall at each training size (same shuffle throughout)."""
    return [
        holdout_evaluation(suspicious, normal, n, seed=seed, config=config)
        for n in train_sizes
    ]
