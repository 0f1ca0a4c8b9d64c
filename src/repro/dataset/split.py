"""Suspicious/normal split and sampling (paper Section V-A).

"We manually separated the dataset into a suspicious group and a normal
group ... We selected N HTTP packets at random out of the suspicious group
for signature generation."  Splitting is ``PayloadCheck.split``;
sampling is seeded and without replacement.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.errors import DatasetError
from repro.http.packet import HttpPacket


def sample_packets(
    packets: Sequence[HttpPacket], n: int, seed: int = 0
) -> list[HttpPacket]:
    """``n`` distinct packets sampled uniformly without replacement.

    :raises DatasetError: when ``n`` exceeds the population size.
    """
    if n < 0:
        raise DatasetError(f"sample size must be non-negative, got {n}")
    if n > len(packets):
        raise DatasetError(f"cannot sample {n} of {len(packets)} packets")
    rng = Random(seed)
    return rng.sample(list(packets), n)


def holdout_split(
    packets: Sequence[HttpPacket], fraction: float, seed: int = 0
) -> tuple[list[HttpPacket], list[HttpPacket]]:
    """Random ``(train, held-out)`` split by fraction.

    Used by extension experiments (cross-validation of signature quality);
    the paper itself re-applies signatures to the full dataset.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError(f"fraction must be within [0, 1], got {fraction}")
    shuffled = list(packets)
    Random(seed).shuffle(shuffled)
    cut = round(len(shuffled) * fraction)
    return shuffled[:cut], shuffled[cut:]
