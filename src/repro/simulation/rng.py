"""Seeded random samplers used by the traffic simulator.

All randomness in the library flows through explicitly seeded
:class:`random.Random` instances — there is no module-level RNG state, so
two corpora built with the same seed are byte-identical.
"""

from __future__ import annotations

import math
from random import Random


def poisson(rng: Random, mean: float) -> int:
    """Sample a Poisson-distributed count.

    Uses Knuth's product method for small means and a normal approximation
    (rounded, clipped at zero) for large ones, which is accurate enough for
    packet counts and avoids pathological loop lengths.

    :raises ValueError: for a negative mean.
    """
    if mean < 0:
        raise ValueError(f"Poisson mean must be non-negative, got {mean}")
    if mean == 0:
        return 0
    if mean > 30.0:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def derive_rng(seed: int, *labels: str) -> Random:
    """A child RNG deterministically derived from a seed and labels.

    Keeps per-app streams independent: consuming more randomness for one
    app never shifts another app's packets.
    """
    material = f"{seed}|" + "|".join(labels)
    return Random(material)
