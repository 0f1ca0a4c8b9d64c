"""The metrics registry: counters, gauges, fixed-bound histograms.

One :class:`Metrics` instance is a process-local registry shared by every
instrumented subsystem (pipeline, distance engine, signature fetcher,
serving gateway).  Three primitive families:

- monotonic **counters** (:meth:`Metrics.inc`) — totals that only grow;
- **gauges** (:meth:`Metrics.set_gauge`) — last-write-wins levels
  (quarantine depth, live signature version);
- **histograms** (:meth:`Metrics.observe`) — fixed bucket bounds with a
  deterministic max-clamped percentile estimator: the reported quantile
  is the upper edge of the bucket the quantile falls in, clamped to the
  exact observed maximum.

:meth:`Metrics.to_prometheus` renders the whole registry in the
Prometheus text exposition format, in sorted-name order with defined
empty-case values, so two same-seed runs export byte-identical text.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field

#: Default bucket upper edges for histograms registered without explicit
#: bounds (a generic 1-2-5 ladder; last bucket is +inf).
DEFAULT_BOUNDS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


@dataclass
class Histogram:
    """A fixed-bound bucketed histogram with deterministic percentiles.

    :param bounds: ascending bucket upper edges; an implicit overflow
        bucket catches everything above the last edge.
    """

    bounds: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: float = 0.0
    max_value: float = 0.0

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be ascending, got {self.bounds!r}")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation in the first bucket whose edge is ``>= value``."""
        if self.count == 0:
            self.min_value = self.max_value = value
        elif value < self.min_value:  # what min() keeps, without the call
            self.min_value = value
        elif value > self.max_value:
            self.max_value = value
        self.count += 1
        self.total += value
        # NaN compares false with every edge, so it lands in the overflow bucket.
        index = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        self.counts[index] += 1

    def percentile(self, p: float) -> float:
        """Deterministic upper-bound estimate of the ``p`` quantile.

        Returns the upper edge of the bucket the quantile lands in,
        clamped to the exact observed maximum (so a sparse top bucket
        never reports beyond what was seen).  The empty-histogram value
        is **defined** as ``0.0`` — exports never carry NaN.

        :param p: quantile in ``[0, 1]``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(p * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index == len(self.bounds):
                    return self.max_value
                return min(float(self.bounds[index]), self.max_value)
        return self.max_value


class Metrics:
    """A registry of named counters, gauges, and histograms.

    All mutating methods are cheap enough for hot paths; all read methods
    produce deterministic, key-sorted output.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- writers ------------------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        """Bump a monotonic counter.

        :raises ValueError: for a negative increment (counters only grow).
        """
        if by < 0:
            raise ValueError(f"counters are monotonic; cannot add {by}")
        self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins level."""
        self.gauges[name] = value

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None) -> Histogram:
        """Fetch (registering on first use) the named histogram.

        :param bounds: bucket edges used only when the histogram does not
            exist yet; an existing registration keeps its bounds.
        """
        found = self.histograms.get(name)
        if found is None:
            found = self.histograms[name] = Histogram(bounds or DEFAULT_BOUNDS)
        return found

    def observe(self, name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
        """Record one observation in the named histogram."""
        self.histogram(name, bounds).observe(value)

    # -- readers ------------------------------------------------------------------

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render the registry in the Prometheus text exposition format.

        Families are emitted in sorted-name order; histogram buckets carry
        cumulative counts (as the format requires) ending in ``le="+Inf"``.
        Byte-identical across runs with identical registry contents.
        """
        lines: list[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.counters[name]}")
        for name in sorted(self.gauges):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(self.gauges[name])}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def _prom_name(prefix: str, name: str) -> str:
    """A valid Prometheus metric name from a registry key."""
    return _PROM_NAME.sub("_", f"{prefix}_{name}")


def _prom_value(value: float) -> str:
    """Canonical number formatting: integral floats print without ``.0``."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)
