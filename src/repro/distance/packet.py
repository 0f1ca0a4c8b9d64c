"""The combined HTTP packet distance ``d_pkt`` (paper Section IV-D).

    d_pkt(p_x, p_y) = d_dst(p_x, p_y) + d_header(p_x, p_y)

:class:`PacketDistance` is the object handed to the clustering layer.  It
also exposes the ablation knobs DESIGN.md calls out: destination-only,
content-only, and per-side weights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.distance.content import ContentDistance
from repro.distance.destination import destination_distance
from repro.distance.ncd import Compressor
from repro.errors import DistanceError
from repro.http.packet import HttpPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.registry import IpRegistry


class PacketDistance:
    """Configurable ``d_pkt`` evaluator.

    :param compressor: compressor for the content-side NCDs.
    :param destination_weight: multiplier on ``d_dst`` (paper: 1.0;
        0.0 gives the content-only ablation).
    :param content_weight: multiplier on ``d_header`` (paper: 1.0;
        0.0 gives the destination-only ablation).
    :param registry: optional WHOIS registry for the verified-IP variant
        (paper Section VI suggestion).

    The unweighted paper metric has range ``[0, 6]`` (three destination
    components + three content components, each in ``[0, 1]``).
    :attr:`max_distance` reports the configured maximum so cut heights can
    be expressed as fractions.
    """

    def __init__(
        self,
        compressor: Compressor = Compressor.ZLIB,
        *,
        destination_weight: float = 1.0,
        content_weight: float = 1.0,
        registry: "IpRegistry | None" = None,
    ) -> None:
        if destination_weight < 0 or content_weight < 0:
            raise DistanceError("distance weights must be non-negative")
        if destination_weight == 0 and content_weight == 0:
            raise DistanceError("at least one distance side must be enabled")
        self.destination_weight = destination_weight
        self.content_weight = content_weight
        self.registry = registry
        self.content = ContentDistance(compressor)

    @property
    def max_distance(self) -> float:
        """Upper bound of :meth:`distance` under this configuration."""
        return 3.0 * self.destination_weight + self.content.component_count * self.content_weight

    def precompute(self, packets: Iterable[HttpPacket]) -> int:
        """Batch-compress every content field once, ahead of the pair loop.

        No-op (returns 0) for the destination-only ablation.
        """
        if not self.content_weight:
            return 0
        return self.content.precompute(packets)

    def distance(self, x: HttpPacket, y: HttpPacket) -> float:
        """``d_pkt``: weighted sum of destination and content distances."""
        total = 0.0
        if self.destination_weight:
            total += self.destination_weight * destination_distance(
                x, y, registry=self.registry
            )
        if self.content_weight:
            total += self.content_weight * self.content.distance(x, y)
        return total

    def __call__(self, x: HttpPacket, y: HttpPacket) -> float:
        return self.distance(x, y)

    @classmethod
    def paper(cls, compressor: Compressor = Compressor.ZLIB) -> "PacketDistance":
        """The exact configuration of the paper (both sides, weight 1)."""
        return cls(compressor)

    @classmethod
    def destination_only(cls) -> "PacketDistance":
        """Ablation: cluster by destination alone."""
        return cls(destination_weight=1.0, content_weight=0.0)

    @classmethod
    def content_only(cls, compressor: Compressor = Compressor.ZLIB) -> "PacketDistance":
        """Ablation: cluster by content alone."""
        return cls(compressor, destination_weight=0.0, content_weight=1.0)

    @classmethod
    def whois_verified(cls, registry: "IpRegistry") -> "PacketDistance":
        """The paper's §VI extension: registration-verified IP distance."""
        return cls(registry=registry)
