"""HTTP packet distances (paper Sections IV-B, IV-C).

The full packet distance is

    d_pkt(p_x, p_y) = d_dst(p_x, p_y) + d_header(p_x, p_y)

with ``d_dst = d_ip + d_port + d_host`` over the destination triple and
``d_header = d_rline + d_cookie + d_body``, each component a normalized
compression distance.  :class:`repro.distance.packet.PacketDistance` is the
configurable entry point; :func:`repro.distance.matrix.distance_matrix`
computes condensed pairwise matrices for clustering.
"""

from repro.distance.blocking import (
    BlockAssignment,
    BlockingConfig,
    BlockingMode,
    BlockingStats,
    assign_blocks,
)
from repro.distance.content import ContentDistance, header_distance
from repro.distance.destination import (
    destination_distance,
    host_distance,
    ip_distance,
    port_distance,
)
from repro.distance.engine import (
    DistanceEngine,
    EngineStats,
    PairStream,
)
from repro.distance.matrix import CondensedMatrix, distance_matrix
from repro.distance.ncd import CacheStats, Compressor, NcdCalculator, ncd
from repro.distance.packet import PacketDistance

__all__ = [
    "ncd",
    "NcdCalculator",
    "CacheStats",
    "Compressor",
    "ip_distance",
    "port_distance",
    "host_distance",
    "destination_distance",
    "header_distance",
    "ContentDistance",
    "PacketDistance",
    "distance_matrix",
    "CondensedMatrix",
    "DistanceEngine",
    "EngineStats",
    "PairStream",
    "BlockingMode",
    "BlockingConfig",
    "BlockingStats",
    "BlockAssignment",
    "assign_blocks",
]
