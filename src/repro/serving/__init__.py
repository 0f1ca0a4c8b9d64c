"""The online screening gateway subsystem.

Turns the device-side screening function into a servable system: a seeded
fleet load generator (:mod:`repro.serving.loadgen`), batched sharded
matching bit-identical to the scalar matcher (:mod:`repro.serving.shards`),
a gateway with bounded admission, load shedding and hot signature reload
(:mod:`repro.serving.gateway`) that counts into the shared
:class:`~repro.obs.metrics.Metrics` registry.
"""

from repro.serving.gateway import (
    GatewayConfig,
    ReloadEvent,
    ScreeningGateway,
    ServeOutcome,
    ServeResult,
    ShedPolicy,
)
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile, ScreeningEvent
from repro.serving.shards import MatcherShard, ShardedMatcher

__all__ = [
    "FleetLoadGenerator",
    "GatewayConfig",
    "LoadProfile",
    "MatcherShard",
    "ReloadEvent",
    "ScreeningEvent",
    "ScreeningGateway",
    "ServeOutcome",
    "ServeResult",
    "ShardedMatcher",
    "ShedPolicy",
]
