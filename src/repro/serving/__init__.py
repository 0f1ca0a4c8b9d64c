"""The online screening gateway subsystem.

Turns the device-side screening function into a servable system: a seeded
fleet load generator (:mod:`repro.serving.loadgen`) and a gateway with
bounded admission, micro-batching, load shedding and hot signature
reload (:mod:`repro.serving.gateway`) that screens each batch with
:class:`~repro.signatures.matcher.SignatureMatcher` and counts into the
shared :class:`~repro.obs.metrics.Metrics` registry.
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

__all__ = [
    "FleetLoadGenerator",
    "GatewayConfig",
    "LoadProfile",
    "ReloadEvent",
    "ScreeningEvent",
    "ScreeningGateway",
    "ServeOutcome",
    "ServeResult",
    "ShedPolicy",
]
