"""Traffic simulation: app sessions, capture, and the paper-scale corpus.

- :mod:`repro.simulation.rng` — seeded samplers (Poisson) and derived RNGs,
- :mod:`repro.simulation.session` — one manual app run (5-15 sim-minutes),
- :mod:`repro.simulation.collector` — population capture into a trace,
- :mod:`repro.simulation.corpus` — the calibrated 1,188-app corpus.
"""

from repro.simulation.collector import TrafficCollector
from repro.simulation.corpus import Corpus, build_corpus, mini_corpus
from repro.simulation.rng import poisson
from repro.simulation.session import SessionConfig, SessionDriver
from repro.simulation.timeline import LongitudinalSimulator, Rollout
from repro.simulation.tls import adopt_tls, encrypt_packet

__all__ = [
    "poisson",
    "SessionDriver",
    "SessionConfig",
    "TrafficCollector",
    "Corpus",
    "build_corpus",
    "mini_corpus",
    "LongitudinalSimulator",
    "Rollout",
    "adopt_tls",
    "encrypt_packet",
]
