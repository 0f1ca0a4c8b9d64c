"""Longitudinal simulation: the corpus over days, with SDK rollouts.

The paper's capture is one snapshot (January–April 2012 compressed into a
single session per app).  A deployed signature server lives on a
timeline: users run apps daily, SDK vendors roll out new wire formats,
and published signatures age.  :class:`LongitudinalSimulator` produces a
day-stamped trace stream over one fixed population:

- each app is *active* on a given day with a per-app daily probability
  (derived deterministically, so day N's traffic never depends on how
  many days were simulated before it);
- a :class:`Rollout` replaces one shared service's wire format from a
  given day onward — modelling an SDK version upgrade reaching all apps
  that embed it (server-side formats change for everyone at once).

The longitudinal bench uses this to measure signature aging and the value
of periodic regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.app import Application
from repro.android.device import Device
from repro.android.market import AppMarket, MarketConfig
from repro.android.services import Service, ServiceSpec
from repro.dataset.trace import Trace
from repro.errors import SimulationError
from repro.simulation.rng import derive_rng
from repro.simulation.session import SessionConfig, SessionDriver


@dataclass(frozen=True, slots=True)
class Rollout:
    """One SDK wire-format upgrade.

    :param service_name: name of the shared service being upgraded.
    :param day: first day (0-based) the new format is live.
    :param new_spec: the replacement spec (hosts may change too).
    """

    service_name: str
    day: int
    new_spec: ServiceSpec

    def __post_init__(self) -> None:
        if self.day < 0:
            raise SimulationError("rollout day must be non-negative")


class LongitudinalSimulator:
    """Day-by-day traffic over one fixed population.

    :param n_apps: population size.
    :param seed: corpus seed (population, device, and daily streams).
    :param daily_activity: chance an app is used on any given day.
    :param rollouts: SDK upgrades applied on their scheduled days.
    """

    def __init__(
        self,
        n_apps: int = 60,
        seed: int = 0,
        *,
        daily_activity: float = 0.6,
        rollouts: list[Rollout] = None,
        session_config: SessionConfig | None = None,
    ) -> None:
        if not 0.0 < daily_activity <= 1.0:
            raise SimulationError("daily_activity must be in (0, 1]")
        self.seed = seed
        self.daily_activity = daily_activity
        self.rollouts = list(rollouts or [])
        self.apps: list[Application] = AppMarket(MarketConfig(n_apps=n_apps), seed=seed).build()
        self.device: Device = Device.generate(derive_rng(seed, "device"))
        self._driver = SessionDriver(self.device, session_config)
        self._service_cache: dict[str, Service] = {}

    def _effective_service(self, service: Service, day: int) -> Service:
        """The service as it exists on ``day`` (latest applicable rollout)."""
        current = service
        best_day = -1
        for rollout in self.rollouts:
            if rollout.service_name != service.name:
                continue
            if rollout.day <= day and rollout.day > best_day:
                best_day = rollout.day
                key = f"{rollout.service_name}@{rollout.day}"
                cached = self._service_cache.get(key)
                if cached is None:
                    cached = Service(rollout.new_spec)
                    self._service_cache[key] = cached
                current = cached
        return current

    def day_trace(self, day: int) -> Trace:
        """All packets captured on one day (deterministic per day)."""
        if day < 0:
            raise SimulationError("day must be non-negative")
        trace = Trace()
        for app in self.apps:
            activity_rng = derive_rng(self.seed, "activity", app.package, str(day))
            if activity_rng.random() >= self.daily_activity:
                continue
            effective = [self._effective_service(s, day) for s in app.services]
            original = app.services
            app.services = effective
            try:
                session_rng = derive_rng(self.seed, "day-session", app.package, str(day))
                packets = self._driver.run(app, session_rng)
            finally:
                app.services = original
            for packet in packets:
                packet.timestamp += day * 86_400.0
                packet.meta["day"] = day
            trace.extend(packets)
        return trace

    def window_trace(self, first_day: int, n_days: int) -> Trace:
        """Concatenated traffic for ``n_days`` starting at ``first_day``."""
        trace = Trace()
        for day in range(first_day, first_day + n_days):
            trace.extend(self.day_trace(day))
        return trace
