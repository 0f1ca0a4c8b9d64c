"""The application model: manifest + embedded services + behaviour.

An :class:`Application` is what the paper's experimenters downloaded from
Google Play: a package with declared permissions, zero or more embedded
advertisement modules ("several applications have multiple advertisement
modules"), analytics, shared Web APIs, its developer's own backend, and —
rarely — an embedded browser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.android.permissions import Manifest
from repro.android.services import Service


@dataclass
class Application:
    """One installed application.

    :param package: unique package name (``jp.example.fungame``).
    :param manifest: declared permissions.
    :param services: shared services (ad modules, analytics, Web APIs)
        this app embeds; the per-service packet rate comes from the
        service's spec.
    :param own_services: the app's private backend(s).
    :param browser_services: sites reachable through an embedded WebView
        (empty for most apps).
    :param category: Play-store category label (cosmetic, used in reports).
    """

    package: str
    manifest: Manifest
    services: list[Service] = field(default_factory=list)
    own_services: list[Service] = field(default_factory=list)
    browser_services: list[Service] = field(default_factory=list)
    category: str = "entertainment"

    @property
    def ad_modules(self) -> list[Service]:
        """The embedded advertisement modules."""
        return [s for s in self.services if s.category == "ad"]

    def session_duration(self, rng: Random) -> float:
        """Seconds of one manual run: the paper used 5 to 15 minutes."""
        return rng.uniform(5 * 60.0, 15 * 60.0)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Application({self.package!r}, services={len(self.services)})"
