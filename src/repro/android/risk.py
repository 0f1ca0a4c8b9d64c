"""Static permission-risk assessment (paper Section III-A).

Before any packet is captured, the manifest alone already tells a user
something: "727 applications (61%) require the INTERNET and some
combination of sensitive information permissions.  Those applications can
access sensitive resources on the device and send [them] using the
network feature, all without user confirmation."

This module turns that observation into a ranked assessment: each
application gets a risk level from its permission combination, and a
population can be summarized the way Table I does.  The flow-control
example uses it to decide which applications deserve a stricter default
policy before any signature has ever fired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.android.app import Application
from repro.android.permissions import (
    Manifest,
    PermissionCategory,
    is_internet_only,
)


class RiskLevel(enum.Enum):
    """Ordered static risk classes."""

    NONE = 0  # no network: nothing can leave the device
    LOW = 1  # network only: can talk, has nothing sensitive to say
    MODERATE = 2  # network + one sensitive category
    HIGH = 3  # network + two sensitive categories
    CRITICAL = 4  # network + all three sensitive categories

    def __lt__(self, other: "RiskLevel") -> bool:
        return self.value < other.value

    def __le__(self, other: "RiskLevel") -> bool:
        return self.value <= other.value


#: The sensitive categories of Section III-A.
_SENSITIVE = (
    PermissionCategory.LOCATION,
    PermissionCategory.PHONE_STATE,
    PermissionCategory.CONTACTS,
)


def risk_level(manifest: Manifest) -> RiskLevel:
    """The static risk class of one manifest."""
    if not manifest.has_internet:
        return RiskLevel.NONE
    sensitive_count = sum(1 for category in _SENSITIVE if manifest.holds_category(category))
    if sensitive_count == 0:
        return RiskLevel.LOW
    if sensitive_count == 1:
        return RiskLevel.MODERATE
    if sensitive_count == 2:
        return RiskLevel.HIGH
    return RiskLevel.CRITICAL


@dataclass(frozen=True, slots=True)
class RiskAssessment:
    """Risk verdict for one application."""

    package: str
    level: RiskLevel
    reasons: tuple[str, ...]


def assess(app: Application) -> RiskAssessment:
    """Assess one application with human-readable reasons."""
    manifest = app.manifest
    level = risk_level(manifest)
    reasons: list[str] = []
    if manifest.has_internet:
        reasons.append("can transmit over the network (INTERNET)")
    for category, label in (
        (PermissionCategory.PHONE_STATE, "can read IMEI/IMSI/SIM serial/carrier (READ_PHONE_STATE)"),
        (PermissionCategory.LOCATION, "can read location (ACCESS_*_LOCATION)"),
        (PermissionCategory.CONTACTS, "can read the address book (READ_CONTACTS)"),
    ):
        if manifest.holds_category(category):
            reasons.append(label)
    if app.ad_modules:
        names = ", ".join(sorted(s.name for s in app.ad_modules))
        reasons.append(f"embeds advertisement modules: {names}")
    if is_internet_only(manifest):
        reasons.append("requests no permission beyond INTERNET")
    return RiskAssessment(package=app.package, level=level, reasons=tuple(reasons))


def rank_population(apps: list[Application]) -> list[RiskAssessment]:
    """All assessments, most dangerous first (stable by package name)."""
    assessments = [assess(app) for app in apps]
    assessments.sort(key=lambda a: (-a.level.value, a.package))
    return assessments


def summarize(apps: list[Application]) -> dict[RiskLevel, int]:
    """Population histogram by risk level (the Table I view, condensed)."""
    histogram: dict[RiskLevel, int] = {level: 0 for level in RiskLevel}
    for app in apps:
        histogram[risk_level(app.manifest)] += 1
    return histogram
