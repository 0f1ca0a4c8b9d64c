"""Signature-set quality analytics.

Operational questions a deployment of the paper's system needs answered
before shipping a signature set to devices:

- *coverage*: which leak types does the set actually catch, and which slip
  through (per Table III label)?
- *verbosity*: are any signatures close to the match-everything pathology
  the paper warns about (short total token mass, unscoped)?
- *expected noise*: what prompt rate will users see on clean traffic?

Everything here is measurement over labeled traffic — no new matching
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.http.packet import HttpPacket
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import SignatureMatcher


@dataclass(frozen=True, slots=True)
class CoverageRow:
    """Detection coverage for one leak label (Table III row)."""

    label: str
    total: int
    detected: int

    @property
    def recall(self) -> float:
        return self.detected / self.total if self.total else 0.0


def coverage_by_label(
    signatures: Sequence[ConjunctionSignature],
    suspicious: Sequence[HttpPacket],
    check: PayloadCheck,
) -> list[CoverageRow]:
    """Per-identifier recall of a signature set over labeled traffic.

    Exposes *which* leak types a sample-starved signature set misses —
    the mechanism behind the paper's FN curve falling as N grows.
    """
    matcher = SignatureMatcher(signatures)
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    for packet in suspicious:
        detected = matcher.is_sensitive(packet)
        for label in check.leak_labels(packet):
            totals[label] = totals.get(label, 0) + 1
            if detected:
                hits[label] = hits.get(label, 0) + 1
    rows = [
        CoverageRow(label=label, total=totals[label], detected=hits.get(label, 0))
        for label in totals
    ]
    rows.sort(key=lambda r: (-r.total, r.label))
    return rows


@dataclass(frozen=True, slots=True)
class VerbosityReport:
    """Pathology screening for one signature."""

    signature: ConjunctionSignature
    total_token_length: int
    scoped: bool
    risky: bool


def verbosity_report(
    signatures: Sequence[ConjunctionSignature],
    *,
    min_token_mass: int = 10,
) -> list[VerbosityReport]:
    """Flag signatures at risk of matching broadly.

    A signature is *risky* when it is unscoped **and** its combined token
    mass is below ``min_token_mass`` — short unscoped token sets are the
    "POST *"-style patterns the paper explicitly warns about.
    """
    reports = []
    for signature in signatures:
        scoped = bool(signature.scope_domain)
        mass = signature.total_token_length
        reports.append(
            VerbosityReport(
                signature=signature,
                total_token_length=mass,
                scoped=scoped,
                risky=(not scoped) and mass < min_token_mass,
            )
        )
    reports.sort(key=lambda r: r.total_token_length)
    return reports


def expected_prompt_rate(
    signatures: Sequence[ConjunctionSignature],
    normal: Sequence[HttpPacket],
) -> float:
    """Fraction of clean packets that would raise a user prompt.

    The paper's usability argument in one number: "if our system produces
    many false positives, users will be continually bothered."
    """
    if not normal:
        return 0.0
    matcher = SignatureMatcher(signatures)
    flagged = sum(1 for packet in normal if matcher.is_sensitive(packet))
    return flagged / len(normal)


def render_coverage(rows: Sequence[CoverageRow]) -> str:
    """Text table of per-label recall."""
    lines = ["Signature coverage by leak type", f"{'label':<18} {'total':>7} {'hit':>7} {'recall':>8}"]
    for row in rows:
        lines.append(f"{row.label:<18} {row.total:>7d} {row.detected:>7d} {100 * row.recall:>7.1f}%")
    return "\n".join(lines)
