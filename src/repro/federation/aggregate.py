"""Cross-device aggregation: distinct-device support and the k-gate.

:class:`FederatedAggregator` turns accepted device reports into *signature
material* under two byzantine defenses:

- **per-device contribution caps** — one device may introduce at most
  ``contribution_cap`` distinct tokens, so a sybil or flooder cannot
  inflate the token universe no matter how fast it talks (counting a
  token *again* from the same device is free and changes nothing — support
  is a set of devices, not a tally of reports);
- **k-anonymity min-support** — a token becomes signature material only
  once seen on at least ``k`` distinct devices.  This is the PrivacyProxy
  insight inverted into a false-positive killer: identifiers that are
  *supposed* to differ per device (UDIDs, fabricated poison payloads, one
  user's idiosyncratic traffic) never reach ``k`` distinct reporters, so
  they can never contaminate the fleet's signatures.

Storage is pluggable behind :class:`SupportStore`, in the style of
:class:`~repro.supervision.checkpoint.CheckpointStore`:
:class:`InMemorySupportStore` for benches and tests,
:class:`DirSupportStore` for an append-only JSONL journal a fresh process
replays on construction — the cross-process aggregation-resume path.

Determinism contract: :meth:`FederatedAggregator.admitted_material` is a
pure function of the *set* of accepted contributions — exemplars are
selected by smallest ``(device_id, seq)`` and the result is sorted and
content-deduplicated — so report arrival order (which faults, retries,
and shedding perturb) can never change the signature material.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import FederationError
from repro.federation.report import DeviceReport
from repro.http.packet import HttpPacket
from repro.obs import NULL_OBS, Observability

import enum


class AcceptOutcome(enum.Enum):
    """What one accepted report contributed to the aggregate."""

    COUNTED = "counted"  # new (token, device) support pair
    REPEAT = "repeat"  # device already supports this token
    CAPPED = "capped"  # device at its distinct-token contribution cap


@dataclass(slots=True)
class _TokenSupport:
    """Everything known about one token across the fleet."""

    devices: set[str] = field(default_factory=set)
    #: device_id -> (seq, packet record) — first (lowest-seq) observation
    #: per device; bounded to the aggregator's exemplar budget by keeping
    #: the smallest (device_id, seq) pairs.
    exemplars: dict[str, tuple[int, dict[str, Any]]] = field(default_factory=dict)


class SupportStore:
    """Interface for per-token support state (see module docstring)."""

    def add(self, token: str, device_id: str, seq: int, packet_record: dict[str, Any]) -> bool:
        """Record one contribution; returns whether the pair was new."""
        raise NotImplementedError

    def support(self, token: str) -> int:
        """Distinct devices supporting ``token``."""
        raise NotImplementedError

    def tokens(self) -> list[str]:
        """All known tokens, sorted."""
        raise NotImplementedError

    def exemplars(self, token: str) -> list[tuple[str, int, dict[str, Any]]]:
        """Retained ``(device_id, seq, packet record)`` exemplars, sorted."""
        raise NotImplementedError

    def device_supports(self, device_id: str, token: str) -> bool:
        """Whether this device already supports ``token``."""
        raise NotImplementedError

    def device_token_count(self, device_id: str) -> int:
        """Distinct tokens this device has contributed to."""
        raise NotImplementedError


class InMemorySupportStore(SupportStore):
    """Dict-backed support state.

    :param exemplars_per_token: packet exemplars retained per token; the
        smallest ``(device_id, seq)`` pairs win, so retention is
        independent of arrival order.
    """

    def __init__(self, exemplars_per_token: int = 8) -> None:
        if exemplars_per_token < 1:
            raise FederationError("exemplars_per_token must be >= 1")
        self.exemplars_per_token = exemplars_per_token
        self._tokens: dict[str, _TokenSupport] = {}
        self._device_tokens: dict[str, set[str]] = {}

    def add(self, token: str, device_id: str, seq: int, packet_record: dict[str, Any]) -> bool:
        entry = self._tokens.get(token)
        if entry is None:
            entry = _TokenSupport()
            self._tokens[token] = entry
        new_pair = device_id not in entry.devices
        entry.devices.add(device_id)
        self._device_tokens.setdefault(device_id, set()).add(token)
        if new_pair:
            entry.exemplars[device_id] = (seq, packet_record)
            if len(entry.exemplars) > self.exemplars_per_token:
                # Evict the largest (device_id, seq) so retention stays the
                # order-independent "smallest pairs" set.
                largest = max(entry.exemplars, key=lambda d: (d, entry.exemplars[d][0]))
                del entry.exemplars[largest]
        return new_pair

    def support(self, token: str) -> int:
        entry = self._tokens.get(token)
        return len(entry.devices) if entry else 0

    def tokens(self) -> list[str]:
        return sorted(self._tokens)

    def exemplars(self, token: str) -> list[tuple[str, int, dict[str, Any]]]:
        entry = self._tokens.get(token)
        if entry is None:
            return []
        return sorted(
            (device_id, seq, record) for device_id, (seq, record) in entry.exemplars.items()
        )

    def device_supports(self, device_id: str, token: str) -> bool:
        return token in self._device_tokens.get(device_id, ())

    def device_token_count(self, device_id: str) -> int:
        return len(self._device_tokens.get(device_id, ()))


class DirSupportStore(InMemorySupportStore):
    """Support state persisted as an append-only JSONL journal.

    Each *new* ``(token, device)`` pair appends one line to
    ``<root>/support.jsonl``; a fresh process replays the journal on
    construction and continues where the old one died.  Repeat
    contributions are not journaled — replaying the journal reconstructs
    exactly the support sets and exemplars.

    :param root: journal directory (created if missing).
    :param exemplars_per_token: as for :class:`InMemorySupportStore`.
    """

    def __init__(self, root: str | Path, exemplars_per_token: int = 8) -> None:
        super().__init__(exemplars_per_token=exemplars_per_token)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._journal_path = self.root / "support.jsonl"
        self._replay()

    def _replay(self) -> None:
        if not self._journal_path.exists():
            return
        for line in self._journal_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                super().add(entry["token"], entry["device_id"], entry["seq"], entry["packet"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FederationError(f"corrupt support journal line: {line!r}") from exc

    def add(self, token: str, device_id: str, seq: int, packet_record: dict[str, Any]) -> bool:
        new_pair = super().add(token, device_id, seq, packet_record)
        if new_pair:
            line = json.dumps(
                {"token": token, "device_id": device_id, "seq": seq, "packet": packet_record},
                sort_keys=True,
            )
            with self._journal_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        return new_pair


class FederatedAggregator:
    """Distinct-device support counting behind the contribution cap.

    :param store: support storage (default: a fresh in-memory store).
    :param contribution_cap: distinct tokens one device may introduce.
    :param obs: optional observability bundle (``fed_agg_*`` counters).
    """

    def __init__(
        self,
        store: SupportStore | None = None,
        *,
        contribution_cap: int = 64,
        obs: Observability | None = None,
    ) -> None:
        if contribution_cap < 1:
            raise FederationError("contribution_cap must be >= 1")
        self.store = store or InMemorySupportStore()
        self.contribution_cap = contribution_cap
        self.obs = obs or NULL_OBS
        self.counts: dict[str, int] = {outcome.value: 0 for outcome in AcceptOutcome}

    def accept(self, report: DeviceReport) -> AcceptOutcome:
        """Fold one validated, deduplicated report into the aggregate."""
        if self.store.device_supports(report.device_id, report.token):
            outcome = AcceptOutcome.REPEAT
        elif self.store.device_token_count(report.device_id) >= self.contribution_cap:
            outcome = AcceptOutcome.CAPPED
        else:
            self.store.add(report.token, report.device_id, report.seq, report.packet.to_dict())
            outcome = AcceptOutcome.COUNTED
        self.counts[outcome.value] += 1
        self.obs.inc(f"fed_agg_{outcome.value}")
        return outcome

    # -- the k-anonymity gate ------------------------------------------------------

    def support(self, token: str) -> int:
        return self.store.support(token)

    def admitted_tokens(self, min_support: int) -> list[str]:
        """Tokens seen on at least ``min_support`` distinct devices, sorted."""
        if min_support < 1:
            raise FederationError("min_support must be >= 1")
        return [
            token for token in self.store.tokens() if self.store.support(token) >= min_support
        ]

    def admitted_material(self, min_support: int) -> list[HttpPacket]:
        """The signature material the k-gate admits.

        Exemplars of every admitted token, ordered by
        ``(token, device_id, seq)`` and deduplicated by canonical wire
        content — a pure function of the accepted-contribution set,
        independent of arrival order.
        """
        material: list[HttpPacket] = []
        seen: set[bytes] = set()
        for token in self.admitted_tokens(min_support):
            for __, ___, record in self.store.exemplars(token):
                packet = HttpPacket.from_dict(record)
                key = packet.wire_bytes()
                if key in seen:
                    continue
                seen.add(key)
                material.append(packet)
        return material

    def stats(self) -> dict[str, Any]:
        """Aggregate snapshot for reports and tests."""
        tokens = self.store.tokens()
        supports = [self.store.support(token) for token in tokens]
        return {
            "tokens": len(tokens),
            "contributions": dict(sorted(self.counts.items())),
            "max_support": max(supports, default=0),
            "mean_support": round(sum(supports) / len(supports), 3) if supports else 0.0,
        }
