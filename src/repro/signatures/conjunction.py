"""The conjunction signature model.

A signature asserts: *all tokens occur left-to-right and non-overlapping in
the packet's inspected content*, optionally scoped to one destination
registered domain.  The destination scope is the practical payoff of the
paper's destination distance — clusters are destination-coherent, so their
signatures can be pinned to the advertisement service they describe, which
is what keeps false positives low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SignatureError
from repro.http.packet import HttpPacket


@dataclass(frozen=True)
class ConjunctionSignature:
    """An ordered invariant-token signature.

    :param tokens: the invariant tokens, in required order of occurrence.
    :param scope_domain: registered domain the signature applies to, or
        ``""`` for an unscoped signature.
    :param source_cluster: provenance — size of the generating cluster.
    :param label: free-form annotation (e.g. dominant leak type), purely
        informational.
    """

    tokens: tuple[str, ...]
    scope_domain: str = ""
    source_cluster: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.tokens:
            raise SignatureError("a conjunction signature needs at least one token")
        if any(not token for token in self.tokens):
            raise SignatureError("signature tokens must be non-empty")

    # -- matching -------------------------------------------------------------

    def matches_text(self, text: str) -> bool:
        """Whether all tokens occur left-to-right, non-overlapping."""
        position = 0
        for token in self.tokens:
            found = text.find(token, position)
            if found < 0:
                return False
            position = found + len(token)
        return True

    def matches(self, packet: HttpPacket) -> bool:
        """Full match: destination scope (if any) plus token conjunction."""
        if self.scope_domain and packet.destination.registered_domain != self.scope_domain:
            return False
        return self.matches_text(packet.canonical_text())

    def token_hits(self, text: str) -> int:
        """How many tokens occur in order — partial credit for the
        probabilistic matcher."""
        position = 0
        hits = 0
        for token in self.tokens:
            found = text.find(token, position)
            if found < 0:
                break
            hits += 1
            position = found + len(token)
        return hits

    # -- introspection ---------------------------------------------------------

    @property
    def total_token_length(self) -> int:
        """Combined token length — a proxy for signature specificity."""
        return sum(len(token) for token in self.tokens)

    def describe(self) -> str:
        """One-line human-readable summary."""
        scope = self.scope_domain or "*"
        shown = " + ".join(repr(t if len(t) <= 24 else t[:21] + "...") for t in self.tokens[:4])
        extra = f" (+{len(self.tokens) - 4} tokens)" if len(self.tokens) > 4 else ""
        return f"[{scope}] {shown}{extra}"

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "tokens": list(self.tokens),
            "scope_domain": self.scope_domain,
            "source_cluster": self.source_cluster,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConjunctionSignature":
        try:
            tokens = tuple(data["tokens"])
        except KeyError as exc:
            raise SignatureError(f"signature record missing key {exc}") from exc
        return cls(
            tokens=tokens,
            scope_domain=data.get("scope_domain", ""),
            source_cluster=int(data.get("source_cluster", 0)),
            label=data.get("label", ""),
        )
