"""Signature matching engines.

:class:`SignatureMatcher` is the exact conjunction matcher the paper
evaluates: a packet is flagged when *any* signature matches, and the
first firing signature is reported.  Signatures are indexed by
destination scope so a packet is only tested against the bucket of its
own registered domain and then the unscoped set, and every signature
carries a *filter literal* (its most selective token, chosen once in
``__init__``): a packet whose text does not even contain that literal is
never handed to the full left-to-right conjunction scan.  The same scan
serves single packets (:meth:`SignatureMatcher.match`) and the screening
gateway's micro-batches (:meth:`SignatureMatcher.match_batch`).

:class:`ProbabilisticMatcher` is the paper's future-work extension
(probabilistic signatures a la Polygraph/Hamsa): it scores the
length-weighted fraction of tokens present and flags above a threshold,
trading false positives for robustness to partial obfuscation.  It is
exercised by a dedicated ablation bench.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.http.packet import HttpPacket
from repro.signatures.conjunction import ConjunctionSignature


def filter_literal(signature: ConjunctionSignature) -> str:
    """The signature's most selective token: longest, leftmost on ties.

    A conjunction can only match text that contains *every* token, so
    requiring any single token's presence is a sound prefilter; the
    longest one rejects the most non-matching packets per substring test.
    """
    return max(signature.tokens, key=len)


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of screening one packet.

    :param matched: whether any signature fired.
    :param signature: the first firing signature (``None`` if clean).
    :param score: matcher-specific confidence (1.0 for exact matches).
    """

    matched: bool
    signature: ConjunctionSignature | None = None
    score: float = 0.0


class SignatureMatcher:
    """Exact conjunction matching over a signature set.

    :param signatures: the signature set to screen with.
    """

    def __init__(self, signatures: Sequence[ConjunctionSignature]) -> None:
        self.signatures = list(signatures)
        # Destination-scope buckets of (filter_literal, signature) pairs,
        # built exactly once, each in signature-list order.
        self._by_domain: dict[str, list[tuple[str, ConjunctionSignature]]] = defaultdict(list)
        self._unscoped: list[tuple[str, ConjunctionSignature]] = []
        for signature in self.signatures:
            entry = (filter_literal(signature), signature)
            if signature.scope_domain:
                self._by_domain[signature.scope_domain].append(entry)
            else:
                self._unscoped.append(entry)

    def __len__(self) -> int:
        return len(self.signatures)

    def candidates_for(self, packet: HttpPacket) -> list[ConjunctionSignature]:
        """Signatures whose scope admits this packet, in screening order.

        No literal prefilter: the probabilistic matcher scores partial
        coverage and must see every scope-admitted signature.
        """
        scoped = self._by_domain.get(packet.destination.registered_domain, [])
        return [signature for __, signature in (*scoped, *self._unscoped)]

    def match(self, packet: HttpPacket) -> MatchResult:
        """Screen one packet; first firing signature wins.

        The destination bucket is screened before the unscoped set, each
        in signature-list order, so a scoped signature beats an unscoped
        one listed earlier.
        """
        text = packet.canonical_text()
        scoped = self._by_domain.get(packet.destination.registered_domain, ())
        for bucket in (scoped, self._unscoped):
            for literal, signature in bucket:
                if literal in text and signature.matches_text(text):
                    return MatchResult(matched=True, signature=signature, score=1.0)
        return MatchResult(matched=False)

    def match_batch(self, packets: Sequence[HttpPacket]) -> list[MatchResult]:
        """Screen one gateway micro-batch, one result per packet, in batch order."""
        return [self.match(packet) for packet in packets]

    def match_full_scan(self, packet: HttpPacket) -> MatchResult:
        """Prefilter-free reference: test every scope-admitted signature.

        Exists to make the prefilter's soundness *checkable* rather than
        argued: the filter literal is one of the signature's own tokens,
        so its absence from the text already falsifies the conjunction —
        and because matchers are rebuilt from scratch on every reload,
        literals can never go stale against a regenerated set (a frozen
        signature's longest token is fixed at construction).  The
        adversarial equivalence regression asserts
        ``match(p) == match_full_scan(p)`` across mutated traffic and
        regenerated sets; production paths never call this.
        """
        text = packet.canonical_text()
        scoped = self._by_domain.get(packet.destination.registered_domain, [])
        for __, signature in (*scoped, *self._unscoped):
            if signature.matches_text(text):
                return MatchResult(matched=True, signature=signature, score=1.0)
        return MatchResult(matched=False)

    def is_sensitive(self, packet: HttpPacket) -> bool:
        return self.match(packet).matched


class ProbabilisticMatcher(SignatureMatcher):
    """Threshold matcher over length-weighted token coverage.

    A signature scores ``sum(len(token) for matched tokens, in order) /
    total_token_length``; the packet is flagged if any signature scores at
    or above ``threshold``.  ``threshold=1.0`` coincides with exact
    matching.

    :param signatures: the signature set.
    :param threshold: minimum coverage score to flag, in ``(0, 1]``.
    """

    def __init__(
        self, signatures: Sequence[ConjunctionSignature], threshold: float = 0.7
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        super().__init__(signatures)
        self.threshold = threshold

    def score(self, signature: ConjunctionSignature, text: str) -> float:
        """Length-weighted in-order token coverage for one signature."""
        if signature.total_token_length == 0:
            return 0.0
        position = 0
        matched_length = 0
        for token in signature.tokens:
            found = text.find(token, position)
            if found < 0:
                continue
            matched_length += len(token)
            position = found + len(token)
        return matched_length / signature.total_token_length

    def match(self, packet: HttpPacket) -> MatchResult:
        text = packet.canonical_text()
        best: tuple[float, ConjunctionSignature] | None = None
        for signature in self.candidates_for(packet):
            value = self.score(signature, text)
            if value >= self.threshold and (best is None or value > best[0]):
                best = (value, signature)
                if value >= 1.0:
                    break
        if best is None:
            return MatchResult(matched=False)
        return MatchResult(matched=True, signature=best[1], score=best[0])
