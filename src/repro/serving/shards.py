"""Sharded, micro-batched exact matching — bit-identical to the scalar path.

The gateway screens requests in micro-batches against a signature set
partitioned into shards, so a reload swaps one immutable object and a
bigger set divides cleanly over workers.  Correctness contract: for every
packet, :meth:`ShardedMatcher.match_batch` returns *exactly* the
:class:`~repro.signatures.matcher.MatchResult` that a sequential
:meth:`SignatureMatcher.match <repro.signatures.matcher.SignatureMatcher.match>`
over the full set would — same flag, same winning signature, any shard
count, any batch size.

The subtlety is win order.  The scalar matcher tests a packet's
destination-scoped bucket before the unscoped set, each in signature-list
order; "first firing signature" is therefore *not* global list order.
Each signature is assigned a **priority** — ``(0, i)`` for the i-th scoped
signature, ``(1, j)`` for the j-th unscoped one — which totally orders any
packet's candidates identically to the scalar iteration (two signatures
scoped to different domains never compete).  Shards hold disjoint
signature subsets in ascending priority order; each shard reports its
lowest-priority hit and the merge takes the minimum, which is exactly the
scalar winner.

Shards share the prefilter idea of
:func:`repro.signatures.matcher.filter_literal`: a signature is only
handed to the full conjunction scan when its most selective token occurs
in the packet text at all.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Sequence

from repro.errors import SignatureError
from repro.http.packet import HttpPacket
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import MatchResult, filter_literal

#: A shard entry: (priority, filter literal, signature).
_Entry = tuple[tuple[int, int], str, ConjunctionSignature]


class MatcherShard:
    """One partition of the signature set, priority-ordered.

    :param entries: ``(priority, literal, signature)`` triples in ascending
        priority order (the constructor preserves, not sorts — the owner
        guarantees order).
    """

    def __init__(self, entries: Sequence[_Entry]) -> None:
        self.entries = list(entries)
        self._by_domain: dict[str, list[_Entry]] = defaultdict(list)
        self._unscoped: list[_Entry] = []
        for entry in self.entries:
            signature = entry[2]
            if signature.scope_domain:
                self._by_domain[signature.scope_domain].append(entry)
            else:
                self._unscoped.append(entry)

    def best_match(
        self, text: str, domain: str
    ) -> tuple[tuple[int, int], ConjunctionSignature] | None:
        """This shard's lowest-priority firing signature for one packet.

        Scoped priorities all precede unscoped ones, so a scoped hit
        short-circuits the unscoped scan — mirroring the scalar matcher's
        scoped-then-unscoped iteration.
        """
        for bucket in (self._by_domain.get(domain, ()), self._unscoped):
            for priority, literal, signature in bucket:
                if literal in text and signature.matches_text(text):
                    return priority, signature
        return None


class ShardedMatcher:
    """Exact conjunction matching over ``n_shards`` signature partitions.

    :param signatures: the full signature set, in publication order.
    :param n_shards: partition count (signatures are dealt round-robin,
        which keeps shard sizes within one of each other).
    :raises SignatureError: for a non-positive shard count.
    """

    def __init__(
        self, signatures: Sequence[ConjunctionSignature], n_shards: int = 1
    ) -> None:
        if n_shards < 1:
            raise SignatureError(f"n_shards must be >= 1, got {n_shards}")
        self.signatures = list(signatures)
        self.n_shards = n_shards
        scoped_index = unscoped_index = 0
        entries: list[_Entry] = []
        for signature in self.signatures:
            if signature.scope_domain:
                priority = (0, scoped_index)
                scoped_index += 1
            else:
                priority = (1, unscoped_index)
                unscoped_index += 1
            entries.append((priority, filter_literal(signature), signature))
        # Round-robin keeps each shard's entries in ascending priority:
        # entries[k::n] is a subsequence of an already priority-sorted list
        # within each scope class, and mixed-class order is restored by the
        # per-bucket split inside MatcherShard.
        self.shards = [MatcherShard(entries[k :: n_shards]) for k in range(n_shards)]
        #: ``id(signature) -> its sorted-key JSON``, the fragment a verdict
        #: reply quotes (:func:`repro.service.wire.encode_screen_reply`).
        #: Ids are unique while this matcher holds its signatures, and a
        #: reload builds a new matcher, so fragments live exactly as long
        #: as the generation they render.
        self.fragments = {
            id(signature): json.dumps(signature.to_dict(), sort_keys=True)
            for signature in self.signatures
        }

    def __len__(self) -> int:
        return len(self.signatures)

    def match(self, packet: HttpPacket) -> MatchResult:
        """Screen one packet across all shards; global priority minimum wins."""
        text = packet.canonical_text()
        domain = packet.destination.registered_domain
        best: tuple[tuple[int, int], ConjunctionSignature] | None = None
        for shard in self.shards:
            hit = shard.best_match(text, domain)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        if best is None:
            return MatchResult(matched=False)
        return MatchResult(matched=True, signature=best[1], score=1.0)

    def match_batch(self, packets: Sequence[HttpPacket]) -> list[MatchResult]:
        """Screen one micro-batch, one result per packet, in batch order."""
        return [self.match(packet) for packet in packets]
