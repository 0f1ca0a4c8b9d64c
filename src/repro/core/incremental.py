"""Incremental signature-set maintenance (the deployment loop).

The paper's server (Fig 3a) is not a one-shot tool: it "collects
application traffic" continuously while devices keep fetching updated
signature sets.  Re-clustering everything from scratch on each batch is
wasteful and destabilizes published signatures, so the maintainer applies
the standard streaming split:

1. screen the new suspicious batch with the *current* set — packets an
   existing signature already matches carry no new information;
2. cluster only the residue and generate candidate signatures;
3. merge candidates into the set, deduplicating subsumed entries;
4. optionally retire signatures that stopped matching anything (module
   endpoint rotated away).

Incremental generation is deliberately conservative: a signature learned
from a small early cluster keeps matching its module, so later packets of
that module never reach the clustering step again and the signature never
broadens.  The maintainer therefore keeps a few *exemplars* per signature
and offers :meth:`IncrementalSignatureSet.consolidate` — re-cluster all
exemplars plus pending residue and regenerate the set — to be run at a
slow cadence (nightly), recovering one-shot quality at a fraction of the
cost of re-clustering the full history.  Consolidation keeps the newest
``max_consolidation_material`` packets and clusters one full distance
matrix over them, as the paper's server does for its sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.clustering.linkage import agglomerate
from repro.core.pipeline import PipelineConfig
from repro.distance.engine import DistanceEngine
from repro.eval.crossval import generate_from
from repro.http.packet import HttpPacket
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.generator import SignatureGenerator, deduplicate
from repro.signatures.matcher import SignatureMatcher


@dataclass(slots=True)
class UpdateReport:
    """What one maintenance round did."""

    batch_size: int
    already_covered: int
    residue: int
    added: list[ConjunctionSignature] = field(default_factory=list)
    retired: list[ConjunctionSignature] = field(default_factory=list)


class IncrementalSignatureSet:
    """A signature set maintained over successive traffic batches.

    :param signatures: the initial (possibly empty) set.
    :param config: distance/clustering/generation policy for residues.
    :param min_residue: residues smaller than this are carried over to the
        next batch instead of being clustered (clusters need mass).
    :param exemplars_per_signature: covered packets retained per signature
        as consolidation material.
    :param max_consolidation_material: ceiling on the packets retained for
        consolidation; past it, the oldest material is dropped first.
    """

    def __init__(
        self,
        signatures: Sequence[ConjunctionSignature] = (),
        config: PipelineConfig | None = None,
        *,
        min_residue: int = 6,
        exemplars_per_signature: int = 8,
        max_consolidation_material: int = 512,
    ) -> None:
        self.signatures: list[ConjunctionSignature] = list(signatures)
        self.config = config or PipelineConfig()
        self.min_residue = min_residue
        self.exemplars_per_signature = exemplars_per_signature
        self.max_consolidation_material = max_consolidation_material
        self._carryover: list[HttpPacket] = []
        self._match_counts: dict[ConjunctionSignature, int] = {s: 0 for s in self.signatures}
        self._exemplars: dict[ConjunctionSignature, list[HttpPacket]] = {}
        self._material: list[HttpPacket] = []

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def pending(self) -> int:
        """Suspicious packets waiting for enough mass to cluster."""
        return len(self._carryover)

    @property
    def consolidation_material(self) -> int:
        """Packets retained for consolidation."""
        return len(self._material)

    def matcher(self) -> SignatureMatcher:
        """A matcher over the current set."""
        return SignatureMatcher(self.signatures)

    def update(self, suspicious_batch: Sequence[HttpPacket]) -> UpdateReport:
        """One maintenance round over a new suspicious batch."""
        matcher = self.matcher()
        covered = 0
        residue: list[HttpPacket] = list(self._carryover)
        self._carryover = []
        for packet in suspicious_batch:
            result = matcher.match(packet)
            if result.matched:
                covered += 1
                self._match_counts[result.signature] = (
                    self._match_counts.get(result.signature, 0) + 1
                )
                exemplars = self._exemplars.setdefault(result.signature, [])
                if len(exemplars) < self.exemplars_per_signature:
                    exemplars.append(packet)
            else:
                residue.append(packet)

        report = UpdateReport(
            batch_size=len(suspicious_batch),
            already_covered=covered,
            residue=len(residue),
        )
        if len(residue) < self.min_residue:
            self._carryover = residue
            return report

        candidates = generate_from(residue, self.config)
        if candidates:
            before = set(self.signatures)
            merged = deduplicate(self.signatures + candidates)
            report.added = [s for s in merged if s not in before]
            self.signatures = merged
            for signature in report.added:
                self._match_counts.setdefault(signature, 0)
        return report

    def consolidate(self) -> int:
        """Regenerate the whole set from retained exemplars + residue.

        Re-clustering the exemplar pool lets clusters that were split
        across batches re-form, broadening value-anchored tokens the same
        way one-shot generation would.  Material survives across
        consolidations: the newest ``max_consolidation_material`` packets,
        in arrival order.  Returns the new set size.
        """
        fresh: list[HttpPacket] = list(self._carryover)
        for packets in self._exemplars.values():
            fresh.extend(packets)
        if len(self._material) + len(fresh) < self.min_residue:
            return len(self.signatures)
        self._material = (self._material + fresh)[-self.max_consolidation_material:]
        engine = DistanceEngine(self.config.distance, workers=self.config.workers)
        dendrogram = agglomerate(engine.matrix(self._material), self.config.linkage)
        regenerated = SignatureGenerator(self.config.generator).from_dendrogram(
            dendrogram, self._material
        )
        # Union-merge: regeneration broadens value/app-anchored signatures
        # (exemplars from different apps cluster together), while the old
        # set guarantees coverage never regresses.  Dedup drops whichever
        # side is subsumed.
        self.signatures = deduplicate(regenerated + self.signatures)
        self._carryover = []
        self._match_counts = {s: 0 for s in self.signatures}
        self._exemplars = {}
        return len(self.signatures)

    def retire_unmatched(self, *, min_matches: int = 1) -> list[ConjunctionSignature]:
        """Drop signatures that matched fewer than ``min_matches`` packets
        across all rounds since they were added (stale endpoints)."""
        retired = [
            s for s in self.signatures if self._match_counts.get(s, 0) < min_matches
        ]
        if retired:
            keep = set(self.signatures) - set(retired)
            self.signatures = [s for s in self.signatures if s in keep]
            for signature in retired:
                self._match_counts.pop(signature, None)
        return retired

    def match_counts(self) -> dict[ConjunctionSignature, int]:
        """How often each signature fired during updates (copy)."""
        return dict(self._match_counts)
