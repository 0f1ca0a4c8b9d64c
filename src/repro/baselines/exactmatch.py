"""The exact-match (memorization) baseline.

The degenerate alternative to generalizing signatures: remember the
sampled sensitive packets byte-for-byte and flag only identical
recurrences.  Because ad requests carry fresh timestamps, sequence numbers
and session tokens, near-zero recall is expected — which is precisely why
the paper clusters and extracts *invariant* tokens instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.http.packet import HttpPacket


class ExactMatchDetector:
    """Flags packets whose inspected content was seen during training.

    :param training: the sampled sensitive packets to memorize.
    """

    def __init__(self, training: Sequence[HttpPacket]) -> None:
        self._known: set[str] = {packet.canonical_text() for packet in training}

    def is_sensitive(self, packet: HttpPacket) -> bool:
        return packet.canonical_text() in self._known

    def evaluate(
        self, suspicious: Sequence[HttpPacket], normal: Sequence[HttpPacket], n_sample: int
    ) -> tuple[float, float]:
        """``(TP, FP)`` using the paper's N-corrected equations."""
        detected = sum(1 for p in suspicious if self.is_sensitive(p))
        false_alarms = sum(1 for p in normal if self.is_sensitive(p))
        tp_denominator = len(suspicious) - n_sample
        fp_denominator = len(normal) - n_sample
        tp = max(0.0, (detected - n_sample) / tp_denominator) if tp_denominator > 0 else 0.0
        fp = false_alarms / fp_denominator if fp_denominator > 0 else 0.0
        return tp, fp
