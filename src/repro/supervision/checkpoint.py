"""Content-addressed stage checkpointing for the detection pipeline.

A :class:`CheckpointStore` journals each pipeline stage's output under a
key derived from ``sha256(seed + config + stage)``
(:func:`checkpoint_key`), so a :class:`~repro.core.pipeline.DetectionPipeline`
run interrupted between stages resumes by running again: it replays the
completed prefix and recomputes only downstream stages.  Two properties
make this safe:

- **Keys are semantic.**  The key hashes the experiment seed, a stable
  fingerprint of the configuration and of the run's inputs (trace and
  labeler), and the stage name — never wall-clock time or process
  identity — so a checkpoint written by one run is exactly the checkpoint
  a same-seed restart looks for, and two different configurations or
  corpora can never collide silently.
- **Payloads are verified.**  Every blob is stored with the SHA-256 of its
  bytes; :meth:`CheckpointStore.load` re-hashes on read and treats a
  mismatch as *missing* (counted in :attr:`CheckpointStore.corrupt_detected`),
  so a bit-flipped blob degrades to recomputation, never to silently wrong
  downstream stages.

The store lives in memory: a restart inside one process (the supervisor's
resume path) finds it, a new process starts empty.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import Any


def checkpoint_key(seed: int, config: Any, stage: str) -> str:
    """The content address of one stage's checkpoint.

    :param seed: the experiment seed.
    :param config: a JSON-serializable configuration fingerprint
        (non-serializable leaves are stringified).
    :param stage: the pipeline stage name.
    """
    material = json.dumps(
        {"seed": seed, "config": config, "stage": stage}, sort_keys=True, default=str
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One completed stage, as recorded in the journal.

    :param stage: pipeline stage name.
    :param key: the stage's :func:`checkpoint_key`.
    :param checksum: SHA-256 of the pickled payload bytes.
    """

    stage: str
    key: str
    checksum: str


class CheckpointStore:
    """Verified, journaled in-memory storage for stage outputs."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._index: dict[str, JournalEntry] = {}
        self.journal: list[JournalEntry] = []
        self.corrupt_detected = 0

    @property
    def stages(self) -> list[str]:
        """Journaled stage names, in completion order (duplicates kept)."""
        return [entry.stage for entry in self.journal]

    def save(self, key: str, stage: str, value: Any) -> JournalEntry:
        """Checkpoint one stage output and journal it."""
        payload = pickle.dumps(value)
        entry = JournalEntry(stage=stage, key=key, checksum=hashlib.sha256(payload).hexdigest())
        self._blobs[key] = payload
        self._index[key] = entry
        self.journal.append(entry)
        return entry

    def load(self, key: str) -> Any | None:
        """The checkpointed value, or ``None`` when absent or corrupt.

        A payload whose bytes no longer hash to the journaled checksum is
        dropped from the index and reported as missing — the caller then
        recomputes the stage, which is always safe.
        """
        entry = self._index.get(key)
        if entry is None:
            return None
        payload = self._blobs[key]
        if hashlib.sha256(payload).hexdigest() != entry.checksum:
            self.corrupt_detected += 1
            del self._index[key]
            del self._blobs[key]
            return None
        return pickle.loads(payload)
