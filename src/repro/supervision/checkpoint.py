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
  so a torn write or bit-flipped file degrades to recomputation, never to
  silently wrong downstream stages.

The store is in-memory by default; passing ``root`` persists blobs as
``<key>.ckpt`` files plus an append-only ``journal.jsonl``, which a fresh
process re-reads on construction — the cross-process resume path.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SupervisionError


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
    :param n_bytes: payload size, for health reporting.
    """

    stage: str
    key: str
    checksum: str
    n_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "key": self.key,
            "checksum": self.checksum,
            "n_bytes": self.n_bytes,
        }


class CheckpointStore:
    """Verified, journaled storage for stage outputs.

    :param root: optional directory for persistence.  When given, blobs
        land in ``<root>/<key>.ckpt`` and the journal in
        ``<root>/journal.jsonl``; an existing journal is re-read so a new
        process resumes where the old one died.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._blobs: dict[str, bytes] = {}
        self._index: dict[str, JournalEntry] = {}
        self.journal: list[JournalEntry] = []
        self.corrupt_detected = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._replay_journal()

    def _replay_journal(self) -> None:
        journal_path = self.root / "journal.jsonl"
        if not journal_path.exists():
            return
        for line in journal_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                entry = JournalEntry(
                    stage=record["stage"],
                    key=record["key"],
                    checksum=record["checksum"],
                    n_bytes=record["n_bytes"],
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise SupervisionError(f"corrupt checkpoint journal line: {line!r}") from exc
            self.journal.append(entry)
            self._index[entry.key] = entry

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    @property
    def stages(self) -> list[str]:
        """Journaled stage names, in completion order (duplicates kept)."""
        return [entry.stage for entry in self.journal]

    def save(self, key: str, stage: str, value: Any) -> JournalEntry:
        """Checkpoint one stage output and journal it."""
        payload = pickle.dumps(value)
        entry = JournalEntry(
            stage=stage,
            key=key,
            checksum=hashlib.sha256(payload).hexdigest(),
            n_bytes=len(payload),
        )
        self._blobs[key] = payload
        self._index[key] = entry
        self.journal.append(entry)
        if self.root is not None:
            (self.root / f"{key}.ckpt").write_bytes(payload)
            with (self.root / "journal.jsonl").open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
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
        payload = self._blobs.get(key)
        if payload is None and self.root is not None:
            blob_path = self.root / f"{key}.ckpt"
            if blob_path.exists():
                payload = blob_path.read_bytes()
        if payload is None:
            return None
        if hashlib.sha256(payload).hexdigest() != entry.checksum:
            self.corrupt_detected += 1
            del self._index[key]
            self._blobs.pop(key, None)
            return None
        return pickle.loads(payload)

    def clear(self) -> None:
        """Forget every checkpoint (in-memory state only; files are kept)."""
        self._blobs.clear()
        self._index.clear()
        self.journal.clear()
