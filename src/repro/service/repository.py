"""Persistence behind the signature service: repositories over two backends.

The service's durable state is deliberately tiny — published signature
envelopes and accepted fleet reports — but it must survive restarts and
tolerate the same corruption a device's transport does.  Both stores
hide behind small repository interfaces so the HTTP layer (and the
tests) never touch a backend directly:

- :class:`SignatureRepository` — append-only version history of published
  :class:`~repro.signatures.store.SignatureEnvelope` documents, and the
  one source a :class:`~repro.core.distribution.SignatureFetcher` reads.
  :meth:`~SignatureRepository.publish` stores a signature list as the
  next version.  Writes verify the envelope (checksum, monotonic
  ``set_version``) before anything is persisted, in one
  :meth:`~SignatureRepository.store` both backends share.  Reads compare
  the stored text with the last text that verified: the same text
  returns its envelope, any other text is **verified again**, and a row
  that fails degrades the read to the newest still-valid version — the same last-known-good posture as
  :class:`~repro.core.distribution.SignatureFetcher`, applied to disk
  instead of the network.  A failing text is never kept, so it fails,
  and counts, on every read.  The stored document text round-trips
  verbatim, so a fetch through the service returns byte-identical JSON
  to what was published.
- :class:`ReportRepository` — accepted fleet reports (post-ingest, so
  everything stored already passed validation and replay defense), keyed
  ``(device_id, seq)`` with per-token support counts for aggregation.

Two implementations each: in-memory (tests, ephemeral servers) and sqlite
(:class:`SqliteSignatureRepository` / :class:`SqliteReportRepository`)
sharing one :class:`SqliteStore` — WAL journal mode so readers never block
behind the writer, per-thread connections (the HTTP server is
thread-per-request), and a **versioned schema**: every migration is a row
in ``schema_migrations``, applied exactly once no matter how many times
the database is opened.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ServiceError, SignatureStoreError
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureEnvelope, SignatureStore

#: Schema migrations, applied in order; the index + 1 is the schema
#: version recorded in ``schema_migrations``.  Append-only — editing a
#: shipped migration is schema drift, add a new one instead.
MIGRATIONS: tuple[tuple[str, ...], ...] = (
    (
        """
        CREATE TABLE signature_envelopes (
            set_version INTEGER PRIMARY KEY,
            checksum    TEXT NOT NULL,
            document    TEXT NOT NULL
        )
        """,
        """
        CREATE TABLE device_reports (
            device_id TEXT NOT NULL,
            seq       INTEGER NOT NULL,
            token     TEXT NOT NULL,
            record    TEXT NOT NULL,
            PRIMARY KEY (device_id, seq)
        )
        """,
    ),
    ("CREATE INDEX idx_device_reports_token ON device_reports (token)",),
)


# ---------------------------------------------------------------------------
# interfaces
# ---------------------------------------------------------------------------


class SignatureRepository(ABC):
    """Durable, versioned storage of published signature envelopes.

    The version rule, verify-before-write and read-time verification
    live here, once; a backend supplies the insert and the stored texts.
    """

    def __init__(self) -> None:
        # Re-entrant: publish holds it across its latest_version read and store.
        self._lock = threading.RLock()
        self._verified = _VerifiedEnvelopes()

    def store(self, document: str) -> SignatureEnvelope:
        """Verify and persist one envelope document.

        :param document: the serialized format-2 envelope exactly as
            published (stored verbatim for byte-identical fetch).
        :raises SignatureStoreError: when the document fails envelope
            verification (bad JSON, checksum, count).
        :raises ServiceError: when ``set_version`` does not advance the
            stored history (publishes must be monotonic).
        """
        envelope = SignatureStore.loads_envelope(document)
        with self._lock:
            newest = self.latest_version()
            if envelope.set_version <= newest:
                raise ServiceError(
                    f"stale publish: set_version {envelope.set_version} <= stored {newest}"
                )
            self._insert(envelope, document)
            self._verified.keep(document, envelope)
        return envelope

    def publish(self, signatures: Sequence[ConjunctionSignature]) -> SignatureEnvelope:
        """Store ``signatures`` as the version after the newest stored one."""
        with self._lock:
            return self.store(
                SignatureStore.dumps_envelope(list(signatures), self.latest_version() + 1)
            )

    @abstractmethod
    def _insert(self, envelope: SignatureEnvelope, document: str) -> None:
        """Persist a verified document whose version is newer than any stored.

        :raises ServiceError: when another writer stored that version first.
        """

    @abstractmethod
    def _newest_first(self) -> Iterable[str]:
        """Every stored document text, newest version first."""

    @abstractmethod
    def latest_version(self) -> int:
        """Newest *stored* ``set_version`` (0 when empty); no verification."""

    def latest(self) -> tuple[str, SignatureEnvelope] | None:
        """The newest envelope that still verifies, with its document text.

        Corrupt rows (checksum mismatch on read) are skipped — the
        repository degrades to the last known-good version rather than
        serving poison, counting the skips in :meth:`corrupt_reads`.
        ``None`` when nothing valid is stored.
        """
        for document in self._newest_first():
            found = self._read(document)
            if found is not None:
                return found
        return None

    @abstractmethod
    def get(self, set_version: int) -> tuple[str, SignatureEnvelope] | None:
        """One stored version, verified on read; ``None`` if absent/corrupt."""

    def _read(self, document: str) -> tuple[str, SignatureEnvelope] | None:
        """A stored document with its envelope; ``None`` (counted) if it fails."""
        envelope = self._verified.read(document)
        return None if envelope is None else (document, envelope)

    @abstractmethod
    def versions(self) -> list[int]:
        """All stored versions, ascending (corrupt rows included)."""

    def corrupt_reads(self) -> int:
        """How many stored rows have failed read-time verification so far."""
        return self._verified.corrupt_reads()


class ReportRepository(ABC):
    """Durable storage of ingest-accepted fleet reports."""

    @abstractmethod
    def add(self, device_id: str, seq: int, token: str, record: dict[str, Any]) -> bool:
        """Persist one accepted report envelope.

        :returns: ``False`` when ``(device_id, seq)`` is already stored
            (idempotent re-delivery after an acked write), ``True`` on a
            fresh insert.
        """

    def transaction(self) -> AbstractContextManager[None]:
        """Make every :meth:`add` inside the block durable together, once.

        A duplicate still fails only its own :meth:`add`.  The default is a
        no-op for backends whose writes cost nothing to commit.
        """
        return nullcontext()

    @abstractmethod
    def count(self) -> int:
        """Total stored reports."""

    @abstractmethod
    def token_support(self) -> dict[str, int]:
        """Distinct-device support per token (the k-anonymity numerator)."""


class _VerifiedEnvelopes:
    """Read-time verification shared by both signature repositories.

    Keeps the last ``(document, envelope)`` pair that verified.  A read
    of the same text (``==``, under a microsecond on the bench's 6 KB
    envelope against about 0.2 ms to verify) returns the kept envelope;
    any other text is verified by
    :meth:`~repro.signatures.store.SignatureStore.loads_envelope` and kept
    if it passes.  A text that fails is never kept, so it fails, and
    counts as a corrupt read, every time it is read.  Keyed by the text,
    not by ``set_version``: a row rewritten at rest keeps its version.
    """

    def __init__(self) -> None:
        self._kept: tuple[str, SignatureEnvelope] | None = None
        self._corrupt_reads = 0
        self._count_lock = threading.Lock()

    def keep(self, document: str, envelope: SignatureEnvelope) -> None:
        """Remember a pair verified elsewhere (a store that just committed)."""
        self._kept = (document, envelope)

    def read(self, document: Any) -> SignatureEnvelope | None:
        """The envelope of one stored document; ``None`` (counted) if it fails."""
        kept = self._kept
        if kept is not None and kept[0] == document:
            return kept[1]
        try:
            envelope = SignatureStore.loads_envelope(document)
        except SignatureStoreError:
            with self._count_lock:
                self._corrupt_reads += 1
            return None
        self._kept = (document, envelope)
        return envelope

    def corrupt_reads(self) -> int:
        with self._count_lock:
            return self._corrupt_reads


# ---------------------------------------------------------------------------
# in-memory backend
# ---------------------------------------------------------------------------


class InMemorySignatureRepository(SignatureRepository):
    """Dict-backed history for ephemeral servers and tests."""

    def __init__(self) -> None:
        super().__init__()
        self._documents: dict[int, str] = {}

    def _insert(self, envelope: SignatureEnvelope, document: str) -> None:
        self._documents[envelope.set_version] = document

    def latest_version(self) -> int:
        with self._lock:
            return max(self._documents, default=0)

    def _newest_first(self) -> list[str]:
        with self._lock:
            return [self._documents[v] for v in sorted(self._documents, reverse=True)]

    def get(self, set_version: int) -> tuple[str, SignatureEnvelope] | None:
        with self._lock:
            document = self._documents.get(set_version)
        return None if document is None else self._read(document)

    def versions(self) -> list[int]:
        with self._lock:
            return sorted(self._documents)

    # test hook: simulate at-rest corruption of one stored version
    def corrupt(self, set_version: int, text: str) -> None:
        with self._lock:
            self._documents[set_version] = text


class InMemoryReportRepository(ReportRepository):
    """Dict-backed accepted-report store."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, int], tuple[str, dict[str, Any]]] = {}
        self._lock = threading.Lock()

    def add(self, device_id: str, seq: int, token: str, record: dict[str, Any]) -> bool:
        with self._lock:
            key = (device_id, seq)
            if key in self._records:
                return False
            self._records[key] = (token, dict(record))
            return True

    def count(self) -> int:
        with self._lock:
            return len(self._records)

    def token_support(self) -> dict[str, int]:
        with self._lock:
            devices_by_token: dict[str, set[str]] = {}
            for (device_id, __), (token, __record) in self._records.items():
                devices_by_token.setdefault(token, set()).add(device_id)
            return {token: len(devices) for token, devices in sorted(devices_by_token.items())}


# ---------------------------------------------------------------------------
# sqlite backend
# ---------------------------------------------------------------------------


class SqliteStore:
    """One sqlite database file shared by both repositories.

    Connections are **per thread** (sqlite3 objects must not hop threads)
    and lazily opened against the same path; WAL journal mode lets the
    thread-per-request readers proceed while a writer transaction is open.
    Opening the store applies any unapplied migrations exactly once —
    ``schema_migrations`` rows make re-opening idempotent.

    :param path: database file path.  ``:memory:`` is rejected — each
        thread would see a different empty database; use the in-memory
        repositories for ephemeral state instead.
    """

    def __init__(self, path: str | Path) -> None:
        if str(path) == ":memory:":
            raise ServiceError(
                "SqliteStore needs a file path (per-thread connections "
                "cannot share ':memory:'); use the InMemory repositories"
            )
        self.path = Path(path)
        self._local = threading.local()
        self._write_lock = threading.Lock()
        self.migrations_applied = self._migrate()

    def connection(self) -> sqlite3.Connection:
        """This thread's connection, opened (and WAL-pinned) on first use."""
        found = getattr(self._local, "connection", None)
        if found is None:
            found = sqlite3.connect(self.path, timeout=30.0)
            found.execute("PRAGMA journal_mode=WAL")
            found.execute("PRAGMA synchronous=NORMAL")
            self._local.connection = found
        return found

    def _migrate(self) -> int:
        """Apply unapplied migrations; return how many ran this open."""
        connection = self.connection()
        applied = 0
        with self._write_lock, connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS schema_migrations "
                "(version INTEGER PRIMARY KEY)"
            )
            done = {
                row[0]
                for row in connection.execute("SELECT version FROM schema_migrations")
            }
            for index, statements in enumerate(MIGRATIONS):
                version = index + 1
                if version in done:
                    continue
                for statement in statements:
                    connection.execute(statement)
                connection.execute(
                    "INSERT INTO schema_migrations (version) VALUES (?)", (version,)
                )
                applied += 1
        return applied

    def schema_version(self) -> int:
        """Highest applied migration version."""
        row = self.connection().execute(
            "SELECT MAX(version) FROM schema_migrations"
        ).fetchone()
        return row[0] or 0

    def write(self, statement: str, parameters: tuple[Any, ...]) -> sqlite3.Cursor:
        """One serialized write, in its own transaction unless inside :meth:`transaction`."""
        connection = self.connection()
        if getattr(self._local, "in_transaction", False):
            return connection.execute(statement, parameters)
        with self._write_lock, connection:
            return connection.execute(statement, parameters)

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Hold the writer lock and commit this thread's writes once, at the end.

        A failing statement (a duplicate key) undoes only itself; the writes
        before it stay and are committed with the rest, also when the block
        raises — as if each had been committed on its own.
        """
        connection = self.connection()
        with self._write_lock:
            self._local.in_transaction = True
            try:
                yield
            finally:
                self._local.in_transaction = False
                connection.commit()

    def close(self) -> None:
        """Close this thread's connection (other threads close their own)."""
        found = getattr(self._local, "connection", None)
        if found is not None:
            found.close()
            self._local.connection = None


class SqliteSignatureRepository(SignatureRepository):
    """Envelope history in ``signature_envelopes``, read through :class:`_VerifiedEnvelopes`."""

    def __init__(self, store: SqliteStore) -> None:
        super().__init__()
        self.store_backend = store

    def _insert(self, envelope: SignatureEnvelope, document: str) -> None:
        try:
            self.store_backend.write(
                "INSERT INTO signature_envelopes (set_version, checksum, document) "
                "VALUES (?, ?, ?)",
                (envelope.set_version, envelope.checksum, document),
            )
        except sqlite3.IntegrityError as exc:  # lost a publish race
            raise ServiceError(
                f"set_version {envelope.set_version} already stored"
            ) from exc

    def latest_version(self) -> int:
        row = self.store_backend.connection().execute(
            "SELECT MAX(set_version) FROM signature_envelopes"
        ).fetchone()
        return row[0] or 0

    def _newest_first(self) -> Iterator[str]:
        rows = self.store_backend.connection().execute(
            "SELECT document FROM signature_envelopes ORDER BY set_version DESC"
        )
        return (document for (document,) in rows)

    def get(self, set_version: int) -> tuple[str, SignatureEnvelope] | None:
        row = self.store_backend.connection().execute(
            "SELECT document FROM signature_envelopes WHERE set_version = ?",
            (set_version,),
        ).fetchone()
        return None if row is None else self._read(row[0])

    def versions(self) -> list[int]:
        rows = self.store_backend.connection().execute(
            "SELECT set_version FROM signature_envelopes ORDER BY set_version"
        )
        return [row[0] for row in rows]


class SqliteReportRepository(ReportRepository):
    """Accepted reports in ``device_reports``, idempotent on ``(device, seq)``."""

    def __init__(self, store: SqliteStore) -> None:
        self.store_backend = store

    def transaction(self) -> AbstractContextManager[None]:
        return self.store_backend.transaction()

    def add(self, device_id: str, seq: int, token: str, record: dict[str, Any]) -> bool:
        try:
            self.store_backend.write(
                "INSERT INTO device_reports (device_id, seq, token, record) "
                "VALUES (?, ?, ?, ?)",
                (device_id, seq, token, json.dumps(record, sort_keys=True)),
            )
        except sqlite3.IntegrityError:
            return False
        return True

    def count(self) -> int:
        row = self.store_backend.connection().execute(
            "SELECT COUNT(*) FROM device_reports"
        ).fetchone()
        return row[0]

    def token_support(self) -> dict[str, int]:
        rows = self.store_backend.connection().execute(
            "SELECT token, COUNT(DISTINCT device_id) FROM device_reports "
            "GROUP BY token ORDER BY token"
        )
        return {token: support for token, support in rows}


def open_repositories(
    db_path: str | Path | None,
) -> tuple[SignatureRepository, ReportRepository, SqliteStore | None]:
    """The service's standard repository wiring.

    :param db_path: sqlite file path for durable state, or ``None`` for
        the in-memory backend (state dies with the process).
    :returns: ``(signatures, reports, store)``; ``store`` is ``None`` for
        the in-memory backend.
    """
    if db_path is None:
        return InMemorySignatureRepository(), InMemoryReportRepository(), None
    store = SqliteStore(db_path)
    return SqliteSignatureRepository(store), SqliteReportRepository(store), store


def iter_rows(store: SqliteStore, table: str) -> Iterator[tuple[Any, ...]]:
    """Debug/test helper: every row of ``table`` on this thread's connection."""
    yield from store.connection().execute(f"SELECT * FROM {table}")  # noqa: S608
