"""Service persistence: repositories over in-memory and sqlite backends."""

import json
import sqlite3
import threading

import pytest

from repro.errors import ServiceError, SignatureStoreError
from repro.federation.report import DeviceReport, encode_report, token_for
from repro.service.repository import (
    MIGRATIONS,
    InMemoryReportRepository,
    InMemorySignatureRepository,
    SqliteReportRepository,
    SqliteSignatureRepository,
    SqliteStore,
    iter_rows,
    open_repositories,
)
from repro.service.server import SignatureService
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureStore


def sigs(n: int = 2):
    return [
        ConjunctionSignature(tokens=(f"udid=abc{i}", "seq="), scope_domain="admob.com")
        for i in range(n)
    ]


def envelope_doc(set_version: int, n: int = 2) -> str:
    return SignatureStore.dumps_envelope(sigs(n), set_version)


@pytest.fixture(params=["memory", "sqlite"])
def sig_repo(request, tmp_path):
    if request.param == "memory":
        yield InMemorySignatureRepository()
    else:
        store = SqliteStore(tmp_path / "repo.sqlite3")
        yield SqliteSignatureRepository(store)
        store.close()


@pytest.fixture(params=["memory", "sqlite"])
def report_repo(request, tmp_path):
    if request.param == "memory":
        yield InMemoryReportRepository()
    else:
        store = SqliteStore(tmp_path / "repo.sqlite3")
        yield SqliteReportRepository(store)
        store.close()


class TestSignatureRepository:
    def test_empty(self, sig_repo):
        assert sig_repo.latest_version() == 0
        assert sig_repo.latest() is None
        assert sig_repo.get(1) is None
        assert sig_repo.versions() == []
        assert sig_repo.corrupt_reads() == 0

    def test_store_roundtrip_is_verbatim(self, sig_repo):
        document = envelope_doc(1)
        stored = sig_repo.store(document)
        assert stored.set_version == 1
        found_document, found_envelope = sig_repo.latest()
        assert found_document == document  # byte-identical, not re-serialized
        assert found_envelope.checksum == stored.checksum
        assert sig_repo.get(1)[0] == document

    def test_versions_accumulate(self, sig_repo):
        sig_repo.store(envelope_doc(1))
        sig_repo.store(envelope_doc(3))
        assert sig_repo.versions() == [1, 3]
        assert sig_repo.latest_version() == 3
        assert sig_repo.latest()[1].set_version == 3
        assert sig_repo.get(1)[1].set_version == 1

    def test_stale_publish_rejected(self, sig_repo):
        sig_repo.store(envelope_doc(2))
        for stale in (1, 2):
            with pytest.raises(ServiceError, match="stale publish"):
                sig_repo.store(envelope_doc(stale))
        assert sig_repo.versions() == [2]  # nothing was persisted

    def test_corrupt_document_rejected_on_write(self, sig_repo):
        with pytest.raises(SignatureStoreError):
            sig_repo.store('{"not": "an envelope"}')
        assert sig_repo.latest() is None


class TestCorruptionDegradation:
    def corrupt_version(self, repo, version: int) -> None:
        if isinstance(repo, InMemorySignatureRepository):
            repo.corrupt(version, '{"garbage": true}')
        else:
            repo.store_backend.write(
                "UPDATE signature_envelopes SET document = ? WHERE set_version = ?",
                ('{"garbage": true}', version),
            )

    def test_degrades_to_last_known_good(self, sig_repo):
        good = envelope_doc(1)
        sig_repo.store(good)
        sig_repo.store(envelope_doc(2))
        self.corrupt_version(sig_repo, 2)
        document, envelope = sig_repo.latest()
        assert envelope.set_version == 1
        assert document == good
        assert sig_repo.corrupt_reads() == 1
        assert sig_repo.get(2) is None
        # the raw history still lists the corrupt version
        assert sig_repo.versions() == [1, 2]

    def test_all_corrupt_is_none(self, sig_repo):
        sig_repo.store(envelope_doc(1))
        self.corrupt_version(sig_repo, 1)
        assert sig_repo.latest() is None
        assert sig_repo.corrupt_reads() >= 1

    def test_checksum_tamper_detected(self, sig_repo):
        # flip payload bytes but keep valid JSON: the stored checksum no
        # longer matches, so read-time verification must refuse the row
        document = envelope_doc(1, n=3)
        sig_repo.store(document)
        tampered = document.replace("udid=abc0", "udid=evil0")
        if isinstance(sig_repo, InMemorySignatureRepository):
            sig_repo.corrupt(1, tampered)
        else:
            sig_repo.store_backend.write(
                "UPDATE signature_envelopes SET document = ? WHERE set_version = 1",
                (tampered,),
            )
        assert sig_repo.latest() is None
        assert sig_repo.corrupt_reads() == 1


class TestReportRepository:
    def test_add_and_count(self, report_repo):
        assert report_repo.add("dev-a", 1, "tok-1", {"v": 1}) is True
        assert report_repo.add("dev-a", 2, "tok-1", {"v": 2}) is True
        assert report_repo.count() == 2

    def test_redelivery_is_idempotent(self, report_repo):
        assert report_repo.add("dev-a", 1, "tok-1", {"v": 1}) is True
        assert report_repo.add("dev-a", 1, "tok-1", {"v": 1}) is False
        assert report_repo.count() == 1

    def test_token_support_counts_distinct_devices(self, report_repo):
        report_repo.add("dev-a", 1, "tok-1", {})
        report_repo.add("dev-a", 2, "tok-1", {})  # same device twice
        report_repo.add("dev-b", 1, "tok-1", {})
        report_repo.add("dev-b", 2, "tok-2", {})
        assert report_repo.token_support() == {"tok-1": 2, "tok-2": 1}


class TestSqliteStore:
    def test_memory_path_rejected(self):
        with pytest.raises(ServiceError, match="file path"):
            SqliteStore(":memory:")

    def test_migrations_apply_once(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        first = SqliteStore(path)
        assert first.migrations_applied == len(MIGRATIONS)
        assert first.schema_version() == len(MIGRATIONS)
        first.close()
        again = SqliteStore(path)  # re-open: nothing left to apply
        assert again.migrations_applied == 0
        assert again.schema_version() == len(MIGRATIONS)
        again.close()

    def test_wal_mode_pinned(self, tmp_path):
        store = SqliteStore(tmp_path / "svc.sqlite3")
        mode = store.connection().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        store = SqliteStore(path)
        repo = SqliteSignatureRepository(store)
        document = envelope_doc(1)
        repo.store(document)
        store.close()
        reopened = SqliteSignatureRepository(SqliteStore(path))
        assert reopened.latest()[0] == document
        reopened.store_backend.close()

    def test_open_repositories_wiring(self, tmp_path):
        memory = open_repositories(None)
        assert isinstance(memory[0], InMemorySignatureRepository)
        assert memory[2] is None
        durable = open_repositories(tmp_path / "svc.sqlite3")
        assert isinstance(durable[0], SqliteSignatureRepository)
        assert durable[2] is not None
        durable[2].close()


class TestConcurrency:
    def test_readers_proceed_during_writer_transaction(self, tmp_path):
        """WAL: thread-per-request readers never block behind the writer."""
        path = tmp_path / "svc.sqlite3"
        store = SqliteStore(path)
        repo = SqliteSignatureRepository(store)
        committed = envelope_doc(1)
        repo.store(committed)

        # open (and hold) an uncommitted writer transaction on this thread
        writer = store.connection()
        writer.execute("BEGIN IMMEDIATE")
        writer.execute(
            "INSERT INTO signature_envelopes (set_version, checksum, document) "
            "VALUES (?, ?, ?)",
            (2, "deadbeef", envelope_doc(2)),
        )

        seen: list = []
        errors: list = []

        def read() -> None:
            try:
                # each thread gets its own connection from the store
                seen.append(repo.latest())
            except sqlite3.Error as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        writer.rollback()

        assert not errors
        assert len(seen) == 8
        # snapshot isolation: every reader saw the committed version only
        assert all(found[0] == committed for found in seen)
        store.close()

    def test_concurrent_writers_keep_history_consistent(self, tmp_path):
        """Racing publishers: exactly one insert per version wins."""
        store = SqliteStore(tmp_path / "svc.sqlite3")
        repo = SqliteSignatureRepository(store)
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def publish(version: int) -> None:
            barrier.wait()
            try:
                repo.store(envelope_doc(version))
                result = "stored"
            except ServiceError:
                result = "rejected"
            with lock:
                outcomes.append(result)

        threads = [
            threading.Thread(target=publish, args=(version,))
            for version in (1, 1, 2, 2, 3, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(outcomes) == 6
        # history is a clean monotone prefix subset regardless of the race
        stored = repo.versions()
        assert stored == sorted(set(stored))
        assert set(stored) <= {1, 2, 3}
        assert repo.latest()[1].set_version == max(stored)
        assert outcomes.count("stored") == len(stored)
        store.close()


class TestReportTransaction:
    def test_one_commit_and_duplicates_fail_alone(self, tmp_path):
        store = SqliteStore(tmp_path / "svc.sqlite3")
        repo = SqliteReportRepository(store)
        statements: list[str] = []
        store.connection().set_trace_callback(statements.append)
        with repo.transaction():
            added = [repo.add("dev", seq, "tok", {"seq": seq}) for seq in (1, 2, 1, 3)]
        assert added == [True, True, False, True]
        assert [s for s in statements if s in ("COMMIT", "ROLLBACK")] == ["COMMIT"]
        assert sorted(row[1] for row in iter_rows(store, "device_reports")) == [1, 2, 3]
        store.close()

    def test_writes_before_an_error_are_committed(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        store = SqliteStore(path)
        repo = SqliteReportRepository(store)
        with pytest.raises(RuntimeError):
            with repo.transaction():
                repo.add("dev", 1, "tok", {})
                raise RuntimeError("mid-POST failure")
        store.close()
        reopened = SqliteStore(path)
        assert SqliteReportRepository(reopened).count() == 1
        reopened.close()

    def test_in_memory_transaction_is_a_no_op(self):
        repo = InMemoryReportRepository()
        with repo.transaction():
            assert repo.add("dev", 1, "tok", {})
            assert not repo.add("dev", 1, "tok", {})
        assert repo.count() == 1


class TestOneCommitPerPost:
    """``POST /v1/reports`` writes in one transaction with unchanged verdicts."""

    @staticmethod
    def records(small_corpus, n):
        packets = small_corpus.trace.packets
        return [
            encode_report(
                DeviceReport(
                    device_id="dev-a", seq=i + 1, token=token_for(packets[i]), packet=packets[i]
                )
            )
            for i in range(n)
        ]

    def test_mixed_post_keeps_every_verdict_and_row(self, tmp_path, small_corpus):
        db_path = str(tmp_path / "svc.sqlite3")
        records = self.records(small_corpus, 4)
        first = SignatureService([], db_path=db_path)
        assert first.ingest_reports({"reports": records[:2]})[1]["stored"] == 2
        first.store.close()

        # A restart forgets the replay ledger but not the stored rows, so
        # seq 1 is accepted again and finds its row already there.
        service = SignatureService([], db_path=db_path)
        post = [records[0], records[2], records[3], records[3], records[1]]
        status, reply = service.ingest_reports({"reports": post})
        assert status == 200
        assert reply == {
            "results": [
                {"status": "accepted", "retryable": False},
                {"status": "accepted", "retryable": False},
                {"status": "accepted", "retryable": False},
                {"status": "rejected_duplicate", "retryable": False, "reason": "duplicate"},
                {"status": "rejected_replay", "retryable": False, "reason": "replay"},
            ],
            "accepted": 3,
            "stored": 2,
        }
        rows = sorted(iter_rows(service.store, "device_reports"))
        assert rows == [
            ("dev-a", i + 1, record["token"], json.dumps(record, sort_keys=True))
            for i, record in enumerate(records)
        ]
        service.store.close()

    def test_publish_during_an_ingest_post_returns_201(self, tmp_path, small_corpus, monkeypatch):
        service = SignatureService(sigs(), db_path=str(tmp_path / "svc.sqlite3"))
        publishes: list = []
        add = SqliteReportRepository.add

        def add_beside_a_publish(repo, *args):
            if not publishes:
                thread = threading.Thread(
                    target=lambda: publishes.append(service.publish(envelope_doc(2)))
                )
                publishes.append(thread)
                thread.start()
                thread.join(timeout=0.2)  # the publish now overlaps this POST
            return add(repo, *args)

        monkeypatch.setattr(SqliteReportRepository, "add", add_beside_a_publish)
        status, reply = service.ingest_reports({"reports": self.records(small_corpus, 3)})
        publishes[0].join(timeout=30.0)
        assert status == 200 and reply["stored"] == 3
        assert publishes[1][0] == 201
        assert service.signatures.latest_version() == 2
        assert service.reports.count() == 3
        service.store.close()
