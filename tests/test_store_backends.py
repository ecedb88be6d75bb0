"""Tests for the pluggable store backends: parity, TTL, eviction, migrations."""

import dataclasses
import json
import sqlite3
import time

import pytest

from repro.errors import StoreError
from repro.library import triangle_system
from repro.relational import GRAPH_SCHEMA, AllDatabasesTheory, HomTheory, clique_template
from repro.service import (
    JobResult,
    KeyspaceService,
    MemoryBackend,
    ResultStore,
    SQLiteBackend,
    VerificationJob,
    execute_job,
)
from repro.service.backends import SQLITE_SCHEMA_VERSION


def _decided_job(label="", max_configurations=20_000):
    job = VerificationJob(
        triangle_system(),
        AllDatabasesTheory(GRAPH_SCHEMA),
        label=label,
        max_configurations=max_configurations,
    )
    return job, execute_job(job)


def _distinct_jobs(count):
    """Jobs with distinct fingerprints (varying the configuration cap)."""
    pairs = []
    for index in range(count):
        pairs.append(_decided_job(label=f"job-{index}", max_configurations=10_000 + index))
    return pairs


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    else:
        backend = SQLiteBackend(tmp_path / "store.sqlite")
    with ResultStore(backend=backend) as result_store:
        yield result_store


class TestBackendParity:
    """Both shipped backends must behave identically through ResultStore."""

    def test_round_trip(self, store):
        job, result = _decided_job(label="round-trip")
        assert store.get(job.fingerprint) is None
        store.put(job, result)
        cached = store.get(job.fingerprint)
        assert cached is not None and cached.cached
        assert cached.nonempty == result.nonempty
        assert cached.exhausted == result.exhausted
        assert cached.statistics == result.statistics
        assert job.fingerprint in store
        assert len(store) == 1
        assert list(store.fingerprints()) == [job.fingerprint]

    def test_clear_and_export(self, store):
        job, result = _decided_job()
        store.put(job, result)
        export = store.export()
        assert export["count"] == 1
        assert export["backend"].split(":")[0] in ("memory", "sqlite")
        assert export["results"][0]["fingerprint"] == job.fingerprint
        assert store.clear() == 1
        assert len(store) == 0

    def test_overwrite_same_fingerprint(self, store):
        job, result = _decided_job()
        store.put(job, result)
        store.put(job, result)
        assert len(store) == 1

    def test_wall_seconds_and_trace_round_trip(self, store):
        # Schema v3 columns: measured wall clock and the opt-in solver trace
        # must survive storage on both backends.
        job = VerificationJob(
            triangle_system(),
            AllDatabasesTheory(GRAPH_SCHEMA),
            label="traced",
            trace=True,
        )
        result = execute_job(job)
        result.wall_seconds = 1.25
        assert result.trace is not None and result.trace["spans"]
        store.put(job, result)
        cached = store.get(job.fingerprint)
        assert cached.wall_seconds == pytest.approx(1.25)
        assert cached.trace == result.trace

    def test_certificate_round_trip(self, store):
        # Schema v5 column: the encoded witness certificate must survive
        # storage on both backends and still validate after the round trip.
        from repro.certify import validate_encoded

        job = VerificationJob(
            triangle_system(),
            AllDatabasesTheory(GRAPH_SCHEMA),
            label="certified",
            certificate=True,
        )
        result = execute_job(job)
        assert result.certificate
        store.put(job, result)
        cached = store.get(job.fingerprint)
        assert cached.certificate == result.certificate
        report = validate_encoded(cached.certificate)
        assert report["theory_kind"] == "all_databases"

    def test_uncertified_result_round_trips_with_null_certificate(self, store):
        job, result = _decided_job()
        assert result.certificate is None
        store.put(job, result)
        assert store.get(job.fingerprint).certificate is None

    def test_untraced_result_round_trips_with_null_trace(self, store):
        job, result = _decided_job(label="untraced")
        assert result.trace is None
        store.put(job, result)
        assert store.get(job.fingerprint).trace is None


class TestCachedFor:
    """The one rule for "a stored verdict serves this job"."""

    def test_missing_artifacts_do_not_serve_and_label_fills_in(self, store):
        job, result = _decided_job()
        assert result.nonempty and result.trace is None and result.certificate is None
        store.put(job, result)
        gets = store.stats.gets
        served = store.cached_for(dataclasses.replace(job, label="mine"))
        assert served.nonempty and served.cached and served.label == "mine"
        assert store.stats.gets == gets + 1
        assert store.cached_for(dataclasses.replace(job, trace=True)) is None
        assert store.cached_for(dataclasses.replace(job, certificate=True)) is None

    def test_empty_verdict_serves_a_certificate_request(self, store):
        # Only nonempty verdicts carry a witness certificate.
        job = VerificationJob(triangle_system(), HomTheory(clique_template(2)))
        result = execute_job(job)
        assert result.nonempty is False
        store.put(job, result)
        assert store.cached_for(dataclasses.replace(job, certificate=True)) is not None


class TestRetention:
    def test_ttl_expiry_reads_as_missing(self):
        job, result = _decided_job()
        with ResultStore.in_memory(ttl_seconds=0.15) as store:
            store.put(job, result)
            assert store.get(job.fingerprint) is not None
            time.sleep(0.2)
            assert store.get(job.fingerprint) is None
            assert job.fingerprint not in store
            # Lazily deleted on the expired read.
            assert len(store) == 0

    def test_purge_expired_sweeps_eagerly(self, tmp_path):
        pairs = _distinct_jobs(3)
        with ResultStore(tmp_path / "ttl.sqlite", ttl_seconds=0.15) as store:
            for job, result in pairs:
                store.put(job, result)
            assert store.purge_expired() == 0
            time.sleep(0.2)
            assert store.purge_expired() == 3
            assert len(store) == 0

    def test_len_fingerprints_export_exclude_expired(self):
        # Counts and exports must agree with get()'s expiry semantics even
        # when nothing has read the expired entry yet.
        job, result = _decided_job()
        with ResultStore.in_memory(ttl_seconds=0.15) as store:
            store.put(job, result)
            time.sleep(0.2)
            assert len(store) == 0
            assert list(store.fingerprints()) == []
            assert store.export()["count"] == 0

    def test_purge_without_ttl_is_noop(self):
        job, result = _decided_job()
        with ResultStore.in_memory() as store:
            store.put(job, result)
            assert store.purge_expired() == 0
            assert len(store) == 1

    def test_max_entries_evicts_oldest(self):
        pairs = _distinct_jobs(3)
        with ResultStore.in_memory(max_entries=2) as store:
            for job, result in pairs:
                store.put(job, result)
                time.sleep(0.01)  # distinct created_at stamps
            assert len(store) == 2
            assert pairs[0][0].fingerprint not in store
            assert pairs[1][0].fingerprint in store
            assert pairs[2][0].fingerprint in store

    def test_a_row_is_gone_at_its_expires_at_instant_everywhere(self, monkeypatch):
        # One expiry rule: at now == expires_at the row is absent, from a
        # local store and from the keyspace server alike.
        job, result = _decided_job()
        failed = dataclasses.replace(
            result, nonempty=None, error="worker-crashed: test", error_code="worker-crashed"
        )
        clock = [1_000_000.0]
        monkeypatch.setattr(time, "time", lambda: clock[0])
        store = ResultStore.in_memory()
        store.put_error(job, failed, ttl_seconds=5.0)
        row = store.backend.get(job.fingerprint)
        keyspace = KeyspaceService(MemoryBackend())
        keyspace.backend.put(job.fingerprint, row)
        path = f"/keys/{job.fingerprint}"

        clock[0] = row["expires_at"] - 0.001
        assert store.get(job.fingerprint, include_errors=True) is not None
        assert keyspace.handle("GET", path, None, {})[0] == 200
        clock[0] = row["expires_at"]
        assert store.get(job.fingerprint, include_errors=True) is None
        assert keyspace.handle("GET", path, None, {})[0] == 404
        keyspace.close()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ResultStore.in_memory(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            ResultStore.in_memory(max_entries=0)


_LEGACY_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    created_at REAL NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    nonempty INTEGER NOT NULL,
    exhausted INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    witness_size INTEGER,
    run_length INTEGER,
    statistics TEXT NOT NULL,
    job_spec TEXT NOT NULL
)
"""


class TestSQLiteMigrations:
    def test_fresh_database_gets_current_version(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "fresh.sqlite")
        assert backend.schema_version == SQLITE_SCHEMA_VERSION
        backend.close()

    def test_legacy_store_migrates_in_place(self, tmp_path):
        # A PR-2 era store: results table, no user_version, one verdict.
        path = tmp_path / "legacy.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(_LEGACY_SCHEMA)
        connection.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("f" * 64, time.time(), "legacy", 1, 1, 0.5, 3, 2, "{}", "{}"),
        )
        connection.commit()
        connection.close()

        backend = SQLiteBackend(path)
        try:
            assert backend.schema_version == SQLITE_SCHEMA_VERSION
            row = backend.get("f" * 64)
            assert row is not None and row["label"] == "legacy"
            # The v2 migration added the created_at index.
            names = {
                name
                for (name,) in sqlite3.connect(path).execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "idx_results_created_at" in names
        finally:
            backend.close()

    def test_v4_store_migrates_to_v5_with_null_certificates(self, tmp_path):
        # A PR-7..9 era store: full row shape minus the certificate column.
        path = tmp_path / "v4.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(
            """
            CREATE TABLE results (
                fingerprint TEXT PRIMARY KEY,
                created_at REAL NOT NULL,
                label TEXT NOT NULL DEFAULT '',
                nonempty INTEGER NOT NULL,
                exhausted INTEGER NOT NULL,
                elapsed_seconds REAL NOT NULL,
                witness_size INTEGER,
                run_length INTEGER,
                statistics TEXT NOT NULL,
                job_spec TEXT NOT NULL,
                wall_seconds REAL,
                trace TEXT,
                error TEXT,
                error_code TEXT,
                cacheable INTEGER NOT NULL DEFAULT 1,
                expires_at REAL
            )
            """
        )
        connection.execute(
            "INSERT INTO results (fingerprint, created_at, label, nonempty, "
            "exhausted, elapsed_seconds, statistics, job_spec) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            ("e" * 64, time.time(), "v4-row", 1, 1, 0.25, "{}", "{}"),
        )
        connection.execute("PRAGMA user_version = 4")
        connection.commit()
        connection.close()

        backend = SQLiteBackend(path)
        try:
            assert backend.schema_version == SQLITE_SCHEMA_VERSION
            row = backend.get("e" * 64)
            assert row is not None and row["label"] == "v4-row"
            # Pre-certificate rows upgrade in place with no certificate.
            assert row.get("certificate") is None
        finally:
            backend.close()
        # The migrated store serves the old verdict through the full API.
        with ResultStore(path) as store:
            cached = store.get("e" * 64)
            assert cached is not None and cached.certificate is None

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(_LEGACY_SCHEMA)
        connection.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION + 7}")
        connection.commit()
        connection.close()
        with pytest.raises(StoreError):
            SQLiteBackend(path)

    def test_reopen_keeps_version_and_data(self, tmp_path):
        path = tmp_path / "reopen.sqlite"
        job, result = _decided_job(label="persisted")
        with ResultStore(path) as store:
            store.put(job, result)
        backend = SQLiteBackend(path)
        try:
            assert backend.schema_version == SQLITE_SCHEMA_VERSION
            assert backend.count() == 1
        finally:
            backend.close()


class TestKeyspaceScans:
    """The eviction/TTL scan primitives every backend must honour."""

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_oldest_and_expired_keys(self, kind, tmp_path):
        backend = MemoryBackend() if kind == "memory" else SQLiteBackend(tmp_path / "scan.sqlite")
        try:
            base = 1000.0
            for index, key in enumerate(["kc", "ka", "kb"]):
                backend.put(
                    key,
                    {
                        "fingerprint": key,
                        "created_at": base + index,
                        "label": "",
                        "nonempty": 1,
                        "exhausted": 1,
                        "elapsed_seconds": 0.0,
                        "witness_size": None,
                        "run_length": None,
                        "statistics": "{}",
                        "job_spec": "{}",
                    },
                )
            assert backend.oldest_keys(2) == ["kc", "ka"]
            assert backend.expired_keys(base + 1.5) == sorted(["kc", "ka"])
            assert backend.keys() == ["ka", "kb", "kc"]
            assert backend.delete("ka") and not backend.delete("ka")
            rows = list(backend.rows())
            assert [row["fingerprint"] for row in rows] == ["kb", "kc"]
            assert all(json.loads(row["statistics"]) == {} for row in rows)
        finally:
            backend.close()


class TestStoreServiceIntegration:
    def test_hom_job_round_trips_through_sqlite(self, tmp_path):
        job = VerificationJob(triangle_system(), HomTheory(clique_template(2)), label="hom")
        result = execute_job(job)
        with ResultStore(tmp_path / "hom.sqlite") as store:
            store.put(job, result)
        with ResultStore(tmp_path / "hom.sqlite") as store:
            cached = store.get(job.fingerprint)
            assert cached is not None and cached.nonempty == result.nonempty


def _transient_failure(job):
    return JobResult(
        fingerprint=job.fingerprint,
        label=job.label,
        error="worker-crashed: worker process died mid-job (exit code 86)",
        error_code="worker-crashed",
    )


class TestErrorRows:
    """Schema v4: transient failures stored as non-cacheable, short-lived rows."""

    def test_put_rejects_errored_results(self, store):
        job, _ = _decided_job()
        with pytest.raises(ValueError):
            store.put(job, _transient_failure(job))

    def test_put_error_requires_an_error(self, store):
        job, result = _decided_job()
        with pytest.raises(ValueError):
            store.put_error(job, result)

    def test_error_rows_read_as_misses(self, store):
        job, _ = _decided_job(label="failing")
        store.put_error(job, _transient_failure(job))
        assert store.stats.error_puts == 1
        # Invisible to the warm-cache path: the job re-executes on resubmit.
        assert store.get(job.fingerprint) is None
        # But inspectable when asked for explicitly.
        recorded = store.get(job.fingerprint, include_errors=True)
        assert recorded is not None
        assert recorded.error_code == "worker-crashed"
        assert recorded.nonempty is None and not recorded.ok

    def test_error_rows_expire_on_their_own_ttl(self, store):
        job, _ = _decided_job()
        store.put_error(job, _transient_failure(job), ttl_seconds=0.05)
        time.sleep(0.1)
        assert store.get(job.fingerprint, include_errors=True) is None
        assert store.stats.ttl_expirations == 1

    def test_successful_put_overwrites_error_row(self, store):
        job, result = _decided_job()
        store.put_error(job, _transient_failure(job))
        store.put(job, result)
        cached = store.get(job.fingerprint)
        assert cached is not None and cached.ok
        assert cached.nonempty == result.nonempty

    def test_export_marks_error_rows(self, store):
        job, _ = _decided_job(label="failing")
        store.put_error(job, _transient_failure(job))
        export = store.export()
        assert export["schema_version"] == 4
        (entry,) = export["results"]
        assert entry["error_code"] == "worker-crashed"
        assert entry["cacheable"] is False


class TestDurability:
    """WAL journaling and the graceful-drain checkpoint hook."""

    def test_file_backed_store_runs_in_wal_mode(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "wal.sqlite")
        try:
            assert backend.wal_enabled
        finally:
            backend.close()

    def test_memory_store_skips_wal(self):
        backend = SQLiteBackend(":memory:")
        try:
            assert not backend.wal_enabled
        finally:
            backend.close()

    def test_checkpoint_flushes_wal_to_main_database(self, tmp_path):
        path = tmp_path / "ckpt.sqlite"
        store = ResultStore(path)
        try:
            for job, result in _distinct_jobs(3):
                store.put(job, result)
            store.checkpoint()
            # After a TRUNCATE checkpoint the WAL carries no frames: every
            # verdict is in the main database file, visible to a reader
            # that never touches the WAL.
            wal = path.with_name(path.name + "-wal")
            assert not wal.exists() or wal.stat().st_size == 0
        finally:
            store.close()
        with ResultStore(path) as reopened:
            assert len(reopened) == 3

    def test_checkpoint_is_a_noop_for_memory_backend(self):
        store = ResultStore(backend=MemoryBackend())
        store.checkpoint()  # must not raise

    def test_migrated_legacy_store_accepts_error_rows(self, tmp_path):
        path = tmp_path / "legacy-err.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(_LEGACY_SCHEMA)
        connection.commit()
        connection.close()
        with ResultStore(path) as store:
            job, _ = _decided_job()
            store.put_error(job, _transient_failure(job))
            assert store.get(job.fingerprint) is None
            recorded = store.get(job.fingerprint, include_errors=True)
            assert recorded is not None and recorded.error_code == "worker-crashed"
