"""StoreBackend conformance: one behavioral contract, three backends.

Every test in `TestBackendContract` runs against SQLite, Memory and HTTP
(a live `repro store serve` keyspace over a memory backend) through the
raw `StoreBackend` protocol -- the layer `ResultStore`, the cluster claim
machinery and the keyspace server itself all build on.  If a backend
passes this suite, the layers above cannot tell it apart from the others.

The HTTP-only classes below cover what the protocol alone cannot express:
server-side TTL/eviction policy, the If-Match wire mapping of the
conditional writes, auth, and the future-schema refusal handshake.
"""

import threading
import time

import pytest

from repro.errors import StoreError
from repro.service.backends import (
    ROW_FIELDS,
    ROW_SCHEMA_VERSION,
    MemoryBackend,
    SQLiteBackend,
    backend_from_url,
)
from repro.service.client import HTTPBackend
from repro.service.keyspace import KeyspaceService
from repro.service.server import ServerThread

KEY = "a" * 64
OTHER = "b" * 64


def make_row(created_at=1000.0, label="job", **overrides):
    row = {field: None for field in ROW_FIELDS}
    row.update(
        fingerprint=overrides.get("fingerprint", KEY),
        created_at=created_at,
        label=label,
        nonempty=1,
        exhausted=1,
        elapsed_seconds=0.5,
        statistics="{}",
        job_spec="{}",
        cacheable=1,
    )
    row.update(overrides)
    return row


@pytest.fixture(params=["memory", "sqlite", "http"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    elif request.param == "sqlite":
        handle = SQLiteBackend(tmp_path / "conformance.db")
        yield handle
        handle.close()
    else:
        with ServerThread(service=KeyspaceService("memory:")) as server:
            handle = HTTPBackend(server.base_url)
            yield handle
            handle.close()


class TestBackendContract:
    def test_get_missing_returns_none(self, backend):
        assert backend.get(KEY) is None

    def test_put_then_get_round_trips_full_row(self, backend):
        row = make_row(wall_seconds=1.25, error=None)
        backend.put(KEY, row)
        stored = backend.get(KEY)
        assert stored is not None
        for field in ROW_FIELDS:
            assert stored[field] == row[field], field

    def test_certificate_column_round_trips_and_validates(self, backend):
        # Schema v5: a real encoded certificate survives every backend
        # byte-identically and still passes the engine-free validator.
        from repro import AllDatabasesTheory, EmptinessSolver
        from repro.certify import build_certificate, encode_certificate, validate_encoded
        from repro.library import triangle_system
        from repro.relational.csp import GRAPH_SCHEMA

        system = triangle_system()
        theory = AllDatabasesTheory(GRAPH_SCHEMA)
        result = EmptinessSolver(theory).check(system)
        encoded = encode_certificate(build_certificate(system, theory, result))
        backend.put(KEY, make_row(certificate=encoded))
        stored = backend.get(KEY)
        assert stored["certificate"] == encoded
        assert validate_encoded(stored["certificate"])["theory_kind"] == "all_databases"

    def test_put_is_last_write_wins(self, backend):
        backend.put(KEY, make_row(created_at=1.0, label="first"))
        backend.put(KEY, make_row(created_at=2.0, label="second"))
        assert backend.get(KEY)["label"] == "second"
        assert backend.count() == 1

    def test_put_if_absent_claims_once(self, backend):
        assert backend.put_if_absent(KEY, make_row(label="winner")) is True
        assert backend.put_if_absent(KEY, make_row(label="loser")) is False
        assert backend.get(KEY)["label"] == "winner"

    def test_put_if_absent_after_delete_succeeds(self, backend):
        backend.put(KEY, make_row())
        backend.delete(KEY)
        assert backend.put_if_absent(KEY, make_row(label="again")) is True

    def test_compare_and_put_swaps_only_on_matching_timestamp(self, backend):
        backend.put(KEY, make_row(created_at=10.0, label="old"))
        assert backend.compare_and_put(KEY, make_row(created_at=20.0, label="new"), 10.0)
        assert backend.get(KEY)["label"] == "new"
        # The timestamp moved on, so the old expectation no longer matches.
        assert not backend.compare_and_put(KEY, make_row(label="stale"), 10.0)
        assert backend.get(KEY)["label"] == "new"

    def test_compare_and_put_on_missing_key_fails(self, backend):
        assert backend.compare_and_put(KEY, make_row(), 10.0) is False
        assert backend.get(KEY) is None

    def test_delete_reports_whether_present(self, backend):
        backend.put(KEY, make_row())
        assert backend.delete(KEY) is True
        assert backend.delete(KEY) is False

    def test_keys_and_count(self, backend):
        backend.put(KEY, make_row())
        backend.put(OTHER, make_row(fingerprint=OTHER))
        assert sorted(backend.keys()) == sorted([KEY, OTHER])
        assert backend.count() == 2

    def test_clear_empties_and_reports(self, backend):
        backend.put(KEY, make_row())
        backend.put(OTHER, make_row(fingerprint=OTHER))
        assert backend.clear() == 2
        assert backend.count() == 0

    def test_oldest_keys_orders_by_created_at(self, backend):
        backend.put(KEY, make_row(created_at=2.0))
        backend.put(OTHER, make_row(fingerprint=OTHER, created_at=1.0))
        assert backend.oldest_keys(1) == [OTHER]
        assert backend.oldest_keys(10) == [OTHER, KEY]

    def test_expired_keys_uses_cutoff(self, backend):
        backend.put(KEY, make_row(created_at=5.0))
        backend.put(OTHER, make_row(fingerprint=OTHER, created_at=50.0))
        assert backend.expired_keys(10.0) == [KEY]
        assert backend.expired_keys(1.0) == []

    def test_rows_streams_everything(self, backend):
        backend.put(KEY, make_row())
        backend.put(OTHER, make_row(fingerprint=OTHER))
        fingerprints = sorted(row["fingerprint"] for row in backend.rows())
        assert fingerprints == sorted([KEY, OTHER])

    def test_checkpoint_is_safe(self, backend):
        backend.put(KEY, make_row())
        backend.checkpoint()
        assert backend.get(KEY) is not None

    def test_concurrent_writers_one_claim_wins(self, backend):
        """N racing put_if_absent calls: exactly one True, row intact."""
        outcomes = []
        barrier = threading.Barrier(8)

        def contend(label):
            barrier.wait()
            outcomes.append((backend.put_if_absent(KEY, make_row(label=label)), label))

        threads = [
            threading.Thread(target=contend, args=(f"writer-{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [label for won, label in outcomes if won]
        assert len(winners) == 1
        assert backend.get(KEY)["label"] == winners[0]

    def test_concurrent_plain_puts_converge(self, backend):
        """Racing unconditional puts: last write wins, store stays consistent."""

        def hammer(label):
            for _ in range(5):
                backend.put(KEY, make_row(label=label))

        threads = [threading.Thread(target=hammer, args=(f"w{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        row = backend.get(KEY)
        assert row is not None and row["label"].startswith("w")
        assert backend.count() == 1


class TestHTTPBackendSpecifics:
    def test_server_side_ttl_hides_expired_rows(self):
        with ServerThread(service=KeyspaceService("memory:", ttl_seconds=0.2)) as server:
            client = HTTPBackend(server.base_url)
            client.put(KEY, make_row(created_at=time.time()))
            assert client.get(KEY) is not None
            client.put(OTHER, make_row(fingerprint=OTHER, created_at=time.time() - 10.0))
            # Aged out relative to the server's TTL: invisible on read.
            assert client.get(OTHER) is None
            client.close()

    def test_per_row_expires_at_enforced_on_read(self):
        with ServerThread(service=KeyspaceService("memory:")) as server:
            client = HTTPBackend(server.base_url)
            client.put(KEY, make_row(expires_at=time.time() - 1.0))
            assert client.get(KEY) is None
            client.put(OTHER, make_row(fingerprint=OTHER, expires_at=time.time() + 60.0))
            assert client.get(OTHER) is not None
            client.close()

    def test_max_entries_evicts_oldest_on_write(self):
        with ServerThread(service=KeyspaceService("memory:", max_entries=2)) as server:
            client = HTTPBackend(server.base_url)
            old, mid, new = "c" * 64, "d" * 64, "e" * 64
            for key, stamp in ((old, 1.0), (mid, 2.0), (new, 3.0)):
                client.put(key, make_row(fingerprint=key, created_at=stamp))
            assert client.get(old) is None
            assert client.get(mid) is not None and client.get(new) is not None
            client.close()

    def test_expired_claim_is_reclaimable_via_put_if_absent(self):
        """An If-Match: * PUT reaps a dead claim instead of refusing."""
        with ServerThread(service=KeyspaceService("memory:")) as server:
            client = HTTPBackend(server.base_url)
            dead_claim = make_row(
                cacheable=0, error_code="in-flight", expires_at=time.time() - 1.0
            )
            client.put(KEY, dead_claim)
            assert client.put_if_absent(KEY, make_row(label="takeover")) is True
            assert client.get(KEY)["label"] == "takeover"
            client.close()

    def test_auth_token_round_trip_and_rejection(self):
        with ServerThread(service=KeyspaceService("memory:", auth_token="sesame")) as server:
            trusted = HTTPBackend(server.base_url, token="sesame")
            trusted.put(KEY, make_row())
            assert trusted.get(KEY) is not None
            trusted.close()
            for bad_token in (None, "wrong"):
                intruder = HTTPBackend(server.base_url, token=bad_token)
                with pytest.raises(StoreError):
                    intruder.get(KEY)
                intruder.close()

    def test_future_schema_refused_at_first_contact(self, monkeypatch):
        """A server speaking a newer row schema is refused, like SQLite files."""
        with ServerThread(service=KeyspaceService("memory:")) as server:
            original = KeyspaceService.discovery_document

            def newer(self):
                document = original(self)
                document["store"] = dict(document["store"], schema_version=ROW_SCHEMA_VERSION + 1)
                return document

            monkeypatch.setattr(KeyspaceService, "discovery_document", newer)
            client = HTTPBackend(server.base_url)
            with pytest.raises(StoreError, match="schema"):
                client.get(KEY)
            client.close()

    def test_backend_from_url_builds_http_backend(self):
        with ServerThread(service=KeyspaceService("memory:")) as server:
            handle = backend_from_url(server.base_url)
            assert isinstance(handle, HTTPBackend)
            assert handle.name == server.base_url
            handle.put(KEY, make_row())
            assert handle.get(KEY)["fingerprint"] == KEY
            handle.close()


class TestBackendFromUrl:
    def test_memory_specs(self):
        for spec in ("memory", "memory:", "memory://"):
            assert isinstance(backend_from_url(spec), MemoryBackend)

    def test_sqlite_specs(self, tmp_path):
        for spec in (f"sqlite:{tmp_path}/a.db", f"sqlite:///{tmp_path}/b.db", f"{tmp_path}/c.db"):
            handle = backend_from_url(spec)
            assert isinstance(handle, SQLiteBackend)
            handle.close()

    def test_sqlite_spec_without_path_is_an_error(self):
        with pytest.raises(StoreError):
            backend_from_url("sqlite:")
