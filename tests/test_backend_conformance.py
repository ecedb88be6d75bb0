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
from repro.service.client import HTTPBackend, ServiceClient, ServiceError
from repro.service.keyspace import KeyspaceService
from repro.service.server import ServerThread
from repro.service.store import CLAIM_ERROR_CODE, ResultStore
from repro.workloads import generate_jobs

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

    def test_get_many_aligns_rows_with_keys(self, backend):
        reaped = "c" * 64
        backend.put(KEY, make_row(label="kept"))
        backend.put(reaped, make_row(fingerprint=reaped))
        backend.delete(reaped)
        rows = backend.get_many([KEY, OTHER, reaped, KEY])
        assert [row and row["label"] for row in rows] == ["kept", None, None, "kept"]
        assert rows[0] == backend.get(KEY)
        assert backend.get_many([]) == []

    def test_batch_lookup_misses_expired_rows_and_reaps_them(self, backend):
        # Expiry is policy: the keyspace server applies it to an HTTP batch
        # lookup, the ResultStore to a local one; either way, one store
        # call, and an expired row reads as missing and is deleted.
        live, expired, missing = generate_jobs(3, seed=61)
        now = time.time()
        backend.put(live.fingerprint, make_row(fingerprint=live.fingerprint, created_at=now))
        backend.put(
            expired.fingerprint,
            make_row(fingerprint=expired.fingerprint, created_at=now, expires_at=now - 1.0),
        )
        store = ResultStore(backend=backend)
        served = store.cached_for_many([live, expired, missing])
        assert [result is not None for result in served] == [True, False, False]
        assert served[0].label == live.label and served[0].cached
        assert backend.get(expired.fingerprint) is None
        assert backend.count() == 1
        stats = store.stats.as_dict()
        assert (stats["gets"], stats["hits"], stats["misses"]) == (3, 1, 2)

    def test_verdict_put_without_artifacts_keeps_the_stored_ones(self, backend):
        backend.put(KEY, make_row(created_at=1.0, trace='{"spans": []}', certificate="CERT"))
        backend.put(KEY, make_row(created_at=2.0, label="rewrite"))
        row = backend.get(KEY)
        assert (row["label"], row["created_at"]) == ("rewrite", 2.0)
        assert (row["trace"], row["certificate"]) == ('{"spans": []}', "CERT")
        # A written artifact replaces the stored one; the missing one is kept.
        backend.put(KEY, make_row(created_at=3.0, trace='{"spans": [1]}'))
        row = backend.get(KEY)
        assert (row["trace"], row["certificate"]) == ('{"spans": [1]}', "CERT")

    @pytest.mark.parametrize("error_code", [CLAIM_ERROR_CODE, "worker-crashed"])
    def test_put_over_a_claim_or_error_row_carries_nothing(self, backend, error_code):
        # Real claim and error rows hold no artifacts; these do, so a carry
        # from them would show.
        backend.put(
            KEY,
            make_row(
                cacheable=0,
                error="node-1",
                error_code=error_code,
                trace='{"spans": []}',
                certificate="CERT",
            ),
        )
        backend.put(KEY, make_row(created_at=2.0))
        row = backend.get(KEY)
        assert row["error_code"] is None
        assert (row["trace"], row["certificate"]) == (None, None)

    def test_error_row_over_a_verdict_takes_no_artifacts(self, backend):
        backend.put(KEY, make_row(trace='{"spans": []}', certificate="CERT"))
        backend.put(
            KEY, make_row(created_at=2.0, cacheable=0, error="crash", error_code="worker-crashed")
        )
        row = backend.get(KEY)
        assert row["error_code"] == "worker-crashed"
        assert (row["trace"], row["certificate"]) == (None, None)

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

    def test_batch_lookup_is_one_op_with_expiry_per_row(self):
        service = KeyspaceService("memory:")
        with ServerThread(service=service) as server:
            client = HTTPBackend(server.base_url)
            client.put(KEY, make_row(created_at=time.time()))
            client.put(OTHER, make_row(fingerprint=OTHER, expires_at=time.time() - 1.0))
            before = self._ops_total(service)
            rows = client.get_many([OTHER, KEY, "c" * 64])
            assert [row and row["fingerprint"] for row in rows] == [None, KEY, None]
            assert self._ops_total(service) == before + 1
            # The expired row was reaped on the server, as a GET reaps it.
            assert service.stats_payload()["expired_total"] == 1
            assert client.count() == 1
            client.close()

    def test_batch_lookup_refuses_a_malformed_body(self):
        with ServerThread(service=KeyspaceService("memory:")) as server:
            with ServiceClient(server.base_url) as client:
                for payload in ({"keys": KEY}, {"keys": [1]}, [KEY]):
                    with pytest.raises(ServiceError) as refused:
                        client.request("POST", "/rows/get", payload)
                    assert (refused.value.status, refused.value.code) == (400, "invalid-spec")
                with pytest.raises(ServiceError) as wrong_method:
                    client.request("GET", "/rows/get")
                assert wrong_method.value.status == 405
                assert "POST /rows/get" in client.discovery()["routes"]

    @staticmethod
    def _ops_total(service):
        from repro.telemetry import parse_exposition

        samples = parse_exposition(service.registry.render()).samples
        return sum(
            value for (name, _), value in samples.items() if name == "repro_keyspace_ops_total"
        )

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

    def test_every_operation_of_a_refused_backend_raises_store_error(self):
        # Not only the row operations: the scans, clear, count, rows and
        # checkpoint surface a refusing keyspace as StoreError too.
        operations = [
            ("get", (KEY,)),
            ("get_many", ([KEY],)),
            ("put", (KEY, make_row())),
            ("put_if_absent", (KEY, make_row())),
            ("compare_and_put", (KEY, make_row(), 1000.0)),
            ("delete", (KEY,)),
            ("keys", ()),
            ("count", ()),
            ("clear", ()),
            ("oldest_keys", (5,)),
            ("expired_keys", (time.time(),)),
            ("rows", ()),
            ("checkpoint", ()),
        ]
        escaped = []
        with ServerThread(service=KeyspaceService("memory:", auth_token="sesame")) as server:
            intruder = HTTPBackend(server.base_url)
            for name, args in operations:
                try:
                    result = getattr(intruder, name)(*args)
                    if name == "rows":
                        list(result)
                except StoreError as error:
                    assert "401" in str(error), (name, error)
                except Exception as error:  # noqa: BLE001 - the finding under test
                    escaped.append(f"{name}: {type(error).__name__}")
                else:
                    escaped.append(f"{name}: no error")
            intruder.close()
        assert escaped == []

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
