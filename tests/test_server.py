"""Tests for the HTTP transport and the job node on it (`repro serve`).

The server runs on a dedicated event-loop thread (`ServerThread`) and is
driven over real sockets -- urllib for one-shots, raw sockets for the
connection-layer tests, `ServiceClient` for keep-alive reuse -- so these
tests cover the wire format end to end: the versioned `/v1` surface,
store-first serving, in-flight fingerprint dedup, NDJSON batch progress,
keep-alive/pipelining, auth, load-shedding, the Prometheus exposition, and
every documented error path.

The transport's own cases (the `*Cases` classes) run on every node kind:
once on a job node through the `Test*` class that has always held them,
and once on a keyspace (`repro store serve`) through `TestKeyspaceTransport`.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.service import (
    ERROR_CODES,
    HTTPBackend,
    KeyspaceService,
    ResultStore,
    ServerThread,
    ServiceClient,
    ServiceError,
    VerificationService,
)
from repro.service import server as server_module
from repro.service.backends import SQLiteBackend
from repro.telemetry import (
    chrome_trace,
    counter_regressions,
    parse_exposition,
    validate_exposition,
)
from repro.service.client import jobs_to_wire, post_jobs
from repro.workloads import generate_jobs

KEY = "a" * 64


def _row(**fields):
    """A verdict row for the keyspace tests; every NOT NULL column set."""
    row = {
        "created_at": time.time(),
        "label": "job",
        "nonempty": 1,
        "exhausted": 1,
        "elapsed_seconds": 0.5,
        "statistics": "{}",
        "job_spec": "{}",
        "cacheable": 1,
    }
    row.update(fields)
    return row


def _request(base_url, path, data=None, method=None):
    """(status, decoded JSON body, headers) for one request; never raises."""
    request = urllib.request.Request(
        base_url + path,
        data=data,
        headers={"Content-Type": "application/json"} if data is not None else {},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _exchange(address, raw, timeout=10):
    """Send raw request bytes; everything the server answers until it closes."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(raw)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


def _job_node(**kwargs):
    return VerificationService(store=ResultStore.in_memory(), **kwargs)


def _keyspace_node(**kwargs):
    return KeyspaceService("memory:", **kwargs)


@pytest.fixture()
def server():
    with ServerThread(service=_job_node()) as handle:
        yield handle


@pytest.fixture()
def node(request):
    """A running node of the kind the test class builds (``make_service``)."""
    with ServerThread(service=request.cls.make_service()) as handle:
        yield handle


class TestEndpoints:
    def test_healthz(self, server):
        status, payload, _ = _request(server.base_url, "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["api_version"] == "v1"
        assert payload["store"] == "memory"

    def test_single_job_engine_then_store(self, server):
        job = generate_jobs(1, seed=3)[0]
        spec = json.dumps(job.to_spec()).encode()
        status, first, _ = _request(server.base_url, "/v1/jobs", spec)
        assert status == 200
        assert first["served_from"] == "engine"
        assert first["fingerprint"] == job.fingerprint
        assert first["result"]["nonempty"] in (True, False)

        status, second, _ = _request(server.base_url, "/v1/jobs", spec)
        assert status == 200
        assert second["served_from"] == "store"
        assert second["result"]["nonempty"] == first["result"]["nonempty"]
        assert second["result"]["cached"] is True

    def test_job_lookup_by_fingerprint(self, server):
        job = generate_jobs(1, seed=4)[0]
        _request(server.base_url, "/v1/jobs", json.dumps(job.to_spec()).encode())
        status, payload, _ = _request(server.base_url, f"/v1/jobs/{job.fingerprint}")
        assert status == 200
        assert payload["served_from"] == "store"
        status, _, _ = _request(server.base_url, "/v1/jobs/" + "0" * 64)
        assert status == 404

    def test_batch_cold_then_warm(self, server):
        jobs = generate_jobs(5, seed=11)
        cold = post_jobs(server.base_url, jobs)
        assert cold["jobs"] == 5
        assert cold["executed"] == 5 and cold["store_hits"] == 0
        assert all(result["served_from"] == "engine" for result in cold["results"])

        warm = post_jobs(server.base_url, jobs)
        assert warm["executed"] == 0 and warm["store_hits"] == 5
        assert all(result["served_from"] == "store" for result in warm["results"])
        assert [r["nonempty"] for r in cold["results"]] == [
            r["nonempty"] for r in warm["results"]
        ]

    def test_batch_status_and_stats(self, server):
        jobs = generate_jobs(3, seed=12)
        report = post_jobs(server.base_url, jobs)
        status, payload, _ = _request(server.base_url, f"/v1/batch/{report['batch_id']}")
        assert status == 200
        assert payload["completed"] is True
        assert payload["report"]["executed"] == 3

        status, stats, _ = _request(server.base_url, "/v1/stats")
        assert status == 200
        assert stats["executed"] == 3
        assert stats["store_size"] == 3
        # The new observability blocks are always present.
        assert stats["queue"]["depth"] == 0 and stats["queue"]["shed_total"] == 0
        assert stats["connections"]["open"] >= 1
        submit = stats["latency"]["jobs_submit"]
        assert submit["count"] == 1
        assert submit["p50_ms"] <= submit["p95_ms"] <= submit["p99_ms"]

    def test_client_fingerprints_verified_end_to_end(self, server):
        jobs = generate_jobs(2, seed=13)
        report = post_jobs(server.base_url, jobs, include_fingerprints=True)
        assert report["executed"] == 2
        wire = jobs_to_wire(jobs)
        assert all("fingerprint" in spec for spec in wire["jobs"])


class ConnectionCases:
    """The transport's connection layer, on every node kind."""

    def test_pipelined_requests_on_one_socket(self, node):
        host, port = node.address
        request = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request * 3)  # all three before reading any response
            deadline = time.time() + 10
            data = b""
            while data.count(b"HTTP/1.1 200") < 3 and time.time() < deadline:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.count(b"HTTP/1.1 200") == 3
        assert data.count(b"Connection: keep-alive") == 3
        assert node.service.stats.connections_total == 1

    def test_http_1_0_closes_by_default(self, node):
        data = _exchange(node.address, b"GET /v1/healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        assert b"HTTP/1.1 200" in data
        assert b"Connection: close" in data

    def test_connection_cap_answers_503(self):
        service = self.make_service()
        service._max_connections = 1
        with ServerThread(service=service) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as first:
                # Occupy the single slot with a real keep-alive request.
                first.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                while b"\r\n\r\n" not in first.recv(65536):
                    pass
                status, payload, headers = _request(server.base_url, "/v1/healthz")
                assert status == 503
                assert payload["error"]["code"] == "too-many-connections"
                assert headers.get("Retry-After") is not None
            assert service.stats.connections_refused >= 1

    def test_last_response_on_a_connection_says_close(self, node, monkeypatch):
        # RFC 9112 section 9.6: the response that uses up the connection's
        # request budget announces the close.
        monkeypatch.setattr(server_module, "MAX_REQUESTS_PER_CONNECTION", 3)
        host, port = node.address
        connection = HTTPConnection(host, port, timeout=10)
        try:
            for number in (1, 2, 3):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                expected = "close" if number == 3 else "keep-alive"
                assert response.getheader("Connection") == expected
                assert response.will_close is (number == 3)
        finally:
            connection.close()
        assert node.service.stats.connections_total == 1

    def test_negative_content_length_is_400(self, node):
        # The transport refuses the length before routing, so every node
        # kind answers the keyspace's write path the same way.
        data = _exchange(
            node.address,
            f"PUT /v1/keys/{KEY} HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n".encode(),
        )
        assert data.startswith(b"HTTP/1.1 400")
        assert b'"bad-request"' in data

    def test_oversized_body_is_413(self, node, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        body = json.dumps(_row(label="x" * 100)).encode()
        head = f"PUT /v1/keys/{KEY} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
        data = _exchange(node.address, head.encode() + body)
        assert data.startswith(b"HTTP/1.1 413")
        assert b'"payload-too-large"' in data


class TestConnectionLayer(ConnectionCases):
    make_service = staticmethod(_job_node)

    def test_service_client_reuses_one_connection(self, server):
        with ServiceClient(server.base_url) as client:
            client.healthz()
            jobs = generate_jobs(2, seed=41)
            client.submit_batch(jobs)
            client.submit_batch(jobs)
            client.stats()
        # Four requests, one TCP connection (plus the fixture's baseline).
        assert server.service.stats.connections_total == 1

    def test_close_per_request_opens_n_connections(self, server):
        with ServiceClient(server.base_url, keep_alive=False) as client:
            for _ in range(3):
                client.healthz()
        assert server.service.stats.connections_total == 3


class TestLoadShedding:
    def test_shed_everything_mode(self):
        service = VerificationService(store=ResultStore.in_memory(), max_pending=0)
        with ServerThread(service=service) as server:
            spec = json.dumps(generate_jobs(1, seed=43)[0].to_spec()).encode()
            status, payload, headers = _request(server.base_url, "/v1/jobs", spec)
            assert status == 429
            assert payload["error"]["code"] == "overloaded"
            assert payload["error"]["detail"]["queue_limit"] == 0
            assert headers["Retry-After"].isdigit()
            # Reads are never shed; the gate guards work-bearing requests only.
            status, stats, _ = _request(server.base_url, "/v1/stats")
            assert status == 200
            assert stats["queue"]["shed_total"] == 1

    def test_client_retries_until_admitted(self):
        # max_pending=1 with a slow engine: the second concurrent batch is
        # shed at first, and the client's Retry-After backoff gets it
        # through once the first completes.
        service = VerificationService(
            store=ResultStore.in_memory(), max_pending=1, execute_delay=0.3, retry_after=1
        )
        with ServerThread(service=service) as server:
            results = {}

            def submit(tag, seed, delay):
                time.sleep(delay)
                with ServiceClient(server.base_url, retries=5) as client:
                    results[tag] = client.submit_batch(generate_jobs(1, seed=seed))

            threads = [
                threading.Thread(target=submit, args=("a", 51, 0.0)),
                threading.Thread(target=submit, args=("b", 52, 0.1)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results["a"]["executed"] == 1
            assert results["b"]["executed"] == 1
            assert service.stats.shed >= 1

    def test_shed_without_retries_raises_service_error(self):
        service = VerificationService(store=ResultStore.in_memory(), max_pending=0)
        with ServerThread(service=service) as server:
            with ServiceClient(server.base_url, retries=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_batch(generate_jobs(1, seed=44))
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"


class AuthCases:
    """The transport's token auth, on every node kind."""

    @pytest.fixture()
    def auth_server(self):
        with ServerThread(service=self.make_service(auth_token="open-sesame")) as handle:
            yield handle

    def test_healthz_stays_open(self, auth_server):
        status, payload, _ = _request(auth_server.base_url, "/v1/healthz")
        assert status == 200
        assert payload["auth"] is True

    def test_missing_token_is_401(self, auth_server):
        status, payload, headers = _request(auth_server.base_url, "/v1/stats")
        assert status == 401
        assert payload["error"]["code"] == "auth-required"
        assert "Bearer" in headers["WWW-Authenticate"]

    def test_wrong_token_is_403(self, auth_server):
        with ServiceClient(auth_server.base_url, auth_token="wrong", retries=0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
        assert excinfo.value.status == 403
        assert excinfo.value.code == "auth-invalid"
        assert auth_server.service.stats.auth_rejected == 1

    def test_bearer_and_header_tokens_accepted(self, auth_server):
        with ServiceClient(auth_server.base_url, auth_token="open-sesame") as client:
            assert client.stats()["role"] == auth_server.service.role
        request = urllib.request.Request(
            auth_server.base_url + "/v1/stats", headers={"X-Auth-Token": "open-sesame"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200

    def test_non_ascii_token_is_403(self, auth_server):
        raw = "GET /v1/stats HTTP/1.1\r\nHost: t\r\nX-Auth-Token: café\r\nConnection: close\r\n"
        data = _exchange(auth_server.address, (raw + "\r\n").encode("utf-8"))
        assert data.startswith(b"HTTP/1.1 403")
        assert b'"auth-invalid"' in data
        assert auth_server.service.stats.auth_rejected == 1


class TestAuth(AuthCases):
    make_service = staticmethod(_job_node)


class TestMetrics:
    def test_prometheus_exposition(self, server):
        post_jobs(server.base_url, generate_jobs(2, seed=46))
        request = urllib.request.Request(server.base_url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            text = response.read().decode()
        lines = text.splitlines()
        # Every sample line is preceded by HELP/TYPE metadata for its family.
        families = {
            line.split()[2]: line.split()[3]
            for line in lines
            if line.startswith("# TYPE")
        }
        assert families["repro_jobs_executed_total"] == "counter"
        assert families["repro_queue_depth"] == "gauge"
        assert families["repro_request_latency_seconds"] == "summary"
        assert "repro_jobs_executed_total 2" in text
        assert 'repro_request_latency_seconds{endpoint="jobs_submit",quantile="0.99"}' in text
        assert 'repro_request_latency_seconds_count{endpoint="jobs_submit"} 1' in text
        # No trailing garbage: every non-comment line is `name[{labels}] value`.
        for line in lines:
            if line.startswith("#") or not line:
                continue
            assert len(line.rsplit(" ", 1)) == 2


class TestVersioning:
    @staticmethod
    def _assert_404_naming_v1(base_url, path, data=None):
        # The pre-/v1 aliases were removed in 2.0: each old path is a 404
        # whose detail names its /v1 successor.
        status, payload, headers = _request(base_url, path, data)
        assert status == 404
        assert payload["error"]["code"] == "not-found"
        assert f"/v1{path}" in payload["error"]["detail"]
        assert "Deprecation" not in headers

    def test_unversioned_get_paths_are_404_naming_the_v1_path(self, server):
        for path in ("/healthz", "/stats"):
            self._assert_404_naming_v1(server.base_url, path)

    def test_unversioned_jobs_post_is_404_and_runs_nothing(self, server):
        spec = json.dumps(generate_jobs(1, seed=47)[0].to_spec()).encode()
        self._assert_404_naming_v1(server.base_url, "/jobs", spec)
        assert server.service.stats.jobs_received == 0

    def test_v1_routes_carry_no_deprecation(self, server):
        _, _, headers = _request(server.base_url, "/v1/healthz")
        assert "Deprecation" not in headers

    def test_unknown_version_is_404_with_hint(self, server):
        status, payload, _ = _request(server.base_url, "/v2/healthz")
        assert status == 404
        assert payload["error"]["code"] == "unknown-version"
        assert "/v1/healthz" in payload["error"]["detail"]


class TestInFlightDedup:
    def test_concurrent_duplicate_batches_share_one_execution(self):
        service = VerificationService(
            store=ResultStore.in_memory(), workers=1, execute_delay=0.4
        )
        with ServerThread(service=service) as server:
            jobs = generate_jobs(4, seed=7)
            responses = {}

            def post(tag, delay):
                time.sleep(delay)
                responses[tag] = post_jobs(server.base_url, jobs)

            threads = [
                threading.Thread(target=post, args=("first", 0.0)),
                threading.Thread(target=post, args=("second", 0.15)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            first, second = responses["first"], responses["second"]
            # The invariant the front door exists for: each unique
            # fingerprint runs the engine at most once, server-wide.
            assert first["executed"] + second["executed"] == 4
            assert second["inflight_joins"] == 4 and second["executed"] == 0
            assert [r["nonempty"] for r in first["results"]] == [
                r["nonempty"] for r in second["results"]
            ]
            assert service.stats.executed == 4
            assert service.stats.inflight_joins == 4

    def test_duplicates_within_one_batch_execute_once(self, server):
        job = generate_jobs(1, seed=21)[0]
        report = post_jobs(server.base_url, [job, job, job])
        assert report["executed"] == 1
        assert report["batch_dedup"] == 2
        served = sorted(result["served_from"] for result in report["results"])
        assert served == ["batch-dedup", "batch-dedup", "engine"]
        verdicts = {result["nonempty"] for result in report["results"]}
        assert len(verdicts) == 1


class TestBatchEvents:
    def test_events_replay_after_completion(self, server):
        jobs = generate_jobs(3, seed=15)
        report = post_jobs(server.base_url, jobs)
        with urllib.request.urlopen(
            f"{server.base_url}/v1/batch/{report['batch_id']}/events", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().decode().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "batch_accepted"
        assert kinds[-1] == "batch_done"
        assert kinds.count("job_done") == 3
        done = events[-1]
        assert done["executed"] == 3 and done["jobs"] == 3

    def test_events_stream_live_for_async_batch(self):
        service = VerificationService(
            store=ResultStore.in_memory(), workers=1, execute_delay=0.3
        )
        with ServerThread(service=service) as server:
            jobs = generate_jobs(2, seed=16)
            status, accepted, _ = _request(
                server.base_url,
                "/v1/jobs",
                json.dumps({**jobs_to_wire(jobs), "wait": False}).encode(),
            )
            assert status == 202 and accepted["status"] == "accepted"
            assert accepted["events_url"].startswith("/v1/batch/")
            # The stream follows the in-progress batch until batch_done.
            with urllib.request.urlopen(
                server.base_url + accepted["events_url"], timeout=30
            ) as response:
                events = [
                    json.loads(line) for line in response.read().decode().splitlines()
                ]
            assert events[-1]["event"] == "batch_done"
            assert events[-1]["executed"] == 2

            status, payload, _ = _request(server.base_url, accepted["status_url"])
            assert status == 200 and payload["completed"] is True


class UnknownPathCases:
    """The 404/405 answers, on every node kind."""

    def test_unknown_paths_and_methods(self, node):
        status, payload, _ = _request(node.base_url, "/v1/nope")
        assert status == 404 and payload["error"]["code"] == "not-found"
        assert "/v1" in payload["error"]["detail"]
        status, payload, _ = _request(node.base_url, "/v1/batch/zzz")
        assert status == 404 and payload["error"]["code"] == "not-found"
        status, payload, _ = _request(node.base_url, "/v1/healthz", data=b"", method="POST")
        assert status == 405 and payload["error"]["code"] == "method-not-allowed"


class TestErrorPaths(UnknownPathCases):
    make_service = staticmethod(_job_node)

    def test_every_error_code_is_documented(self):
        # The envelope contract: codes asserted across this class must all
        # be documented in ERROR_CODES (and carry their status in the doc).
        for code, doc in ERROR_CODES.items():
            assert doc.split(":")[0].isdigit(), (code, doc)

    def test_malformed_json_body(self, server):
        status, payload, _ = _request(server.base_url, "/v1/jobs", b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "invalid-json"
        assert set(payload["error"]) == {"code", "message", "detail"}

    def test_malformed_spec_shape(self, server):
        status, payload, _ = _request(
            server.base_url, "/v1/jobs", json.dumps({"system": {"bogus": 1}}).encode()
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"

    def test_unknown_theory_kind(self, server):
        spec = generate_jobs(1, seed=0)[0].to_spec()
        spec["theory"] = {"kind": "no_such_theory"}
        status, payload, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"
        assert "no_such_theory" in payload["error"]["message"]

    def test_client_server_fingerprint_mismatch(self, server):
        spec = generate_jobs(1, seed=0)[0].to_spec()
        spec["fingerprint"] = "deadbeef" * 8
        status, payload, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert status == 409
        assert payload["error"]["code"] == "fingerprint-mismatch"
        # Nothing was executed or stored for the rejected submission.
        status, stats, _ = _request(server.base_url, "/v1/stats")
        assert stats["executed"] == 0 and stats["store_size"] == 0

    def test_mismatch_inside_batch_rejects_whole_request(self, server):
        jobs = generate_jobs(2, seed=5)
        wire = jobs_to_wire(jobs)
        wire["jobs"][1]["fingerprint"] = "0" * 64
        status, payload, _ = _request(server.base_url, "/v1/jobs", json.dumps(wire).encode())
        assert status == 409
        assert "jobs[1]" in payload["error"]["message"]

    def test_empty_batch_rejected(self, server):
        status, payload, _ = _request(
            server.base_url, "/v1/jobs", json.dumps({"jobs": []}).encode()
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"

    def test_service_error_surfaces_envelope(self, server):
        with ServiceClient(server.base_url, retries=0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.lookup("0" * 64)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"
        assert excinfo.value.payload["error"]["message"]

    def test_store_ttl_expiry_re_executes(self):
        service = VerificationService(store=ResultStore.in_memory(ttl_seconds=0.3))
        with ServerThread(service=service) as server:
            job = generate_jobs(1, seed=31)[0]
            spec = json.dumps(job.to_spec()).encode()
            _, first, _ = _request(server.base_url, "/v1/jobs", spec)
            assert first["served_from"] == "engine"
            _, warm, _ = _request(server.base_url, "/v1/jobs", spec)
            assert warm["served_from"] == "store"
            time.sleep(0.35)
            _, expired, _ = _request(server.base_url, "/v1/jobs", spec)
            assert expired["served_from"] == "engine"
            assert expired["result"]["nonempty"] == first["result"]["nonempty"]
            assert service.stats.executed == 2


class TestParallelWorkers:
    def test_batch_with_spawned_worker_pool_matches_store_round(self, tmp_path):
        # workers=2 exercises the spawn-based pool end to end through HTTP.
        service = VerificationService(store=ResultStore(tmp_path / "served.sqlite"), workers=2)
        with ServerThread(service=service) as server:
            jobs = generate_jobs(4, seed=17)
            cold = post_jobs(server.base_url, jobs)
            warm = post_jobs(server.base_url, jobs)
            assert cold["executed"] == 4 and warm["store_hits"] == 4
            assert [r["nonempty"] for r in cold["results"]] == [
                r["nonempty"] for r in warm["results"]
            ]


class TestObservability:
    """The telemetry surface: search traces, /v1/stats rollups, metrics lint."""

    def test_traced_job_round_trip(self, server):
        job = generate_jobs(1, seed=21)[0]
        spec = dict(job.to_spec())
        spec["trace"] = True
        status, submitted, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert status == 200
        assert submitted["served_from"] == "engine"
        assert submitted["result"]["has_trace"] is True

        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/trace"
        )
        assert status == 200
        assert payload["fingerprint"] == job.fingerprint
        trace = payload["trace"]
        assert trace["unit"] == "seconds" and trace["spans"], trace
        exported = chrome_trace(trace)
        assert exported["traceEvents"][0]["ph"] == "M"
        assert any(event["ph"] == "X" for event in exported["traceEvents"])

    def test_trace_endpoint_404s(self, server):
        # Unknown fingerprint: no verdict at all.
        status, payload, _ = _request(server.base_url, "/v1/jobs/" + "0" * 64 + "/trace")
        assert status == 404
        assert payload["error"]["code"] == "not-found"
        # Known verdict, but the job never opted into tracing.
        job = generate_jobs(1, seed=22)[0]
        _request(server.base_url, "/v1/jobs", json.dumps(job.to_spec()).encode())
        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/trace"
        )
        assert status == 404
        assert "trace" in payload["error"]["detail"]

    def test_traced_resubmit_of_untraced_verdict_reexecutes(self, server):
        job = generate_jobs(1, seed=23)[0]
        plain = json.dumps(job.to_spec()).encode()
        status, first, _ = _request(server.base_url, "/v1/jobs", plain)
        assert first["served_from"] == "engine" and first["result"]["has_trace"] is False
        # Re-submitting traced must not be short-circuited by the store: the
        # verdict exists but the requested trace does not.
        spec = dict(job.to_spec())
        spec["trace"] = True
        status, traced, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert traced["served_from"] == "engine"
        assert traced["result"]["nonempty"] == first["result"]["nonempty"]
        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/trace"
        )
        assert status == 200 and payload["trace"]["spans"]
        # And now the traced row serves warm, trace intact.
        status, warm, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert warm["served_from"] == "store" and warm["result"]["has_trace"] is True

    def test_certified_job_round_trip_and_cli_byte_agreement(self, server):
        from repro import AllDatabasesTheory, EmptinessSolver
        from repro.certify import build_certificate, decode_certificate, render_certificate
        from repro.library import triangle_system
        from repro.relational.csp import GRAPH_SCHEMA
        from repro.service.jobs import VerificationJob

        job = VerificationJob(
            system=triangle_system(),
            theory=AllDatabasesTheory(GRAPH_SCHEMA),
            certificate=True,
        )
        spec = json.dumps(job.to_spec()).encode()
        status, submitted, _ = _request(server.base_url, "/v1/jobs", spec)
        assert status == 200
        assert submitted["served_from"] == "engine"
        assert submitted["result"]["nonempty"] is True
        assert submitted["result"]["has_certificate"] is True

        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/witness"
        )
        assert status == 200
        assert payload["fingerprint"] == job.fingerprint
        served = render_certificate(decode_certificate(payload["certificate"]))
        # The HTTP-served certificate and a local CLI-style export are the
        # same canonical bytes: verdict determinism end to end.
        local = EmptinessSolver(job.theory).check(job.system)
        assert served == render_certificate(
            build_certificate(job.system, job.theory, local)
        )
        # A certified job's warm rerun is store-served, certificate intact.
        status, warm, _ = _request(server.base_url, "/v1/jobs", spec)
        assert warm["served_from"] == "store"
        assert warm["result"]["has_certificate"] is True

    def test_witness_endpoint_404s(self, server):
        # Unknown fingerprint: no verdict at all.
        status, payload, _ = _request(server.base_url, "/v1/jobs/" + "0" * 64 + "/witness")
        assert status == 404
        assert payload["error"]["code"] == "not-found"
        # Known verdict, but the job never opted into certificates.
        job = generate_jobs(1, seed=22)[0]
        _request(server.base_url, "/v1/jobs", json.dumps(job.to_spec()).encode())
        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/witness"
        )
        assert status == 404
        assert "certificate" in payload["error"]["detail"]

    def test_certified_resubmit_of_uncertified_verdict_reexecutes(self, server):
        from repro import AllDatabasesTheory
        from repro.library import triangle_system
        from repro.relational.csp import GRAPH_SCHEMA
        from repro.service.jobs import VerificationJob

        job = VerificationJob(
            system=triangle_system(), theory=AllDatabasesTheory(GRAPH_SCHEMA)
        )
        plain = json.dumps(job.to_spec()).encode()
        _, first, _ = _request(server.base_url, "/v1/jobs", plain)
        assert first["served_from"] == "engine"
        assert first["result"]["has_certificate"] is False
        # Re-submitting with certificate=true must not be short-circuited
        # by the store: the verdict exists but the certificate does not.
        spec = dict(job.to_spec())
        spec["certificate"] = True
        _, certified, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert certified["served_from"] == "engine"
        assert certified["result"]["nonempty"] == first["result"]["nonempty"]
        assert certified["result"]["has_certificate"] is True
        status, payload, _ = _request(
            server.base_url, f"/v1/jobs/{job.fingerprint}/witness"
        )
        assert status == 200 and payload["certificate"]

    def test_certified_empty_verdict_serves_from_store(self, server):
        from repro import HomTheory, odd_red_cycle_free_template
        from repro.library import odd_red_cycle_system
        from repro.service.jobs import VerificationJob

        # The HOM example is empty: no witness exists, so a later certified
        # submission is satisfied by the cached verdict (nothing to record).
        job = VerificationJob(
            system=odd_red_cycle_system(),
            theory=HomTheory(odd_red_cycle_free_template()),
        )
        _, first, _ = _request(
            server.base_url, "/v1/jobs", json.dumps(job.to_spec()).encode()
        )
        assert first["result"]["nonempty"] is False
        spec = dict(job.to_spec())
        spec["certificate"] = True
        _, certified, _ = _request(server.base_url, "/v1/jobs", json.dumps(spec).encode())
        assert certified["served_from"] == "store"
        assert certified["result"]["has_certificate"] is False

    def test_stats_engine_store_worker_sections(self, server):
        jobs = generate_jobs(3, seed=24)
        post_jobs(server.base_url, jobs)
        post_jobs(server.base_url, jobs)  # warm rerun: store movement, no engine movement
        status, stats, _ = _request(server.base_url, "/v1/stats")
        assert status == 200
        engine = stats["engine"]
        assert engine["jobs"] == 3  # store hits never count as engine work
        assert engine["configurations_explored"] > 0
        assert engine["engine_seconds"] > 0
        assert 0.0 <= engine["cache_hit_rate"] <= 1.0
        store = stats["store"]
        assert store["puts"] == 3 and store["hits"] == 3
        workers = stats["workers"]
        assert workers["configured"] == 1 and workers["executing"] == 0

    def test_live_metrics_lint_clean_and_monotone(self, server):
        jobs = generate_jobs(2, seed=25)
        post_jobs(server.base_url, jobs)
        with ServiceClient(server.base_url) as client:
            before = client.metrics()
            post_jobs(server.base_url, jobs)  # warm
            after = client.metrics()
        assert validate_exposition(before) == []
        assert validate_exposition(after) == []
        assert counter_regressions(before, after) == []
        for family in (
            "repro_engine_jobs_total",
            "repro_engine_cache_hits_total",
            "repro_plan_compilations_total",
            "repro_store_lookup_hits_total",
            "repro_store_puts_total",
            "repro_worker_processes",
            "repro_jobs_executing",
        ):
            assert family in after, f"{family} missing from /v1/metrics"
        hits = parse_exposition(after).samples[("repro_store_hits_total", ())]
        assert hits == 2  # the warm rerun, counted once per job


class DisconnectCases:
    """A client that vanishes mid-request, on every node kind."""

    def test_mid_body_client_disconnect_leaves_server_healthy(self, node):
        host, port = node.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Host: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 1000\r\n"
                b"\r\n"
                b'{"jobs": ['  # a fraction of the promised body, then gone
            )
        # The aborted read must not 500 the connection task or leak state:
        # the server keeps answering and its connection gauge returns to 1
        # (the probe's own connection).
        deadline = time.time() + 10
        while node.service._open_connections > 0 and time.time() < deadline:
            time.sleep(0.05)
        status, payload, _ = _request(node.base_url, "/v1/healthz")
        assert status == 200 and payload["status"] == "ok"


class TestConnectionFaults(DisconnectCases):
    """Client/server resilience to broken connections (reliability suite)."""

    make_service = staticmethod(_job_node)

    def test_client_retries_stale_keepalive_connection(self):
        # A keep-alive connection the server has idle-timed-out must be
        # replaced transparently on the next request, not surfaced as an
        # error to the caller.
        service = VerificationService(store=ResultStore.in_memory(), idle_timeout=0.3)
        with ServerThread(service=service) as server:
            with ServiceClient(server.base_url) as client:
                assert client.healthz()["status"] == "ok"
                time.sleep(0.8)  # server side closes the idle connection
                assert client.healthz()["status"] == "ok"
            # Two TCP connections total: the original and the replacement.
            assert service.stats.connections_total == 2


class TestKeyspaceTransport(ConnectionCases, AuthCases, UnknownPathCases, DisconnectCases):
    """The keyspace (`repro store serve`) on the one transport.

    It inherits every transport case above; the tests here cover what the
    keyspace adds on top: its metrics next to the transport's, one ops
    count per request, no stall per call, and the SIGTERM drain.
    """

    make_service = staticmethod(_keyspace_node)

    @staticmethod
    def _ops_total(service):
        samples = parse_exposition(service.registry.render()).samples
        return sum(value for (name, _), value in samples.items()
                   if name == "repro_keyspace_ops_total")

    def test_unversioned_paths_are_404_naming_the_v1_path(self, node):
        for path in ("/count", f"/keys/{KEY}", "/healthz"):
            status, payload, _ = _request(node.base_url, path)
            assert status == 404
            assert payload["error"]["code"] == "not-found"
            assert f"/v1{path}" in payload["error"]["detail"]

    def test_metrics_lint_clean_with_latency_by_endpoint(self, node):
        backend = HTTPBackend(node.base_url)
        backend.put(KEY, _row())
        assert backend.get(KEY) is not None
        backend.close()
        with ServiceClient(node.base_url) as client:
            text = client.metrics()
        assert validate_exposition(text) == []
        for family in (
            "repro_keyspace_ops_total",
            "repro_keyspace_rows",
            "repro_keyspace_expired_total",
            "repro_keyspace_evicted_total",
            "repro_request_latency_seconds",
            "repro_connections_opened_total",
        ):
            assert family in text, f"{family} missing from the keyspace's /v1/metrics"
        for endpoint in ("discovery", "key_put", "key_get"):
            assert f'repro_request_latency_seconds_count{{endpoint="{endpoint}"}} 1' in text

    def test_each_request_counts_one_op(self, node):
        backend = HTTPBackend(node.base_url)
        backend.put(KEY, _row(created_at=1.0))
        before = self._ops_total(node.service)
        assert backend.get("b" * 64) is None  # a miss: outcome "miss" only
        assert self._ops_total(node.service) == before + 1
        assert backend.put_if_absent(KEY, _row(created_at=2.0)) is False  # a 412
        assert self._ops_total(node.service) == before + 2
        backend.close()

    def test_backend_calls_do_not_stall(self, node):
        # Header and body leave in one write; split writes cost every call
        # the client's delayed ACK (~40 ms).
        backend = HTTPBackend(node.base_url)
        backend.put(KEY, _row())
        samples = []
        for _ in range(20):
            started = time.perf_counter()
            assert backend.get(KEY) is not None
            samples.append(time.perf_counter() - started)
        backend.close()
        assert statistics.median(samples) < 0.020, samples

    def test_store_serve_drains_on_sigterm(self, tmp_path):
        port_file = tmp_path / "port"
        database = tmp_path / "keyspace.sqlite"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "store", "serve", "--store", str(database),
             "--port", "0", "--port-file", str(port_file)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, "keyspace exited during start-up"
                assert time.monotonic() < deadline, "keyspace did not come up"
                time.sleep(0.05)
            backend = HTTPBackend(f"http://127.0.0.1:{port_file.read_text().strip()}")
            backend.put(KEY, _row(label="kept"))
            backend.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0, output
            assert "drained cleanly" in output
            assert "Traceback" not in output
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        # The drain checkpointed and closed the backend: the row is on disk.
        stored = SQLiteBackend(database)
        assert stored.get(KEY)["label"] == "kept"
        stored.close()
