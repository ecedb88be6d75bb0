"""Distributed verdict cluster: coordinator sharding, fleet dedup, failover.

The acceptance bar for the distributed tier is *verdict transparency*: a
sharded fleet (coordinator + runners over one shared keyspace) must
produce exactly the verdicts of a single-node serial run on the same
seeded workload -- warm or cold, with a runner down, and with a worker
crash injected mid-batch.  Everything here runs real sockets end to end:
a `repro store serve` keyspace thread, `ServerThread` runners whose
stores point at it, and a `CoordinatorService` front door.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.faults import FAULTS_ENV_VAR
from repro.service import (
    CoordinatorService,
    KeyspaceService,
    ResultStore,
    RetryPolicy,
    ServerThread,
    ServiceClient,
    VerificationService,
)
from repro.service.runner import BatchRunner
from repro.service.store import CLAIM_ERROR_CODE, DEFAULT_CLAIM_TTL_SECONDS
from repro.workloads import generate_jobs


def serial_verdicts(jobs):
    """Fingerprint -> (nonempty, exhausted) from a plain single-node run."""
    verdicts = {}
    for _, result in BatchRunner(workers=1).execute_indexed(jobs):
        assert result.ok, result.error
        verdicts[result.fingerprint] = (result.nonempty, result.exhausted)
    return verdicts


def report_verdicts(report):
    return {
        entry["fingerprint"]: (entry["nonempty"], entry["exhausted"])
        for entry in report["results"]
    }


def dead_url():
    """A URL that refuses connections (a port that was bound, then closed)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


@contextlib.contextmanager
def fleet(runner_count=2, runner_kwargs=None, extra_runner_urls=(), coordinator_store=True):
    """A keyspace server, ``runner_count`` runners sharing it, one coordinator."""
    with ServerThread(service=KeyspaceService("memory:")) as keyspace:
        with contextlib.ExitStack() as stack:
            runners = []
            for _ in range(runner_count):
                runner = ServerThread(
                    service=VerificationService(
                        store=ResultStore.from_url(keyspace.base_url),
                        **(runner_kwargs or {}),
                    )
                )
                stack.enter_context(runner)
                runners.append(runner)
            urls = [runner.base_url for runner in runners] + list(extra_runner_urls)
            coordinator = ServerThread(
                service=CoordinatorService(
                    runners=urls,
                    store=(
                        ResultStore.from_url(keyspace.base_url)
                        if coordinator_store
                        else None
                    ),
                )
            )
            stack.enter_context(coordinator)
            yield keyspace, runners, coordinator


class TestShardedFleet:
    def test_fleet_verdicts_match_serial_and_warm_rerun_is_store_served(self):
        jobs = generate_jobs(10, seed=11)
        expected = serial_verdicts(jobs)
        with fleet() as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                cold = client.submit_batch(jobs)
                assert report_verdicts(cold) == expected
                assert cold["executed"] == len(jobs)
                # Runners did all the execution; the coordinator only forwarded.
                runner_executed = sum(r.service.stats.executed for r in runners)
                assert runner_executed == len(jobs)
                assert coordinator.service.stats.forwarded == len(jobs)
                # Warm rerun: every verdict now comes off the shared keyspace.
                warm = client.submit_batch(jobs)
                assert report_verdicts(warm) == expected
                assert warm["executed"] == 0 and warm["store_hits"] == len(jobs)
            # A warm rerun served from *any* runner node, not just the front door.
            with ServiceClient(runners[0].base_url) as runner_client:
                from_runner = runner_client.submit_batch(jobs)
                assert report_verdicts(from_runner) == expected
                assert from_runner["executed"] == 0

    def test_failover_to_surviving_runner_keeps_verdicts(self):
        jobs = generate_jobs(12, seed=23)
        expected = serial_verdicts(jobs)
        with fleet(runner_count=1, extra_runner_urls=(dead_url(),)) as (
            keyspace,
            runners,
            coordinator,
        ):
            with ServiceClient(coordinator.base_url) as client:
                report = client.submit_batch(jobs)
            assert report_verdicts(report) == expected
            assert not [e for e in report["results"] if e["error"]]
            # Shards preferring the dead runner were rerouted (12 jobs make
            # an empty shard on one of two runners astronomically unlikely).
            assert coordinator.service.stats.runner_failovers >= 1

    def test_all_runners_down_yields_runner_unavailable_errors(self):
        jobs = generate_jobs(3, seed=31)
        coordinator = ServerThread(
            service=CoordinatorService(runners=[dead_url(), dead_url()])
        )
        with coordinator:
            with ServiceClient(coordinator.base_url) as client:
                report = client.submit_batch(jobs)
        assert len(report["results"]) == len(jobs)
        for entry in report["results"]:
            assert entry["error_code"] == "runner-unavailable"

    def test_fleet_survives_injected_worker_crash(self, monkeypatch):
        """A runner worker hard-killed mid-job: retried, verdicts unchanged."""
        jobs = generate_jobs(6, seed=47)
        expected = serial_verdicts(jobs)
        target = jobs[0].fingerprint[:12]
        monkeypatch.setenv(FAULTS_ENV_VAR, f"worker.crash:match={target},attempt=1")
        runner_kwargs = dict(workers=2, retry_policy=RetryPolicy.with_retries(1))
        with fleet(runner_kwargs=runner_kwargs) as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                report = client.submit_batch(jobs)
        assert report_verdicts(report) == expected
        assert not [e for e in report["results"] if e["error"]]
        crashes = sum(r.service._runner.stats.worker_crashes for r in runners)
        assert crashes >= 1


class TestFleetWitness:
    def test_coordinator_served_witness_identical_to_runners(self):
        """The same fingerprint's witness, fetched through the coordinator
        and straight from the executing runner, is byte-identical."""
        from repro import AllDatabasesTheory
        from repro.certify import validate_encoded
        from repro.library import triangle_system
        from repro.relational.csp import GRAPH_SCHEMA
        from repro.service.jobs import VerificationJob

        job = VerificationJob(
            triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA), certificate=True
        )
        with fleet() as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                report = client.submit_batch([job])
                assert report["results"][0]["nonempty"] is True
                # (has_certificate is presentation-only and does not survive
                # the coordinator's wire round trip -- the witness endpoint
                # is the source of truth, like traces.)
                via_coordinator = client.witness(job.fingerprint)
            # Every runner shares the keyspace, so each serves the witness.
            runner_payloads = []
            for runner in runners:
                with ServiceClient(runner.base_url) as runner_client:
                    runner_payloads.append(runner_client.witness(job.fingerprint))
            for payload in runner_payloads:
                assert payload["certificate"] == via_coordinator["certificate"]
            assert validate_encoded(via_coordinator["certificate"])

    def test_storeless_coordinator_forwards_witness_from_runner(self):
        """Without a store of its own, the coordinator relays the executing
        runner's certificate unchanged."""
        from repro import AllDatabasesTheory
        from repro.certify import validate_encoded
        from repro.library import triangle_system
        from repro.relational.csp import GRAPH_SCHEMA
        from repro.service.jobs import VerificationJob

        job = VerificationJob(
            triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA), certificate=True
        )
        with fleet(coordinator_store=False) as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                client.submit_batch([job])
                payload = client.witness(job.fingerprint)
            assert payload["served_from"] == "runner"
            with ServiceClient(runners[0].base_url) as runner_client:
                direct = runner_client.witness(job.fingerprint)
            assert payload["certificate"] == direct["certificate"]
            assert validate_encoded(payload["certificate"])
            assert coordinator.service.stats.certificates_served >= 1


class TestFleetDedup:
    def test_duplicate_batches_to_different_runners_execute_once(self):
        """The ISSUE's headline: same batch to two nodes, one execution each."""
        jobs = generate_jobs(8, seed=5)
        expected = serial_verdicts(jobs)
        with ServerThread(service=KeyspaceService("memory:")) as keyspace:
            make = lambda: VerificationService(
                store=ResultStore.from_url(keyspace.base_url), execute_delay=0.05
            )
            with ServerThread(service=make()) as node_a, ServerThread(service=make()) as node_b:
                reports = {}

                def submit(name, url):
                    with ServiceClient(url) as client:
                        reports[name] = client.submit_batch(jobs)

                threads = [
                    threading.Thread(target=submit, args=("a", node_a.base_url)),
                    threading.Thread(target=submit, args=("b", node_b.base_url)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert report_verdicts(reports["a"]) == expected
                assert report_verdicts(reports["b"]) == expected
                # Fleet-wide execute-once: every fingerprint ran on exactly one
                # node; the other side joined via claim-wait or the store.
                executed = node_a.service.stats.executed + node_b.service.stats.executed
                assert executed == len(jobs)
                joined = sum(
                    reports[name]["cluster_joins"] + reports[name]["store_hits"]
                    for name in ("a", "b")
                )
                assert executed + joined == 2 * len(jobs)

    def test_claim_takeover_after_owner_death(self):
        """A claim whose owner died (expired TTL) is taken over, not waited out."""
        jobs = generate_jobs(1, seed=3)
        with ServerThread(service=KeyspaceService("memory:")) as keyspace:
            dead_store = ResultStore.from_url(keyspace.base_url)
            assert dead_store.try_claim(jobs[0], owner="dead-node", ttl_seconds=0.05)
            time.sleep(0.1)
            service = VerificationService(
                store=ResultStore.from_url(keyspace.base_url), cluster_dedup=True
            )
            with ServerThread(service=service) as node:
                with ServiceClient(node.base_url) as client:
                    report = client.submit_batch(jobs)
            assert report["executed"] == 1
            assert not [e for e in report["results"] if e["error"]]
            dead_store.close()

    def test_store_claim_primitives_over_http(self):
        jobs = generate_jobs(2, seed=9)
        job = jobs[0]
        with ServerThread(service=KeyspaceService("memory:")) as keyspace:
            mine = ResultStore.from_url(keyspace.base_url)
            theirs = ResultStore.from_url(keyspace.base_url)
            assert mine.is_shared and theirs.is_shared
            assert mine.try_claim(job, owner="me") is True
            assert theirs.try_claim(job, owner="them") is False
            # The claim row is invisible to plain verdict reads.
            assert theirs.get(job.fingerprint) is None
            mine.release_claim(job.fingerprint, owner="me")
            assert theirs.try_claim(job, owner="them") is True
            assert CLAIM_ERROR_CODE == "in-flight"
            assert DEFAULT_CLAIM_TTL_SECONDS > 0
            mine.close()
            theirs.close()


class TestFleetObservability:
    def test_discovery_documents_across_roles(self):
        with fleet() as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                document = client.discovery()
            assert document["role"] == "coordinator"
            assert document["store"]["shared"] is True
            fleet_info = document["fleet"]
            assert fleet_info["sharding"] == "rendezvous-sha256"
            assert {entry["url"] for entry in fleet_info["runners"]} == {
                runner.base_url for runner in runners
            }
            assert "runner-unavailable" in document["error_codes"]
            with ServiceClient(runners[0].base_url) as client:
                runner_doc = client.discovery()
            assert runner_doc["role"] == "single"  # role label is CLI-assigned
            assert runner_doc["store"]["backend"] == keyspace.base_url
            # The keyspace server speaks the same discovery shape.
            with ServiceClient(keyspace.base_url) as client:
                store_doc = client.discovery()
            assert store_doc["role"] == "store"
            assert store_doc["store"]["schema_version"] == runner_doc["store"]["schema_version"]

    def test_stats_and_metrics_aggregate_the_fleet(self):
        jobs = generate_jobs(6, seed=17)
        with fleet() as (keyspace, runners, coordinator):
            with ServiceClient(coordinator.base_url) as client:
                client.submit_batch(jobs)
                stats = client.stats()
                assert stats["role"] == "coordinator"
                assert stats["forwarded"] == len(jobs)
                assert stats["fleet"]["reachable"] == 2
                assert stats["fleet"]["aggregate"]["executed"] == len(jobs)
                assert len(stats["fleet"]["runners"]) == 2
                exposition = client.metrics()
            assert exposition.count('repro_fleet_runner_up{runner="') == 2
            assert "repro_fleet_jobs_executed_total" in exposition
            assert "repro_jobs_forwarded_total 6" in exposition

    def test_metrics_mark_dead_runner_down(self):
        with fleet(runner_count=1, extra_runner_urls=(dead_url(),)) as (
            keyspace,
            runners,
            coordinator,
        ):
            with ServiceClient(coordinator.base_url) as client:
                exposition = client.metrics()
            up_lines = [
                line
                for line in exposition.splitlines()
                if line.startswith("repro_fleet_runner_up{")
            ]
            assert sorted(line.rsplit(" ", 1)[1] for line in up_lines) == ["0", "1"]

    def test_coordinator_requires_a_runner(self):
        with pytest.raises(ValueError):
            CoordinatorService(runners=[])
