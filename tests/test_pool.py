"""The runner's one worker pool: shared by batches, routed per batch, closed once.

A ``BatchRunner(workers > 1)`` keeps one supervised pool from its first
pooled batch until ``close()``.  These tests pin what that promises:
consecutive and concurrent batches run on the same workers with verdicts
identical to an in-process run, a fault on one batch's job shows in that
batch's counters only, a batch of one runs on the pool as well, an
abandoned batch leaves nothing behind, and no worker survives ``close()``,
a dropped runner or a stopped server.  Because a worker now outlives its
jobs, the engine's memo tables must not: the last tests check that no
module-level table grows with the number of jobs run.
"""

import gc
import logging
import multiprocessing
import sys
import threading
import types
import weakref

from repro.faults import FAULTS_ENV_VAR
from repro.service import BatchRunner, ResultStore, RetryPolicy
from repro.service.client import ServiceClient
from repro.service.server import ServerThread, VerificationService
from repro.trees import universal_automaton
from repro.workloads import generate_jobs

JOB_TIMEOUT = 30.0


def _verdicts(results):
    return [(r.fingerprint, r.nonempty, r.exhausted) for r in results]


def _children():
    return {process.pid: process for process in multiprocessing.active_children()}


def _new_workers(before):
    return {pid: process for pid, process in _children().items() if pid not in before}


def test_consecutive_batches_reuse_the_same_workers():
    first_jobs, second_jobs = generate_jobs(4, seed=31), generate_jobs(4, seed=32)
    before = _children()
    with BatchRunner(workers=2, timeout_seconds=JOB_TIMEOUT) as runner:
        first = runner.run(first_jobs)
        spawned = _new_workers(before)
        workers = set(spawned)
        second = runner.run(second_jobs)
        assert set(_new_workers(before)) == workers
    assert len(workers) == 2
    # Spawn, never fork: the server runs batches off executor threads.
    spawn_process = multiprocessing.get_context("spawn").Process
    assert all(isinstance(process, spawn_process) for process in spawned.values())
    assert _verdicts(first.results) == _verdicts(BatchRunner().run(first_jobs).results)
    assert _verdicts(second.results) == _verdicts(BatchRunner().run(second_jobs).results)
    assert first.fault_tolerance["worker_respawns"] == 0
    assert second.fault_tolerance["worker_respawns"] == 0


def _run_concurrently(runner, batches):
    """Run each job list as one batch on its own thread, all released together."""
    reports = [None] * len(batches)
    barrier = threading.Barrier(len(batches))

    def run(position):
        barrier.wait()
        reports[position] = runner.run(batches[position])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert all(report is not None for report in reports)
    return reports


def test_concurrent_batches_match_serial_verdicts():
    batches = [generate_jobs(5, seed=41 + i) for i in range(4)]
    references = [BatchRunner().run(jobs) for jobs in batches]
    # More workers than cores, and threads switching as often as they can:
    # a lost update to the shared pool state would misroute or lose events.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BatchRunner(workers=3, timeout_seconds=JOB_TIMEOUT) as runner:
            reports = _run_concurrently(runner, batches)
            totals = runner.stats.as_dict()
    finally:
        sys.setswitchinterval(previous)
    for report, reference in zip(reports, references):
        assert _verdicts(report.results) == _verdicts(reference.results)
        assert not report.errors
        assert report.executed == len(reference.results)
    assert not any(totals.values())


def test_crash_in_one_concurrent_batch_counts_in_that_batch_only(monkeypatch):
    crashing, clean = generate_jobs(6, seed=51), generate_jobs(6, seed=52)
    references = [BatchRunner().run(jobs) for jobs in (crashing, clean)]
    monkeypatch.setenv(FAULTS_ENV_VAR, f"worker.crash:match={crashing[2].fingerprint},attempt=1")
    with BatchRunner(
        workers=2, timeout_seconds=JOB_TIMEOUT, retry_policy=RetryPolicy.with_retries(1)
    ) as runner:
        reports = _run_concurrently(runner, [crashing, clean])
        totals = runner.stats.as_dict()
    for report, reference in zip(reports, references):
        assert _verdicts(report.results) == _verdicts(reference.results)
    hit, spared = reports
    assert hit.fault_tolerance["worker_crashes"] == 1
    assert hit.fault_tolerance["retries"] == 1
    assert hit.fault_tolerance["worker_respawns"] == 1
    assert [r.attempts for r in hit.results] == [1, 1, 2, 1, 1, 1]
    assert not any(spared.fault_tolerance.values())
    assert totals["worker_crashes"] == 1 and totals["retries"] == 1


def test_a_batch_of_one_runs_on_the_pool_too(monkeypatch):
    # No timeout either: the job still runs in a worker, so a crash costs a
    # worker and a retry, never the calling process.
    job = generate_jobs(1, seed=57)[0]
    monkeypatch.setenv(FAULTS_ENV_VAR, f"worker.crash:match={job.fingerprint},attempt=1")
    with BatchRunner(workers=2, retry_policy=RetryPolicy.with_retries(1)) as runner:
        report = runner.run([job])
    assert report.results[0].ok and report.results[0].attempts == 2
    assert report.fault_tolerance["worker_crashes"] == 1


def test_abandoned_batch_leaves_nothing_for_the_next():
    abandoned, following = generate_jobs(6, seed=61), generate_jobs(4, seed=62)
    with BatchRunner(workers=2, timeout_seconds=JOB_TIMEOUT) as runner:
        stream = runner.execute_indexed(abandoned)
        next(stream)
        stream.close()
        pool = runner._pool
        assert not pool._batches and not pool._queue and not pool._delayed
        report = runner.run(following)
        assert not pool._batches and not pool._queue and not pool._delayed
    assert [r.fingerprint for r in report.results] == [job.fingerprint for job in following]
    assert _verdicts(report.results) == _verdicts(BatchRunner().run(following).results)
    assert not any(report.fault_tolerance.values())


def test_no_worker_survives_close_or_a_dropped_runner():
    jobs = generate_jobs(3, seed=71)
    before = _children()
    runner = BatchRunner(workers=2, timeout_seconds=JOB_TIMEOUT)
    runner.run(jobs)
    workers = _new_workers(before)
    assert len(workers) == 2
    runner.close()
    assert not any(process.is_alive() for process in workers.values())

    dropped = BatchRunner(workers=2, timeout_seconds=JOB_TIMEOUT)
    dropped.run(jobs)
    workers = _new_workers(before)
    assert len(workers) == 2
    del dropped
    gc.collect()
    assert not any(process.is_alive() for process in workers.values())


def test_server_stop_leaves_no_traceback_and_no_worker(caplog, capfd):
    jobs = generate_jobs(4, seed=81)
    before = _children()
    service = VerificationService(store=ResultStore.in_memory(), workers=2)
    server = ServerThread(service=service).start()
    clients = [ServiceClient(server.base_url) for _ in range(3)]
    try:
        with caplog.at_level(logging.WARNING):
            report = clients[0].submit_batch(jobs)
            assert report["verdict_counts"]["error"] == 0
            assert len(_new_workers(before)) == 2
            for client in clients[1:]:
                client.healthz()
            # Every client's keep-alive connection is still open here.
            server.stop()
    finally:
        for client in clients:
            client.close()
    asyncio_records = [r for r in caplog.records if r.name.startswith("asyncio")]
    assert not asyncio_records, [r.getMessage() for r in asyncio_records]
    assert "Traceback" not in capfd.readouterr().err
    assert not _new_workers(before)


# -- job-scoped engine memo tables -------------------------------------------------


def _module_table_sizes():
    """``len`` of every sized, mutable module-level object of every repro module."""
    immutable = (type, types.ModuleType, types.FunctionType, str, bytes, tuple, frozenset)
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attribute, value in vars(module).items():
            if isinstance(value, immutable):
                continue
            try:
                sizes[f"{name}.{attribute}"] = len(value)
            except TypeError:
                pass
    return sizes


def test_analysed_automaton_is_collected_once_dropped():
    automaton = universal_automaton(["a", "b"])
    assert automaton.analysis() is automaton.analysis()
    dropped = weakref.ref(automaton)
    del automaton
    gc.collect()
    assert dropped() is None


def test_engine_memo_tables_do_not_outlive_their_jobs():
    families = ("relational", "hom", "tree")
    runner = BatchRunner()
    runner.run(generate_jobs(6, seed=91, families=families))
    before = _module_table_sizes()
    runner.run(generate_jobs(18, seed=92, families=families))
    grown = {
        name: (before.get(name, 0), size)
        for name, size in _module_table_sizes().items()
        if size > before.get(name, 0)
    }
    assert not grown
