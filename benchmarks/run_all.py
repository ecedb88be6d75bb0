#!/usr/bin/env python
"""Unified benchmark runner: e1-e9 suite, engine timings, batch service.

Three phases, all optional:

* **suite** -- runs the pytest-benchmark files ``bench_e1`` .. ``bench_e9``
  and stores pytest-benchmark's machine-readable output as
  ``BENCH_suite.json`` (``--smoke`` keeps only the quick files so CI can
  afford it).
* **engine** -- times the engine (best of rounds) on the HOM scaling
  instance of ``bench_e2`` and the tree exploration of ``bench_e5``, and
  times a fixed pure-Python calibration loop in the same process; each
  workload's ``normalized`` time (seconds / calibration seconds) cancels
  most of the machine's speed, so records from different machines compare.
  Every verdict is checked against a fixed expectation.  Results --
  including the per-plan statistics (pre-materialization rejections,
  compiled-guard hits) and a cross-check that all three search strategies
  agree on the e1-e3 example systems -- are written to ``BENCH_engine.json``,
  the perf trajectory baseline for future changes.  The adversarial ``stress`` phase
  (deep HOM guard templates, wide tree branching; see
  :func:`repro.workloads.stress_workloads`) rides along in the same record.
  ``--profile WORKLOAD`` instead runs one engine/stress workload under
  ``cProfile`` and prints the top cumulative functions -- the hot-spot
  locator for future perf PRs.  A ``telemetry`` section measures the cost
  of opt-in solver tracing (:class:`repro.telemetry.TraceRecorder`) against
  the untraced default, pinning down that instrumentation is pay-as-you-go.
  A ``certify`` section does the same for opt-in witness certificates
  (:mod:`repro.certify`): the recording overhead of ``certificate=True``
  on a seeded batch (budget: <5%) and the cost of the engine-independent
  validator against re-running the engine on the same nonempty jobs.
* **service** -- measures the batch verification service
  (:mod:`repro.service`) on a seeded random workload batch
  (:mod:`repro.workloads`): serial vs parallel execution and cold vs
  warm-cache reruns against the fingerprinted result store, cross-checking
  that every mode returns identical verdicts, plus a concurrent load test
  of the HTTP front door (keep-alive vs close-per-request clients over a
  mixed cold/warm traffic shape, with tail-latency percentiles), and a
  fault-tolerance phase (retry-policy overhead on clean runs, recovery
  wall-clock under an injected worker crash).  Results go to
  ``BENCH_service.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # everything
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/run_all.py --skip-suite
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    AllDatabasesTheory,
    EmptinessSolver,
    HomTheory,
    TraceRecorder,
    clique_template,
)
from repro.fraisse.search import STRATEGY_NAMES  # noqa: E402
from repro.library import odd_red_cycle_system, triangle_system  # noqa: E402
from repro.perf import cache_stats_snapshot, reset_cache_stats  # noqa: E402
from repro.relational.csp import COLORED_GRAPH_SCHEMA, GRAPH_SCHEMA  # noqa: E402
from repro.systems.dds import DatabaseDrivenSystem  # noqa: E402
from repro.trees import TreeRunTheory, tree_schema, universal_automaton  # noqa: E402

#: Quick benchmark files used by the ``--smoke`` suite phase.
SMOKE_SUITE = ["bench_e1_examples.py", "bench_e4_words.py", "bench_e7_existential.py"]


# -- engine workloads -----------------------------------------------------------


def _tree_exploration_system() -> DatabaseDrivenSystem:
    """An empty system over trees: two registers on a common ancestor cycle.

    Unsatisfiable (mutual proper ancestry), so the engine exhausts the whole
    abstract configuration space -- the representative worst case for the
    tree theory's successor enumeration that ``bench_e5`` scales along.
    """
    schema = tree_schema(["a", "b"])
    return DatabaseDrivenSystem.build(
        schema=schema,
        registers=["x", "y"],
        states=["p", "q"],
        initial="p",
        accepting="q",
        transitions=[
            ("p", "anc(x_new, y_new) & anc(y_new, x_new) & !(x_new = y_new)", "q")
        ],
    )


def engine_workloads():
    """The named (bench, builder) workloads of the engine timings."""
    return {
        "bench_e2": {
            "description": "triangle system over HOM(K_3) (Theorem 4 scaling instance)",
            "system": triangle_system,
            "theory": lambda: HomTheory(clique_template(3)),
            "expected_nonempty": True,
        },
        "bench_e5": {
            "description": "mutual-ancestor tree system over the universal "
            "tree language (full abstract-space exploration)",
            "system": _tree_exploration_system,
            "theory": lambda: TreeRunTheory(universal_automaton(["a", "b"])),
            "expected_nonempty": False,
        },
    }


#: Verdicts of the stress instances at their caps, in smoke and full mode:
#: the deep HOM instance has a witness, the wide tree instance stops at its
#: cap without one.
STRESS_EXPECTED_NONEMPTY = {"stress_hom_deep": True, "stress_tree_wide": False}


def _time_check(theory_factory, system, max_configurations: int = 200_000) -> float:
    solver = EmptinessSolver(theory_factory(), max_configurations=max_configurations)
    start = time.perf_counter()
    solver.check(system)
    return time.perf_counter() - start


def _calibration_loop() -> None:
    """A fixed pure-Python workload of the kind the engine does.

    Tuples, dict and set lookups, sorting and small-integer arithmetic, with
    nothing from ``repro``: its time tracks the machine and the interpreter,
    not the code under test.
    """
    table: dict = {}
    seen = set()
    for i in range(100_000):
        key = (i % 97, (i * 7) % 89, i & 15)
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
    sorted(table.items(), key=lambda item: (item[1], item[0]))


def _time_calibration() -> float:
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


def _timed_record(name: str, workload: dict, rounds: int, max_configurations: int) -> dict:
    """Best-of-rounds engine and calibration times, the verdict checked.

    The calibration loop runs right before each engine run, so both minima
    come from the same stretch of the process.
    """
    system = workload["system"]()
    times = []
    calibration_times = []
    for _ in range(rounds):
        calibration_times.append(_time_calibration())
        times.append(_time_check(workload["theory"], system, max_configurations))
    result = EmptinessSolver(workload["theory"](), max_configurations=max_configurations).check(
        system
    )
    assert result.nonempty == workload["expected_nonempty"], (
        f"{name}: engine verdict {result.nonempty} does not match the expected "
        f"answer {workload['expected_nonempty']}"
    )
    seconds = min(times)
    calibration = min(calibration_times)
    print(
        f"  {name}: {seconds:.3f}s  calibration {calibration:.3f}s  "
        f"normalized {seconds / calibration:.2f}"
    )
    return {
        "workload": workload["description"],
        "nonempty": result.nonempty,
        "exhausted": result.exhausted,
        "max_configurations": max_configurations,
        "rounds": rounds,
        "seconds": round(seconds, 4),
        "calibration_seconds": round(calibration, 4),
        "normalized": round(seconds / calibration, 3),
        "statistics": result.statistics.as_dict(),
    }


def run_engine_comparison(rounds: int) -> dict:
    """Normalised engine timings (best of ``rounds``) for the target workloads."""
    return {
        name: _timed_record(name, workload, rounds, max_configurations=200_000)
        for name, workload in engine_workloads().items()
    }


def run_telemetry_overhead(rounds: int) -> dict:
    """Measure the cost of opt-in solver tracing on the gated workload.

    The metrics registry itself is free on the solve path -- counters are
    plain integer bumps the engine made before telemetry existed, and every
    gauge/counter callback runs at scrape time, not solve time -- so the
    only per-job telemetry knob is the opt-in :class:`TraceRecorder`.  This
    phase times ``bench_e2`` untraced (exactly what every phase above runs,
    so the engine guard in ``check_regression.py`` already gates the
    telemetry-off path) and with a recorder attached, putting a measured
    number behind the "zero overhead when off, bounded cost when on" claim.
    """
    workload = engine_workloads()["bench_e2"]
    system = workload["system"]()
    untraced_times = []
    traced_times = []
    spans = 0
    events = 0
    for _ in range(rounds):
        untraced_times.append(_time_check(workload["theory"], system))
        solver = EmptinessSolver(workload["theory"](), max_configurations=200_000)
        recorder = TraceRecorder()
        start = time.perf_counter()
        traced_result = solver.check(system, trace=recorder)
        traced_times.append(time.perf_counter() - start)
        spans = len(recorder.spans)
        events = len(recorder.events)
        assert traced_result.nonempty == workload["expected_nonempty"], (
            f"telemetry phase: traced verdict {traced_result.nonempty} does "
            f"not match the expected answer {workload['expected_nonempty']}"
        )
    untraced = min(untraced_times)
    traced = min(traced_times)
    overhead = (traced / untraced - 1.0) if untraced > 0 else None
    print(
        f"  bench_e2 tracing: untraced {untraced:.3f}s  traced {traced:.3f}s  "
        f"overhead {overhead * 100:+.1f}%  ({spans} spans, {events} events)"
    )
    return {
        "workload": workload["description"],
        "rounds": rounds,
        "untraced_seconds": round(untraced, 4),
        "traced_seconds": round(traced, 4),
        "trace_overhead_percent": round(overhead * 100, 1) if overhead is not None else None,
        "trace_spans": spans,
        "trace_events": events,
    }


def run_certify_benchmark(smoke: bool, rounds: int) -> dict:
    """Measure the witness-certificate opt-in against the plain batch path.

    Two numbers back the certificate design claims.  First, the recording
    overhead: executing a seeded workload batch with ``certificate=True``
    (one spec serialization + zlib per nonempty verdict) must stay within a
    few percent of the plain run -- the committed full-mode record pins the
    <5% budget, and ``check_regression.py`` gates it with noise headroom.
    Second, the payoff: re-checking the resulting certificates with the
    engine-independent validator (:func:`repro.certify.validate_encoded`)
    is compared against re-running the engine on the same nonempty jobs,
    which is what a consumer without certificates would have to do.
    """
    import dataclasses

    from repro.certify import validate_encoded
    from repro.service.jobs import execute_job
    from repro.workloads import generate_jobs

    count = 20 if smoke else 40
    jobs = generate_jobs(count, seed=7)
    certified_jobs = [dataclasses.replace(job, certificate=True) for job in jobs]
    plain_times = []
    certified_times = []
    certified_results = []
    for _ in range(rounds):
        start = time.perf_counter()
        plain_results = [execute_job(job) for job in jobs]
        plain_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        certified_results = [execute_job(job) for job in certified_jobs]
        certified_times.append(time.perf_counter() - start)
        assert [r.nonempty for r in plain_results] == [
            r.nonempty for r in certified_results
        ], "certify phase: certified verdicts diverged from the plain run"
    encoded = [r.certificate for r in certified_results if r.nonempty]
    assert encoded and all(encoded), (
        "certify phase: a nonempty verdict came back without a certificate"
    )
    nonempty_jobs = [
        job for job, r in zip(jobs, certified_results) if r.nonempty
    ]
    validate_times = []
    reexecute_times = []
    kinds = None
    for _ in range(rounds):
        start = time.perf_counter()
        kinds = sorted({validate_encoded(cert)["theory_kind"] for cert in encoded})
        validate_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for job in nonempty_jobs:
            execute_job(job)
        reexecute_times.append(time.perf_counter() - start)
    plain = min(plain_times)
    certified = min(certified_times)
    validate = min(validate_times)
    reexecute = min(reexecute_times)
    overhead = (certified / plain - 1.0) if plain > 0 else None
    print(
        f"  certify: batch plain {plain:.3f}s  certified {certified:.3f}s  "
        f"overhead {overhead * 100:+.1f}%  "
        f"({len(encoded)} certificates: {', '.join(kinds)})"
    )
    print(
        f"  certify: validate {validate:.4f}s vs engine re-run {reexecute:.3f}s  "
        f"({reexecute / validate:.1f}x faster)" if validate > 0 else ""
    )
    return {
        "workload": f"generate_jobs({count}, seed=7) executed serially",
        "rounds": rounds,
        "jobs": count,
        "nonempty": len(encoded),
        "theory_kinds": kinds,
        "plain_seconds": round(plain, 4),
        "certified_seconds": round(certified, 4),
        "certificate_overhead_percent": (
            round(overhead * 100, 1) if overhead is not None else None
        ),
        "validate_seconds": round(validate, 4),
        "reexecute_seconds": round(reexecute, 4),
        "validation_speedup": round(reexecute / validate, 1) if validate > 0 else None,
    }


def run_stress_comparison(smoke: bool, rounds: int) -> dict:
    """Normalised engine timings on the adversarial workload families.

    The ROADMAP's hostile inputs (deep HOM guard templates, wide tree
    branching) measure the compiled-plan pruning where guards are large or
    enumeration is wide; each verdict is checked against
    :data:`STRESS_EXPECTED_NONEMPTY`.
    """
    from repro.workloads import stress_workloads

    results = {}
    for name, workload in stress_workloads().items():
        cap = workload["smoke_max_configurations" if smoke else "max_configurations"]
        workload = dict(workload, expected_nonempty=STRESS_EXPECTED_NONEMPTY[name])
        results[name] = _timed_record(name, workload, rounds, max_configurations=cap)
    return results


def run_profile(workload_name: str, smoke: bool, top: int) -> int:
    """Run one engine/stress workload under cProfile, print top-N cumulative."""
    import cProfile
    import pstats

    named = dict(engine_workloads())
    from repro.workloads import stress_workloads

    named.update(stress_workloads())
    if workload_name not in named:
        print(
            f"unknown profile workload {workload_name!r}; available: "
            f"{', '.join(sorted(named))}",
            file=sys.stderr,
        )
        return 2
    workload = named[workload_name]
    system = workload["system"]()
    cap = workload.get(
        "smoke_max_configurations" if smoke else "max_configurations", 200_000
    )
    solver = EmptinessSolver(workload["theory"](), max_configurations=cap)
    profiler = cProfile.Profile()
    profiler.enable()
    result = solver.check(system)
    profiler.disable()
    print(
        f"{workload_name}: {'nonempty' if result.nonempty else 'empty'} "
        f"(explored {result.statistics.configurations_explored}, "
        f"{result.statistics.elapsed_seconds:.3f}s)"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def run_strategy_agreement() -> dict:
    """All three strategies must return the same verdict on e1-e3 systems."""
    cases = {
        "e1_odd_red_cycle_all_databases": (
            odd_red_cycle_system(),
            lambda: AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
        ),
        "e2_triangle_hom_k2": (
            triangle_system(),
            lambda: HomTheory(clique_template(2)),
        ),
        "e3_triangle_all_databases": (
            triangle_system(),
            lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        ),
    }
    report = {}
    for name, (system, theory_factory) in cases.items():
        verdicts = {}
        for strategy in STRATEGY_NAMES:
            result = EmptinessSolver(theory_factory(), strategy=strategy).check(system)
            verdicts[strategy] = result.nonempty
        agree = len(set(verdicts.values())) == 1
        report[name] = {**verdicts, "agree": agree}
        status = "ok" if agree else "DISAGREE"
        print(f"  {name}: {verdicts} [{status}]")
    return report


# -- service phase ---------------------------------------------------------------


def _service_comparison(jobs, workers: int) -> dict:
    """Serial vs parallel vs warm-cache timings for one batch of jobs.

    The warm rerun hits the same store the parallel cold run populated, so
    it measures exactly the cache path a deployed service would take on
    repeat traffic; verdict lists are asserted identical across all modes.
    """
    import tempfile

    from repro.service import BatchRunner, ResultStore

    serial = BatchRunner(workers=1, timeout_seconds=300).run(jobs)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "service.sqlite")
        try:
            cold = BatchRunner(store=store, workers=workers, timeout_seconds=300).run(
                jobs
            )
            warm = BatchRunner(store=store, workers=workers, timeout_seconds=300).run(
                jobs
            )
        finally:
            store.close()

    verdicts_match = serial.verdicts == cold.verdicts == warm.verdicts
    assert verdicts_match, "parallel/warm verdicts differ from the serial run"
    assert warm.cache_hits == len(jobs), "warm rerun did not hit the store for every job"
    speedup = (
        cold.elapsed_seconds / warm.elapsed_seconds if warm.elapsed_seconds else None
    )
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count()
    return {
        "job_count": len(jobs),
        "workers": workers,
        # Worker processes are single-core; parallel fan-out can only beat
        # serial execution when this exceeds 1.
        "cpus_available": cpus,
        "verdict_counts": cold.verdict_counts(),
        "serial_seconds": round(serial.elapsed_seconds, 4),
        "parallel_cold_seconds": round(cold.elapsed_seconds, 4),
        "serial_vs_parallel_speedup": round(
            serial.elapsed_seconds / cold.elapsed_seconds, 2
        )
        if cold.elapsed_seconds
        else None,
        "warm_seconds": round(warm.elapsed_seconds, 4),
        "cold_vs_warm_speedup": round(speedup, 1) if speedup else None,
        "warm_cache_hits": warm.cache_hits,
        "serial_parallel_verdicts_match": verdicts_match,
        "errors": len(cold.errors),
    }


#: Worker counts of the scaling curve (the ROADMAP's multi-core record;
#: CI runs it on a 4-core runner, where 4 workers should approach 4x on
#: heavy jobs).
SCALING_WORKER_COUNTS = (1, 2, 4)


def run_worker_scaling(smoke: bool) -> dict:
    """Cold-run wall-clock of one heavy batch across worker counts.

    Uses the heavy profile (0.1-1s per job): pool fan-out only wins when
    per-job engine time dwarfs process overhead, so light jobs would just
    measure the pool.  No store -- each run is a pure cold execution of the
    same jobs, making the curve a direct serial-vs-parallel comparison.
    """
    from repro.service import BatchRunner
    from repro.workloads import generate_jobs

    jobs = generate_jobs(4 if smoke else 16, seed=2013, profile="heavy")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count()
    curve = []
    serial_seconds = None
    baseline_verdicts = None
    for workers in SCALING_WORKER_COUNTS:
        report = BatchRunner(workers=workers, timeout_seconds=300).run(jobs)
        if baseline_verdicts is None:
            baseline_verdicts = report.verdicts
            serial_seconds = report.elapsed_seconds
        assert report.verdicts == baseline_verdicts, (
            f"scaling run with {workers} workers changed the verdicts"
        )
        point = {
            "workers": workers,
            "seconds": round(report.elapsed_seconds, 4),
            "speedup_vs_serial": round(serial_seconds / report.elapsed_seconds, 2)
            if report.elapsed_seconds
            else None,
            "errors": len(report.errors),
        }
        curve.append(point)
        speedup_text = (
            f"{point['speedup_vs_serial']:.2f}x vs serial"
            if point["speedup_vs_serial"] is not None
            else "speedup n/a (sub-resolution run)"
        )
        print(f"  scaling: {workers} worker(s)  {point['seconds']:.3f}s  {speedup_text}")
    return {"job_count": len(jobs), "cpus_available": cpus, "curve": curve}


def _load_percentile(ordered, q):
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    import math

    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _load_test_mode(keep_alive: bool, clients: int, requests_per_client: int) -> dict:
    """One load-test measurement: N concurrent clients against a fresh server.

    Each client issues ``requests_per_client`` single-job submissions over
    one :class:`ServiceClient`: mostly warm jobs rotating through a
    pre-populated pool (the store path) plus one job unique to that client
    (the cold engine path), so the traffic mixes both regimes mid-flight.
    Each mode gets its own server and in-memory store -- otherwise the
    first mode's cold jobs would arrive warm in the second and skew the
    keep-alive vs close-per-request comparison.
    """
    import threading

    from repro.service import ResultStore, ServerThread, ServiceClient, VerificationService
    from repro.workloads import generate_jobs

    warm_jobs = generate_jobs(8, seed=2015)
    cold_jobs = generate_jobs(clients, seed=2016)
    service = VerificationService(store=ResultStore.in_memory(), max_pending=None)
    with ServerThread(service=service) as server:
        with ServiceClient(server.base_url) as warmer:
            warmer.submit_batch(warm_jobs)
        latencies = []
        errors = []
        lock = threading.Lock()
        start_barrier = threading.Barrier(clients + 1)

        def run_client(client_index: int) -> None:
            mine = []
            try:
                with ServiceClient(server.base_url, keep_alive=keep_alive, timeout=120) as client:
                    start_barrier.wait()
                    for request_index in range(requests_per_client):
                        if request_index == 1:
                            job = cold_jobs[client_index]
                        else:
                            job = warm_jobs[(client_index + request_index) % len(warm_jobs)]
                        began = time.perf_counter()
                        client.submit_job(job)
                        mine.append(time.perf_counter() - began)
            except Exception as error:  # noqa: BLE001 - recorded, fails the phase
                with lock:
                    errors.append(f"client {client_index}: {type(error).__name__}: {error}")
            with lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=run_client, args=(index,), daemon=True)
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        began = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began
        stats = service.stats
        executed, connections = stats.executed, stats.connections_total

    assert not errors, f"load test had client errors: {errors[:3]}"
    total = clients * requests_per_client
    assert len(latencies) == total
    # Every cold job ran the engine exactly once (plus the warm-pool fill);
    # everything else was served from the store or an in-flight join.
    assert executed == len(warm_jobs) + clients, (
        f"expected {len(warm_jobs) + clients} engine runs, saw {executed}"
    )
    ordered = sorted(latencies)
    return {
        "keep_alive": keep_alive,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": total,
        "cold_requests": clients,
        "elapsed_seconds": round(elapsed, 4),
        "throughput_rps": round(total / elapsed, 2) if elapsed else None,
        "connections_total": connections,
        "p50_ms": round(1000 * _load_percentile(ordered, 0.5), 3),
        "p95_ms": round(1000 * _load_percentile(ordered, 0.95), 3),
        "p99_ms": round(1000 * _load_percentile(ordered, 0.99), 3),
    }


def run_load_test(smoke: bool) -> dict:
    """Hammer the HTTP front door with concurrent mixed cold/warm clients.

    Measures the whole serving stack -- connection handling, routing,
    store-first serving, in-flight dedup -- under the traffic shape the
    server is built for, once with keep-alive clients and once
    close-per-request.  Keep-alive must not lose to close-per-request:
    persistent connections skip the TCP handshake per request, so the ratio
    is the tentpole's acceptance number (guarded by check_regression.py).
    """
    clients = 24 if smoke else 200
    requests_per_client = 6 if smoke else 8
    keepalive = _load_test_mode(True, clients, requests_per_client)
    close = _load_test_mode(False, clients, requests_per_client)
    ratio = (
        round(keepalive["throughput_rps"] / close["throughput_rps"], 3)
        if keepalive["throughput_rps"] and close["throughput_rps"]
        else None
    )
    for name, mode in (("keepalive", keepalive), ("close-per-request", close)):
        print(
            f"  load({name}): {mode['clients']} clients x {mode['requests_per_client']}  "
            f"{mode['throughput_rps']:.0f} rps  p50 {mode['p50_ms']:.1f}ms  "
            f"p95 {mode['p95_ms']:.1f}ms  p99 {mode['p99_ms']:.1f}ms  "
            f"({mode['connections_total']} conns)"
        )
    print(f"  load: keepalive/close throughput ratio {ratio:.2f}x")
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "keepalive": keepalive,
        "close_per_request": close,
        "keepalive_vs_close_throughput": ratio,
    }


def run_fault_tolerance_benchmark(smoke: bool) -> dict:
    """Cost of the retry machinery on clean runs, and recovery under faults.

    Two questions, both answered on the same seeded batch:

    * **overhead** -- a clean run with a retry policy armed must cost about
      the same as one without (the policy only spends time when a transient
      failure actually happens).  Target <2 percent; the regression guard
      allows more headroom for shared-runner noise.
    * **recovery** -- with a worker crash injected on one job's first
      attempt, the batch must still produce identical verdicts, and the
      extra wall-clock is the measured price of one supervised respawn and
      retry.
    """
    from repro import faults
    from repro.service import BatchRunner, RetryPolicy
    from repro.workloads import generate_jobs

    jobs = generate_jobs(12 if smoke else 48, seed=2017)
    workers = 2
    rounds = 2 if smoke else 3
    plain_times = []
    armed_times = []
    baseline_verdicts = None
    for _ in range(rounds):
        plain = BatchRunner(workers=workers, timeout_seconds=300).run(jobs)
        armed = BatchRunner(
            workers=workers,
            timeout_seconds=300,
            retry_policy=RetryPolicy.with_retries(2),
        ).run(jobs)
        if baseline_verdicts is None:
            baseline_verdicts = plain.verdicts
        assert plain.verdicts == armed.verdicts == baseline_verdicts, (
            "arming the retry policy changed the verdicts on a clean run"
        )
        assert armed.fault_tolerance["retries"] == 0, (
            "a clean run should never retry"
        )
        plain_times.append(plain.elapsed_seconds)
        armed_times.append(armed.elapsed_seconds)
    plain_best = min(plain_times)
    armed_best = min(armed_times)
    overhead = (armed_best / plain_best - 1.0) * 100 if plain_best > 0 else None

    # Recovery: crash the worker on one job's first attempt (the env var is
    # the only channel that reaches spawned workers) and time the rerun.
    previous = os.environ.get(faults.FAULTS_ENV_VAR)
    os.environ[faults.FAULTS_ENV_VAR] = (
        f"worker.crash:match={jobs[0].fingerprint[:12]},attempt=1"
    )
    try:
        recovery = BatchRunner(
            workers=workers,
            timeout_seconds=300,
            retry_policy=RetryPolicy.with_retries(1),
        ).run(jobs)
    finally:
        if previous is None:
            del os.environ[faults.FAULTS_ENV_VAR]
        else:
            os.environ[faults.FAULTS_ENV_VAR] = previous
    assert recovery.verdicts == baseline_verdicts, (
        "recovery from an injected worker crash changed the verdicts"
    )
    assert recovery.fault_tolerance["worker_crashes"] == 1
    assert recovery.fault_tolerance["retries"] == 1

    print(
        f"  fault tolerance: clean {plain_best:.3f}s  retry-armed "
        f"{armed_best:.3f}s  overhead {overhead:+.1f}%  "
        f"crash-recovery {recovery.elapsed_seconds:.3f}s"
    )
    return {
        "job_count": len(jobs),
        "workers": workers,
        "rounds": rounds,
        "clean_seconds": round(plain_best, 4),
        "retry_armed_seconds": round(armed_best, 4),
        "retry_overhead_percent": round(overhead, 2) if overhead is not None else None,
        "crash_recovery_seconds": round(recovery.elapsed_seconds, 4),
        "recovery_fault_counters": {
            key: value for key, value in recovery.fault_tolerance.items() if value
        },
        "verdicts_preserved": True,
    }


def run_cluster_benchmark(smoke: bool) -> dict:
    """Fleet throughput: coordinator + runners over one shared keyspace.

    Builds the full distributed topology in-process -- a ``repro store
    serve`` keyspace on a server thread, two runner nodes whose stores point at it,
    and a fingerprint-sharded coordinator front door -- and measures:

    * **cold** -- one fan-out execution of the seeded batch across the
      runner fleet (verdicts asserted identical to a serial single-node
      run, the distributed tier's acceptance bar);
    * **warm serve** -- repeated reruns of the same batch through the
      coordinator, all answered from the shared keyspace.  Best-round
      throughput is the gated number (check_regression.py): it covers the
      coordinator's store-first path, the HTTP backend and the keyspace
      server in one figure.
    """
    from repro.service import (
        CoordinatorService,
        KeyspaceService,
        ResultStore,
        ServerThread,
        ServiceClient,
        VerificationService,
    )
    from repro.service.runner import BatchRunner
    from repro.workloads import generate_jobs

    jobs = generate_jobs(12 if smoke else 48, seed=2019)
    serial = {}
    for _, result in BatchRunner(workers=1).execute_indexed(jobs):
        serial[result.fingerprint] = (result.nonempty, result.exhausted)
    rounds = 3 if smoke else 5
    with ServerThread(service=KeyspaceService("memory:")) as keyspace:
        runner_a = ServerThread(
            service=VerificationService(store=ResultStore.from_url(keyspace.base_url))
        )
        runner_b = ServerThread(
            service=VerificationService(store=ResultStore.from_url(keyspace.base_url))
        )
        with runner_a, runner_b:
            coordinator = ServerThread(
                service=CoordinatorService(
                    runners=[runner_a.base_url, runner_b.base_url],
                    store=ResultStore.from_url(keyspace.base_url),
                )
            )
            with coordinator:
                with ServiceClient(coordinator.base_url, timeout=300) as client:
                    began = time.perf_counter()
                    cold = client.submit_batch(jobs)
                    cold_seconds = time.perf_counter() - began
                    verdicts = {
                        entry["fingerprint"]: (entry["nonempty"], entry["exhausted"])
                        for entry in cold["results"]
                    }
                    assert verdicts == serial, (
                        "the sharded fleet changed verdicts vs a serial single-node run"
                    )
                    assert cold["executed"] == len(jobs)
                    warm_times = []
                    for _ in range(rounds):
                        began = time.perf_counter()
                        warm = client.submit_batch(jobs)
                        warm_times.append(time.perf_counter() - began)
                        assert warm["executed"] == 0, (
                            "a warm fleet rerun re-executed jobs instead of "
                            "serving them from the shared keyspace"
                        )
                executed_per_runner = [
                    runner_a.service.stats.executed,
                    runner_b.service.stats.executed,
                ]
    warm_best = min(warm_times)
    throughput = len(jobs) / warm_best if warm_best > 0 else None
    print(
        f"  cluster: {len(jobs)} jobs over 2 runners  cold {cold_seconds:.3f}s  "
        f"warm {warm_best:.4f}s  warm-serve {throughput:.0f} jobs/s  "
        f"shard split {executed_per_runner}"
    )
    return {
        "job_count": len(jobs),
        "runners": 2,
        "warm_rounds": rounds,
        "cold_seconds": round(cold_seconds, 4),
        "warm_best_seconds": round(warm_best, 4),
        "warm_throughput_jps": round(throughput, 2) if throughput else None,
        "shard_split": executed_per_runner,
        "verdicts_match_serial": True,
    }


def run_service_benchmark(smoke: bool) -> dict:
    """The batch-service record: store-focused, fan-out, and scaling phases.

    The light batch (many tiny heterogeneous jobs) measures the fingerprint
    store -- its warm rerun is the acceptance-gated >=10x path.  The heavy
    batch (0.1-1s relational jobs) is where parallel fan-out beats serial
    execution; it is skipped in smoke mode to keep CI cheap.  The worker
    scaling curve (1/2/4 workers over one heavy batch) runs in both modes --
    smaller in smoke -- so the CI artifact carries a multi-core record.
    """
    from repro.workloads import generate_jobs

    light_jobs = generate_jobs(10 if smoke else 60, seed=2013)
    light = _service_comparison(light_jobs, workers=2 if smoke else 4)
    print(
        f"  light: {light['job_count']} jobs  serial {light['serial_seconds']:.3f}s  "
        f"parallel({light['workers']}) {light['parallel_cold_seconds']:.3f}s  "
        f"warm {light['warm_seconds']:.4f}s  "
        f"cold/warm {light['cold_vs_warm_speedup']:.0f}x"
    )
    record = {"light": light}
    if not smoke:
        heavy_jobs = generate_jobs(16, seed=2013, profile="heavy")
        heavy = _service_comparison(heavy_jobs, workers=4)
        print(
            f"  heavy: {heavy['job_count']} jobs  serial {heavy['serial_seconds']:.3f}s  "
            f"parallel({heavy['workers']}) {heavy['parallel_cold_seconds']:.3f}s  "
            f"({heavy['serial_vs_parallel_speedup']:.2f}x)  "
            f"warm {heavy['warm_seconds']:.4f}s"
        )
        record["heavy"] = heavy
    record["scaling"] = run_worker_scaling(smoke)
    record["load_test"] = run_load_test(smoke)
    record["fault_tolerance"] = run_fault_tolerance_benchmark(smoke)
    record["cluster"] = run_cluster_benchmark(smoke)
    return record


# -- suite phase ----------------------------------------------------------------


def run_suite(smoke: bool, output_path: Path) -> int:
    """Run the pytest-benchmark files, exporting their JSON."""
    bench_dir = Path(__file__).resolve().parent
    if smoke:
        targets = [str(bench_dir / name) for name in SMOKE_SUITE]
    else:
        targets = [str(bench_dir)]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        *targets,
        f"--benchmark-json={output_path}",
    ]
    print(f"running benchmark suite ({'smoke' if smoke else 'full'}) ...")
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    return completed.returncode


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: quick suite files, smaller engine workloads",
    )
    parser.add_argument(
        "--skip-suite", action="store_true", help="skip the pytest-benchmark phase"
    )
    parser.add_argument(
        "--skip-engine", action="store_true", help="skip the engine timing phase"
    )
    parser.add_argument(
        "--skip-service", action="store_true", help="skip the batch service phase"
    )
    parser.add_argument(
        "--skip-stress", action="store_true", help="skip the adversarial stress phase"
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="timing rounds per engine workload (best-of; default 3, smoke 2)",
    )
    parser.add_argument(
        "--profile",
        metavar="WORKLOAD",
        default=None,
        help="run one engine/stress workload under cProfile and exit "
        "(e.g. bench_e2, stress_hom_deep)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=20,
        help="number of cumulative-time entries to print with --profile",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory for BENCH_suite.json / BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    if args.profile:
        return run_profile(args.profile, args.smoke, args.profile_top)

    exit_code = 0
    if not args.skip_suite:
        suite_path = args.output_dir / "BENCH_suite.json"
        exit_code = run_suite(args.smoke, suite_path)
        if exit_code != 0:
            print(f"benchmark suite FAILED (exit {exit_code})", file=sys.stderr)

    if not args.skip_engine:
        rounds = args.rounds if args.rounds is not None else (2 if args.smoke else 3)
        print("running engine timings ...")
        reset_cache_stats()
        engine = run_engine_comparison(rounds)
        stress = {}
        if not args.skip_stress:
            print("running adversarial stress phase ...")
            stress = run_stress_comparison(args.smoke, rounds)
        print("measuring telemetry/tracing overhead ...")
        telemetry_overhead = run_telemetry_overhead(rounds)
        print("measuring witness-certificate overhead and validator payoff ...")
        certify = run_certify_benchmark(args.smoke, rounds)
        print("checking strategy agreement ...")
        agreement = run_strategy_agreement()
        record = {
            "schema_version": 5,
            "mode": "smoke" if args.smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "engine": engine,
            "stress": stress,
            "telemetry": telemetry_overhead,
            "certify": certify,
            "strategy_agreement": agreement,
            "cache_stats": cache_stats_snapshot(),
        }
        engine_path = args.output_dir / "BENCH_engine.json"
        engine_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {engine_path}")
        if not all(case["agree"] for case in agreement.values()):
            print("strategy disagreement detected", file=sys.stderr)
            exit_code = exit_code or 1

    if not args.skip_service:
        print("running batch service benchmark ...")
        try:
            service = run_service_benchmark(args.smoke)
        except AssertionError as error:
            print(f"service benchmark FAILED: {error}", file=sys.stderr)
            exit_code = exit_code or 1
        else:
            service_record = {
                "schema_version": 1,
                "mode": "smoke" if args.smoke else "full",
                "python": platform.python_version(),
                "platform": platform.platform(),
                "service": service,
            }
            service_path = args.output_dir / "BENCH_service.json"
            service_path.write_text(json.dumps(service_record, indent=2) + "\n")
            print(f"wrote {service_path}")

    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
