#!/usr/bin/env python
"""Unified benchmark runner: e1-e9 suite and engine timings.

Two phases, both optional:

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
  compiled-guard hits), the memo counts of the recorded run's theory
  (``statistics.caches``) and a cross-check that all three search strategies
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
  validator against re-running the engine on the same nonempty jobs.  A
  ``fault_tolerance`` section measures the supervised pool's retry policy
  the same way: its overhead on a clean 2-worker batch on a warm pool
  (budget: <2%) and the wall-clock of recovering from one injected worker
  crash.

The service itself -- throughput, latency and verdicts through real
``repro serve`` and ``repro store serve`` processes -- is measured by
``perfbench/run.py``, whose CI smoke ``check_regression.py --kind verdict``
gates against ``BENCH_verdict.json``.

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
import statistics
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
    theory = workload["theory"]()
    result = EmptinessSolver(theory, max_configurations=max_configurations).check(system)
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
        # The memo counts of the recorded run's theory, as a service job
        # result carries them.
        "statistics": {**result.statistics.as_dict(), "caches": theory.memo_counts()},
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


def run_fault_tolerance_benchmark(smoke: bool) -> dict:
    """Cost of the retry machinery on clean runs, and recovery under faults.

    Two questions, both answered on the same seeded batch:

    * **overhead** -- a clean run with a retry policy armed must cost about
      the same as one without (the policy only spends time when a transient
      failure actually happens).  Each side keeps one runner, whose pool an
      untimed batch starts, so the timed rounds compare batches on warm
      pools, not pool starts.  A round runs one batch per side, in
      alternating order, and the overhead is the median of the rounds'
      armed/plain ratios.  Target <2 percent; the regression guard allows
      more headroom for shared-runner noise.
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
    # On 2 CPUs a full batch on a warm pool takes ~0.1 s, mostly dispatch,
    # and one batch's time varies by ~10%; the median of many paired rounds
    # less so.
    rounds = 10 if smoke else 30
    plain_times = []
    armed_times = []
    with BatchRunner(workers=workers, timeout_seconds=300) as plain_runner, BatchRunner(
        workers=workers, timeout_seconds=300, retry_policy=RetryPolicy.with_retries(2)
    ) as armed_runner:
        baseline_verdicts = plain_runner.run(jobs).verdicts
        armed_runner.run(jobs)
        for round_index in range(rounds):
            if round_index % 2:
                armed = armed_runner.run(jobs)
                plain = plain_runner.run(jobs)
            else:
                plain = plain_runner.run(jobs)
                armed = armed_runner.run(jobs)
            assert plain.verdicts == armed.verdicts == baseline_verdicts, (
                "arming the retry policy changed the verdicts on a clean run"
            )
            assert armed.fault_tolerance["retries"] == 0, (
                "a clean run should never retry"
            )
            plain_times.append(plain.elapsed_seconds)
            armed_times.append(armed.elapsed_seconds)
    ratios = [armed / plain for plain, armed in zip(plain_times, armed_times)]
    overhead = (statistics.median(ratios) - 1.0) * 100

    # Recovery: crash the worker on one job's first attempt (the env var is
    # the only channel that reaches spawned workers) and time the rerun.
    previous = os.environ.get(faults.FAULTS_ENV_VAR)
    os.environ[faults.FAULTS_ENV_VAR] = (
        f"worker.crash:match={jobs[0].fingerprint[:12]},attempt=1"
    )
    try:
        with BatchRunner(
            workers=workers,
            timeout_seconds=300,
            retry_policy=RetryPolicy.with_retries(1),
        ) as runner:
            recovery = runner.run(jobs)
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

    plain_median = statistics.median(plain_times)
    armed_median = statistics.median(armed_times)
    print(
        f"  fault tolerance: clean {plain_median:.3f}s  retry-armed "
        f"{armed_median:.3f}s  overhead {overhead:+.1f}%  "
        f"crash-recovery {recovery.elapsed_seconds:.3f}s"
    )
    return {
        "job_count": len(jobs),
        "workers": workers,
        "rounds": rounds,
        "clean_seconds": round(plain_median, 4),
        "retry_armed_seconds": round(armed_median, 4),
        "retry_overhead_percent": round(overhead, 2),
        "crash_recovery_seconds": round(recovery.elapsed_seconds, 4),
        "recovery_fault_counters": {
            key: value for key, value in recovery.fault_tolerance.items() if value
        },
        "verdicts_preserved": True,
    }


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
        engine = run_engine_comparison(rounds)
        stress = {}
        if not args.skip_stress:
            print("running adversarial stress phase ...")
            stress = run_stress_comparison(args.smoke, rounds)
        print("measuring telemetry/tracing overhead ...")
        telemetry_overhead = run_telemetry_overhead(rounds)
        print("measuring witness-certificate overhead and validator payoff ...")
        certify = run_certify_benchmark(args.smoke, rounds)
        print("measuring retry-policy overhead and crash recovery ...")
        fault_tolerance = run_fault_tolerance_benchmark(args.smoke)
        print("checking strategy agreement ...")
        agreement = run_strategy_agreement()
        record = {
            "schema_version": 7,
            "mode": "smoke" if args.smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "engine": engine,
            "stress": stress,
            "telemetry": telemetry_overhead,
            "certify": certify,
            "fault_tolerance": fault_tolerance,
            "strategy_agreement": agreement,
        }
        engine_path = args.output_dir / "BENCH_engine.json"
        engine_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {engine_path}")
        if not all(case["agree"] for case in agreement.values()):
            print("strategy disagreement detected", file=sys.stderr)
            exit_code = exit_code or 1

    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
