#!/usr/bin/env python
"""Benchmark regression guard: fail CI when a gated benchmark collapses.

Two guarded records, selected with ``--kind``:

* ``engine`` (the default) compares a freshly produced ``BENCH_engine.json``
  (typically the ``--smoke`` variant from the CI benchmark job) against the
  committed record.  Each engine row carries ``normalized``: the workload's
  best time divided by the best time of a fixed pure-Python calibration
  loop run in the same process, so most of the machine's speed cancels out.
  The check fails when

      current_normalized > committed_normalized / tolerance

  for the gated workload (``bench_e2``, the HOM scaling instance the
  compiled transition plans target).  It also gates the witness-certificate
  phase: recording certificates on the seeded batch must stay within
  ``--max-certify-overhead`` percent of the plain run (the design target
  is <5%; the gate leaves headroom for noisy runners).

* ``service`` gates the HTTP front door's load test in
  ``BENCH_service.json``: keep-alive throughput must not lose to the
  close-per-request baseline measured in the same fresh run
  (``--min-ratio``), and must retain a fraction of the committed record's
  keep-alive throughput (``--tolerance`` with an absolute rps floor).  It
  also gates the fault-tolerance phase: arming the retry policy on a clean
  run must stay within ``--max-retry-overhead`` percent of the plain run
  (the design target is <2%; the gate leaves headroom for noisy runners).
  Finally it gates the cluster phase: the sharded fleet's warm-serve
  throughput (coordinator + runners over one shared keyspace) must retain
  a fraction of the committed number (``--cluster-tolerance`` with an
  absolute jobs/second floor), and the fresh record must assert verdict
  parity with a serial single-node run.

Both guards are tolerance-based: the committed records are produced in
``full`` mode on a quiet machine while CI runs the smaller smoke workload
on noisy shared runners, so each bound is the committed number scaled by a
tolerance, never an exact match.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_engine.json \
        --current bench-artifacts/BENCH_engine.json

    python benchmarks/check_regression.py --kind service \
        --baseline BENCH_service.json \
        --current bench-artifacts/BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The fresh normalised time may be at most the committed one divided by
#: this (0.25: four times slower).  With every compiled guard reading
#: UNKNOWN, bench_e2 measured 34 times slower.
DEFAULT_TOLERANCE = 0.25

#: Keep-alive vs close-per-request: persistent connections must at least
#: break even (a little slack for scheduling noise on shared runners).
DEFAULT_MIN_KEEPALIVE_RATIO = 0.9

#: Absolute keep-alive throughput floor in requests/second.  Deliberately
#: tiny: CI smoke runs a fraction of the committed full-mode load on shared
#: hardware, so this only catches a server that stopped serving.
DEFAULT_MIN_RPS_FLOOR = 10.0

#: Fraction of the committed keep-alive throughput the fresh run must
#: retain.  Looser than the engine tolerance: throughput is wall-clock on
#: shared runners and the smoke load differs from the committed full run.
DEFAULT_SERVICE_TOLERANCE = 0.1

#: Maximum percent the witness-certificate opt-in may slow the seeded
#: batch down.  The design target is <5% (pinned by the committed
#: full-mode record); CI smoke batches finish in fractions of a second on
#: shared runners, so the gate leaves headroom for scheduling jitter and
#: only catches certificate recording growing a real per-job cost.
DEFAULT_MAX_CERTIFY_OVERHEAD_PERCENT = 25.0

#: Maximum percent a clean run may slow down with a retry policy armed.
#: The design target is <2%; CI smoke batches are tiny (seconds of work on
#: shared runners), so the gate only catches the policy growing a real
#: per-job cost, not scheduling jitter.
DEFAULT_MAX_RETRY_OVERHEAD_PERCENT = 25.0

#: Absolute fleet warm-serve throughput floor in jobs/second.  The warm
#: path is three HTTP hops per job (client -> coordinator -> keyspace), so
#: this only catches the distributed tier falling over, not noise.
DEFAULT_MIN_CLUSTER_JPS_FLOOR = 5.0

#: Fraction of the committed fleet warm-serve throughput the fresh run
#: must retain.  As loose as the front-door tolerance and for the same
#: reason: wall-clock over real sockets on shared CI runners.
DEFAULT_CLUSTER_TOLERANCE = 0.1


class GuardDataError(Exception):
    """A benchmark record cannot answer the guarded question."""


def _normalized_of(record: dict, record_name: str, workload: str) -> float:
    """The recorded normalised time for ``workload``, or a hard, explicit failure.

    A missing or renamed workload key must never pass silently: a guard
    that cannot find its bench is a guard that checks nothing, so this is
    a configuration failure (exit 2), distinct from a measured regression.
    """
    engine = record.get("engine")
    if not isinstance(engine, dict) or not engine:
        raise GuardDataError(
            f"{record_name} record has no 'engine' section; was the engine "
            "phase skipped when it was produced?"
        )
    if workload not in engine:
        raise GuardDataError(
            f"{record_name} record has no entry for workload {workload!r}; "
            f"available: {', '.join(sorted(engine))}. If the bench was "
            "renamed, update --workload and the committed baseline together."
        )
    entry = engine[workload]
    if not isinstance(entry, dict):
        raise GuardDataError(
            f"{record_name} record entry for {workload!r} is not an object "
            f"(got {entry!r})"
        )
    normalized = entry.get("normalized")
    if not isinstance(normalized, (int, float)) or normalized <= 0:
        raise GuardDataError(
            f"{record_name} record has no usable normalized time for {workload!r} "
            f"(got {normalized!r}); a record from before normalised engine "
            "timings carries a speedup instead -- regenerate it with "
            "benchmarks/run_all.py"
        )
    return normalized


def _certify_of(record: dict, record_name: str) -> dict:
    """The certify section of an engine record, or an explicit failure."""
    certify = record.get("certify")
    if not isinstance(certify, dict):
        raise GuardDataError(
            f"{record_name} record has no 'certify' entry; it predates the "
            "witness-certificate phase -- regenerate it with "
            "benchmarks/run_all.py"
        )
    overhead = certify.get("certificate_overhead_percent")
    if not isinstance(overhead, (int, float)):
        raise GuardDataError(
            f"{record_name} record has no usable "
            f"certificate_overhead_percent (got {overhead!r})"
        )
    if not certify.get("nonempty"):
        raise GuardDataError(
            f"{record_name} certify phase validated no certificates "
            f"(nonempty is {certify.get('nonempty')!r}) -- the seeded "
            "workload must produce nonempty verdicts for the gate to mean "
            "anything"
        )
    return certify


def check(
    baseline_path: Path,
    current_path: Path,
    workload: str = "bench_e2",
    tolerance: float = DEFAULT_TOLERANCE,
    max_certify_overhead: float = DEFAULT_MAX_CERTIFY_OVERHEAD_PERCENT,
) -> int:
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"GUARD FAILURE: cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    try:
        current = json.loads(current_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"GUARD FAILURE: cannot read current record {current_path}: {error}", file=sys.stderr)
        return 2
    try:
        committed = _normalized_of(baseline, "baseline", workload)
        fresh = _normalized_of(current, "current", workload)
        fresh_certify = _certify_of(current, "current")
    except GuardDataError as error:
        print(f"GUARD FAILURE: {error}", file=sys.stderr)
        return 2
    ceiling = committed / tolerance
    print(
        f"{workload}: committed normalized time {committed:.2f} "
        f"({baseline.get('mode', '?')} mode), fresh {fresh:.2f} "
        f"({current.get('mode', '?')} mode), ceiling {ceiling:.2f}"
    )
    failed = False
    if fresh > ceiling:
        print(
            f"REGRESSION: {workload} normalized time {fresh:.2f} rose above "
            f"the ceiling {ceiling:.2f} "
            f"(committed {committed:.2f}, tolerance {tolerance})",
            file=sys.stderr,
        )
        failed = True
    certify_overhead = fresh_certify["certificate_overhead_percent"]
    print(
        f"certify: opt-in overhead {certify_overhead:+.1f}% over "
        f"{fresh_certify['nonempty']} nonempty verdicts "
        f"(allowed <= {max_certify_overhead:.0f}%)"
    )
    if certify_overhead > max_certify_overhead:
        print(
            f"REGRESSION: recording witness certificates slows the seeded "
            f"batch by {certify_overhead:.1f}% "
            f"(allowed <= {max_certify_overhead:.0f}%)",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("benchmark regression guard passed")
    return 0


def _load_test_of(record: dict, record_name: str) -> dict:
    """The load-test section of a service record, or an explicit failure."""
    service = record.get("service")
    if not isinstance(service, dict) or not service:
        raise GuardDataError(
            f"{record_name} record has no 'service' section; was the service "
            "phase skipped when it was produced?"
        )
    load_test = service.get("load_test")
    if not isinstance(load_test, dict):
        raise GuardDataError(
            f"{record_name} record has no 'load_test' entry; it predates the "
            "front-door load test -- regenerate it with benchmarks/run_all.py"
        )
    return load_test


def _throughput_of(load_test: dict, record_name: str, mode: str) -> float:
    entry = load_test.get(mode)
    throughput = entry.get("throughput_rps") if isinstance(entry, dict) else None
    if not isinstance(throughput, (int, float)) or throughput <= 0:
        raise GuardDataError(
            f"{record_name} load test has no usable throughput for {mode!r} "
            f"(got {throughput!r})"
        )
    return throughput


def _retry_overhead_of(record: dict, record_name: str) -> float:
    """The clean-run retry-policy overhead percent, or an explicit failure."""
    service = record.get("service")
    if not isinstance(service, dict) or not service:
        raise GuardDataError(
            f"{record_name} record has no 'service' section; was the service "
            "phase skipped when it was produced?"
        )
    fault_tolerance = service.get("fault_tolerance")
    if not isinstance(fault_tolerance, dict):
        raise GuardDataError(
            f"{record_name} record has no 'fault_tolerance' entry; it "
            "predates the fault-tolerance phase -- regenerate it with "
            "benchmarks/run_all.py"
        )
    overhead = fault_tolerance.get("retry_overhead_percent")
    if not isinstance(overhead, (int, float)):
        raise GuardDataError(
            f"{record_name} record has no usable retry_overhead_percent "
            f"(got {overhead!r})"
        )
    return overhead


def _cluster_of(record: dict, record_name: str) -> dict:
    """The cluster section of a service record, or an explicit failure."""
    service = record.get("service")
    if not isinstance(service, dict) or not service:
        raise GuardDataError(
            f"{record_name} record has no 'service' section; was the service "
            "phase skipped when it was produced?"
        )
    cluster = service.get("cluster")
    if not isinstance(cluster, dict):
        raise GuardDataError(
            f"{record_name} record has no 'cluster' entry; it predates the "
            "distributed verdict cluster -- regenerate it with "
            "benchmarks/run_all.py"
        )
    return cluster


def _cluster_throughput_of(cluster: dict, record_name: str) -> float:
    throughput = cluster.get("warm_throughput_jps")
    if not isinstance(throughput, (int, float)) or throughput <= 0:
        raise GuardDataError(
            f"{record_name} cluster phase has no usable warm_throughput_jps "
            f"(got {throughput!r})"
        )
    if cluster.get("verdicts_match_serial") is not True:
        raise GuardDataError(
            f"{record_name} cluster phase did not assert verdict parity with "
            "a serial run (verdicts_match_serial is "
            f"{cluster.get('verdicts_match_serial')!r})"
        )
    return throughput


def check_service(
    baseline_path: Path,
    current_path: Path,
    tolerance: float = DEFAULT_SERVICE_TOLERANCE,
    min_rps_floor: float = DEFAULT_MIN_RPS_FLOOR,
    min_ratio: float = DEFAULT_MIN_KEEPALIVE_RATIO,
    max_retry_overhead: float = DEFAULT_MAX_RETRY_OVERHEAD_PERCENT,
    min_cluster_jps_floor: float = DEFAULT_MIN_CLUSTER_JPS_FLOOR,
    cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE,
) -> int:
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"GUARD FAILURE: cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    try:
        current = json.loads(current_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"GUARD FAILURE: cannot read current record {current_path}: {error}", file=sys.stderr)
        return 2
    try:
        committed = _throughput_of(_load_test_of(baseline, "baseline"), "baseline", "keepalive")
        fresh_load = _load_test_of(current, "current")
        fresh_keepalive = _throughput_of(fresh_load, "current", "keepalive")
        fresh_close = _throughput_of(fresh_load, "current", "close_per_request")
        fresh_overhead = _retry_overhead_of(current, "current")
        committed_cluster = _cluster_throughput_of(
            _cluster_of(baseline, "baseline"), "baseline"
        )
        fresh_cluster = _cluster_throughput_of(
            _cluster_of(current, "current"), "current"
        )
    except GuardDataError as error:
        print(f"GUARD FAILURE: {error}", file=sys.stderr)
        return 2
    ratio = fresh_keepalive / fresh_close
    floor = max(min_rps_floor, committed * tolerance)
    print(
        f"front-door load test: committed keepalive {committed:.0f} rps "
        f"({baseline.get('mode', '?')} mode), fresh keepalive "
        f"{fresh_keepalive:.0f} rps / close {fresh_close:.0f} rps "
        f"({current.get('mode', '?')} mode), ratio {ratio:.2f}x, "
        f"floor {floor:.0f} rps"
    )
    failed = False
    if ratio < min_ratio:
        print(
            f"REGRESSION: keep-alive throughput is {ratio:.2f}x the "
            f"close-per-request baseline (required >= {min_ratio})",
            file=sys.stderr,
        )
        failed = True
    if fresh_keepalive < floor:
        print(
            f"REGRESSION: keep-alive throughput {fresh_keepalive:.0f} rps "
            f"dropped below the floor {floor:.0f} rps "
            f"(committed {committed:.0f} rps, tolerance {tolerance})",
            file=sys.stderr,
        )
        failed = True
    print(
        f"fault tolerance: retry-armed clean-run overhead "
        f"{fresh_overhead:+.1f}% (allowed <= {max_retry_overhead:.0f}%)"
    )
    if fresh_overhead > max_retry_overhead:
        print(
            f"REGRESSION: arming the retry policy slows a clean run by "
            f"{fresh_overhead:.1f}% (allowed <= {max_retry_overhead:.0f}%)",
            file=sys.stderr,
        )
        failed = True
    cluster_floor = max(min_cluster_jps_floor, committed_cluster * cluster_tolerance)
    print(
        f"cluster: committed fleet warm-serve {committed_cluster:.0f} jobs/s "
        f"({baseline.get('mode', '?')} mode), fresh {fresh_cluster:.0f} jobs/s "
        f"({current.get('mode', '?')} mode), floor {cluster_floor:.0f} jobs/s"
    )
    if fresh_cluster < cluster_floor:
        print(
            f"REGRESSION: fleet warm-serve throughput {fresh_cluster:.0f} "
            f"jobs/s dropped below the floor {cluster_floor:.0f} jobs/s "
            f"(committed {committed_cluster:.0f} jobs/s, tolerance "
            f"{cluster_tolerance})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("service regression guard passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--kind", choices=["engine", "service"], default="engine",
                        help="which record to gate (default: engine)")
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_engine.json / BENCH_service.json")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly produced record of the same kind")
    parser.add_argument("--workload", default="bench_e2",
                        help="gated engine workload (default: bench_e2)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="engine: fresh normalized time may be at most the "
                        "committed one / tolerance; service: fraction of the "
                        "committed throughput to require")
    parser.add_argument("--max-certify-overhead", type=float,
                        default=DEFAULT_MAX_CERTIFY_OVERHEAD_PERCENT,
                        help="maximum seeded-batch slowdown percent with "
                        "certificate recording on (engine)")
    parser.add_argument("--min-rps-floor", type=float, default=DEFAULT_MIN_RPS_FLOOR,
                        help="absolute minimum keep-alive throughput (service)")
    parser.add_argument("--min-ratio", type=float, default=DEFAULT_MIN_KEEPALIVE_RATIO,
                        help="minimum keepalive/close throughput ratio (service)")
    parser.add_argument("--max-retry-overhead", type=float,
                        default=DEFAULT_MAX_RETRY_OVERHEAD_PERCENT,
                        help="maximum clean-run slowdown percent with a retry "
                        "policy armed (service)")
    parser.add_argument("--min-cluster-jps-floor", type=float,
                        default=DEFAULT_MIN_CLUSTER_JPS_FLOOR,
                        help="absolute minimum fleet warm-serve throughput in "
                        "jobs/second (service)")
    parser.add_argument("--cluster-tolerance", type=float,
                        default=DEFAULT_CLUSTER_TOLERANCE,
                        help="fraction of the committed fleet warm-serve "
                        "throughput to require (service)")
    args = parser.parse_args(argv)
    if args.kind == "service":
        tolerance = args.tolerance if args.tolerance is not None else DEFAULT_SERVICE_TOLERANCE
        return check_service(
            args.baseline, args.current, tolerance, args.min_rps_floor,
            args.min_ratio, args.max_retry_overhead,
            args.min_cluster_jps_floor, args.cluster_tolerance,
        )
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    return check(
        args.baseline, args.current, args.workload, tolerance, args.max_certify_overhead,
    )


if __name__ == "__main__":
    raise SystemExit(main())
