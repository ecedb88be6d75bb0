#!/usr/bin/env python
"""Benchmark regression guard: fail CI when a gated benchmark collapses.

Two guards, selected with ``--kind``:

* ``engine`` (the default) compares a freshly produced ``BENCH_engine.json``
  (typically the ``--smoke`` variant from the CI benchmark job) against the
  committed record.  Each engine row carries ``normalized``: the workload's
  best time divided by the best time of a fixed pure-Python calibration
  loop run in the same process, so most of the machine's speed cancels out.
  The check fails when

      current_normalized > committed_normalized / tolerance

  for the gated workload (``bench_e2``, the HOM scaling instance the
  compiled transition plans target).  It also gates two opt-in costs of the
  fresh record, each measured on a seeded batch: recording witness
  certificates (``certify``; design target <5%) and arming a retry policy
  on a clean 2-worker run (``fault_tolerance``; design target <2%) must each
  stay within :data:`MAX_OVERHEAD_PERCENT` of the plain run, which leaves
  headroom for noisy runners.

* ``verdict`` gates the throughput of the verdict benchmark
  (``perfbench/run.py``).  ``--current`` is the ``report.json`` of a plain
  (``--trace 0``) run, ``--baseline`` the committed ``BENCH_verdict.json``.
  The check fails when the run's ``metrics.verdicts_per_s.value`` falls
  below ``tolerance`` times the committed ``metrics.verdicts_per_s.change``
  median of ``--workload``.  ``verdicts_per_s`` counts verdicts over the
  window the run actually used -- from the first measured request to the
  last response -- so a request pool that runs dry before ``--seconds``
  does not lower it.

Both guards are tolerance-based: the committed records come from longer
runs on a quiet machine while CI runs smoke-sized workloads on noisy shared
runners, so each bound is the committed number scaled by a tolerance, never
an exact match.  Exit status: 0 passed, 1 regression, 2 a record cannot
answer the question (unreadable file, missing section or row).

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_engine.json \
        --current bench-artifacts/BENCH_engine.json

    python3 perfbench/run.py --workload fleet_warm --seed 11 --seconds 8 --trace 0
    python benchmarks/check_regression.py --kind verdict --workload fleet_warm \
        --baseline BENCH_verdict.json \
        --current perfbench/out/fleet_warm-seed11-trace0/report.json
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

#: Fraction of the committed verdicts_per_s median a perfbench smoke must
#: reach.  Loose: the smoke's 8-second window on a shared runner is far
#: noisier than the committed 35-second pairs, so this only catches a
#: collapse such as the 44 ms keyspace stall (fleet_warm 307 -> 16/s).
DEFAULT_VERDICT_TOLERANCE = 0.1

#: Maximum percent an opt-in (certificate recording, an armed retry policy)
#: may slow its seeded batch down.  The design targets are <5% and <2%, but
#: the batches finish in fractions of a second on shared runners (the retry
#: batch includes a fresh pool's start), so the gate leaves headroom for
#: that jitter and only catches an opt-in growing a real per-job cost.
MAX_OVERHEAD_PERCENT = 25.0


class GuardDataError(Exception):
    """A benchmark record cannot answer the guarded question."""


def _load(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise GuardDataError(f"cannot read {what} {path}: {error}") from error


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


def _retry_overhead_of(record: dict, record_name: str) -> float:
    """The clean-run retry-policy overhead percent, or an explicit failure."""
    fault_tolerance = record.get("fault_tolerance")
    if not isinstance(fault_tolerance, dict):
        raise GuardDataError(
            f"{record_name} record has no 'fault_tolerance' entry; it predates "
            "schema 6, which moved the retry-overhead phase into the engine "
            "record -- regenerate it with benchmarks/run_all.py"
        )
    overhead = fault_tolerance.get("retry_overhead_percent")
    if not isinstance(overhead, (int, float)):
        raise GuardDataError(
            f"{record_name} record has no usable retry_overhead_percent "
            f"(got {overhead!r})"
        )
    return overhead


def _overhead_regressed(what: str, overhead: float) -> bool:
    print(f"{what}: overhead {overhead:+.1f}% (allowed <= {MAX_OVERHEAD_PERCENT:.0f}%)")
    if overhead <= MAX_OVERHEAD_PERCENT:
        return False
    print(
        f"REGRESSION: {what} slows its seeded batch by {overhead:.1f}% "
        f"(allowed <= {MAX_OVERHEAD_PERCENT:.0f}%)",
        file=sys.stderr,
    )
    return True


def check(
    baseline_path: Path,
    current_path: Path,
    workload: str = "bench_e2",
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    try:
        baseline = _load(baseline_path, "baseline")
        current = _load(current_path, "current record")
        committed = _normalized_of(baseline, "baseline", workload)
        fresh = _normalized_of(current, "current", workload)
        fresh_certify = _certify_of(current, "current")
        retry_overhead = _retry_overhead_of(current, "current")
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
    if _overhead_regressed(
        f"recording witness certificates ({fresh_certify['nonempty']} nonempty verdicts)",
        certify_overhead,
    ):
        failed = True
    if _overhead_regressed("arming the retry policy on a clean run", retry_overhead):
        failed = True
    if failed:
        return 1
    print("benchmark regression guard passed")
    return 0


def _committed_verdicts_per_s(record: dict, workload: str) -> float:
    """The change median of ``workload``'s verdicts_per_s in BENCH_verdict.json."""
    workloads = record.get("workloads")
    if not isinstance(workloads, dict) or workload not in workloads:
        available = ", ".join(sorted(workloads)) if isinstance(workloads, dict) else "none"
        raise GuardDataError(
            f"baseline record has no workload {workload!r}; available: {available}"
        )
    try:
        median = workloads[workload]["metrics"]["verdicts_per_s"]["change"]["median"]
    except (KeyError, TypeError):
        median = None
    if not isinstance(median, (int, float)) or median <= 0:
        raise GuardDataError(
            f"baseline record has no usable metrics.verdicts_per_s.change.median "
            f"for {workload!r} (got {median!r})"
        )
    return median


def _reported_verdicts_per_s(report: dict) -> float:
    """A perfbench report's end-to-end verdicts_per_s."""
    try:
        value = report["metrics"]["verdicts_per_s"]["value"]
    except (KeyError, TypeError):
        value = None
    if not isinstance(value, (int, float)) or value < 0:
        raise GuardDataError(
            f"current report has no usable metrics.verdicts_per_s.value "
            f"(got {value!r}); only a --trace 0 run reports end-to-end metrics"
        )
    return value


def check_verdict(
    baseline_path: Path,
    current_path: Path,
    workload: str,
    tolerance: float = DEFAULT_VERDICT_TOLERANCE,
) -> int:
    try:
        committed = _committed_verdicts_per_s(_load(baseline_path, "baseline"), workload)
        fresh = _reported_verdicts_per_s(_load(current_path, "current report"))
    except GuardDataError as error:
        print(f"GUARD FAILURE: {error}", file=sys.stderr)
        return 2
    floor = committed * tolerance
    print(
        f"{workload}: committed verdicts_per_s {committed:.1f}/s (change median), "
        f"fresh {fresh:.1f}/s, floor {floor:.1f}/s"
    )
    if fresh < floor:
        print(
            f"REGRESSION: {workload} delivered {fresh:.1f} verdicts/s, below the "
            f"floor {floor:.1f}/s (committed {committed:.1f}/s, tolerance {tolerance})",
            file=sys.stderr,
        )
        return 1
    print("verdict throughput guard passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--kind", choices=["engine", "verdict"], default="engine",
                        help="engine: BENCH_engine.json against the committed one "
                        "(default); verdict: a perfbench report.json against "
                        "BENCH_verdict.json")
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_engine.json / BENCH_verdict.json")
    parser.add_argument("--current", type=Path, required=True,
                        help="fresh BENCH_engine.json / perfbench report.json")
    parser.add_argument("--workload", default="bench_e2",
                        help="gated workload (default: bench_e2; the verdict kind "
                        "gates engine_cold or fleet_warm)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="engine: fresh normalized time may be at most the "
                        f"committed one / tolerance (default {DEFAULT_TOLERANCE}); "
                        "verdict: fraction of the committed verdicts_per_s to "
                        f"require (default {DEFAULT_VERDICT_TOLERANCE})")
    args = parser.parse_args(argv)
    if args.kind == "verdict":
        tolerance = args.tolerance if args.tolerance is not None else DEFAULT_VERDICT_TOLERANCE
        return check_verdict(args.baseline, args.current, args.workload, tolerance)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    return check(args.baseline, args.current, args.workload, tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
