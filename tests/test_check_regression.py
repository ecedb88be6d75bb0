"""Tests for the CI benchmark regression guard (benchmarks/check_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_MODULE_PATH = REPO_ROOT / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _record(
    path,
    normalized=1.5,
    workload="bench_e2",
    engine=...,
    certify_overhead=2.0,
    certify=...,
    retry_overhead=1.0,
    fault_tolerance=...,
):
    if engine is ...:
        engine = {workload: {"normalized": normalized}}
    if certify is ...:
        certify = {
            "certificate_overhead_percent": certify_overhead,
            "nonempty": 20,
        }
    if fault_tolerance is ...:
        fault_tolerance = {"retry_overhead_percent": retry_overhead}
    payload = {
        "mode": "full",
        "engine": engine,
        "certify": certify,
        "fault_tolerance": fault_tolerance,
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def records(tmp_path):
    baseline = _record(tmp_path / "baseline.json", normalized=1.5)
    current = _record(tmp_path / "current.json", normalized=1.7)
    return baseline, current


class TestVerdicts:
    def test_passes_within_tolerance(self, records):
        baseline, current = records
        assert check_regression.check(baseline, current) == 0

    def test_fails_on_regression(self, tmp_path, capsys):
        # Every compiled guard forced to UNKNOWN: bench_e2 went from ~1 to 32.
        baseline = _record(tmp_path / "b.json", normalized=1.02)
        current = _record(tmp_path / "c.json", normalized=31.95)
        assert check_regression.check(baseline, current) == 1
        assert "normalized time" in capsys.readouterr().err

    def test_ceiling_is_committed_over_tolerance(self, tmp_path):
        baseline = _record(tmp_path / "b.json", normalized=1.5)
        assert check_regression.check(baseline, _record(tmp_path / "c.json", normalized=5.9)) == 0
        assert check_regression.check(baseline, _record(tmp_path / "d.json", normalized=6.1)) == 1
        assert check_regression.check(baseline, _record(tmp_path / "e.json", normalized=0.2)) == 0


class TestCertifyGate:
    def test_fails_when_certify_overhead_blows_past_limit(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", certify_overhead=60.0)
        assert check_regression.check(baseline, current) == 1
        assert "witness certificates" in capsys.readouterr().err

    def test_negative_certify_overhead_passes(self, tmp_path):
        # Timing noise can make the certified run measure faster than plain.
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", certify_overhead=-1.5)
        assert check_regression.check(baseline, current) == 0

    def test_missing_certify_section_is_hard_failure(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", certify=None)
        assert check_regression.check(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "certify" in err

    def test_certify_with_no_certificates_is_hard_failure(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(
            tmp_path / "c.json",
            certify={"certificate_overhead_percent": 1.0, "nonempty": 0},
        )
        assert check_regression.check(baseline, current) == 2
        assert "validated no certificates" in capsys.readouterr().err


class TestMissingKeysAreHardFailures:
    def test_baseline_missing_workload_key(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json", workload="bench_e99")
        current = _record(tmp_path / "c.json")
        assert check_regression.check(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err
        assert "bench_e2" in err and "bench_e99" in err  # names what exists

    def test_current_missing_workload_key(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", workload="bench_renamed")
        assert check_regression.check(baseline, current) == 2
        assert "GUARD FAILURE" in capsys.readouterr().err

    def test_missing_engine_section(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json", engine=None)
        current = _record(tmp_path / "c.json")
        assert check_regression.check(baseline, current) == 2
        assert "engine" in capsys.readouterr().err

    def test_non_dict_workload_entry(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json", engine={"bench_e2": None})
        current = _record(tmp_path / "c.json")
        assert check_regression.check(baseline, current) == 2
        assert "GUARD FAILURE" in capsys.readouterr().err

    def test_null_speedup(self, tmp_path, capsys):
        # A record from before normalised timings: a speedup, no normalized time.
        baseline = _record(tmp_path / "b.json", engine={"bench_e2": {"speedup": None}})
        current = _record(tmp_path / "c.json")
        assert check_regression.check(baseline, current) == 2
        assert "usable normalized time" in capsys.readouterr().err

    def test_null_normalized(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", engine={"bench_e2": {"normalized": None}})
        assert check_regression.check(baseline, current) == 2
        assert "usable normalized time" in capsys.readouterr().err

    def test_unreadable_baseline_file(self, tmp_path, capsys):
        current = _record(tmp_path / "c.json")
        assert check_regression.check(tmp_path / "missing.json", current) == 2
        assert "GUARD FAILURE" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text("{not json")
        current = _record(tmp_path / "c.json")
        assert check_regression.check(baseline, current) == 2
        assert "GUARD FAILURE" in capsys.readouterr().err


class TestFaultToleranceGate:
    def test_fails_when_retry_overhead_blows_past_limit(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", retry_overhead=60.0)
        assert check_regression.check(baseline, current) == 1
        assert "retry policy" in capsys.readouterr().err

    def test_negative_retry_overhead_passes(self, tmp_path):
        # Timing noise can make the armed run measure faster than plain.
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", retry_overhead=-2.5)
        assert check_regression.check(baseline, current) == 0

    def test_missing_fault_tolerance_is_hard_failure(self, tmp_path, capsys):
        baseline = _record(tmp_path / "b.json")
        current = _record(tmp_path / "c.json", fault_tolerance=None)
        assert check_regression.check(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "fault_tolerance" in err


def _verdict_record(path, medians=None):
    """A BENCH_verdict.json with a change median of verdicts_per_s per workload."""
    medians = {"engine_cold": 300.0, "fleet_warm": 250.0} if medians is None else medians
    workloads = {
        name: {"metrics": {"verdicts_per_s": {"change": {"median": median}}}}
        for name, median in medians.items()
    }
    path.write_text(json.dumps({"workloads": workloads}))
    return path


def _report(path, verdicts_per_s):
    """A perfbench report.json; ``None`` leaves verdicts_per_s out."""
    metrics = {"request_p50_ms": {"value": 10.0, "unit": "ms"}}
    if verdicts_per_s is not None:
        metrics["verdicts_per_s"] = {"value": verdicts_per_s, "unit": "1/s"}
    path.write_text(json.dumps({"details": {}, "metrics": metrics}))
    return path


class TestVerdictGuard:
    def test_passes_at_or_above_floor(self, tmp_path):
        baseline = _verdict_record(tmp_path / "b.json")
        # The floor is 0.1 x the committed 250/s.
        for value in (25.0, 26.0, 400.0):
            report = _report(tmp_path / "r.json", value)
            assert check_regression.check_verdict(baseline, report, "fleet_warm") == 0

    def test_fails_below_floor(self, tmp_path, capsys):
        # fleet_warm with the keyspace's 44 ms stall read ~16 verdicts/s.
        baseline = _verdict_record(tmp_path / "b.json")
        report = _report(tmp_path / "r.json", 16.3)
        assert check_regression.check_verdict(baseline, report, "fleet_warm") == 1
        assert "below the floor" in capsys.readouterr().err

    def test_workload_missing_from_record_is_hard_failure(self, tmp_path, capsys):
        baseline = _verdict_record(tmp_path / "b.json", {"engine_cold": 300.0})
        report = _report(tmp_path / "r.json", 250.0)
        assert check_regression.check_verdict(baseline, report, "fleet_warm") == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "fleet_warm" in err and "engine_cold" in err

    def test_record_without_change_median_is_hard_failure(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"workloads": {"fleet_warm": {"metrics": {}}}}))
        report = _report(tmp_path / "r.json", 250.0)
        assert check_regression.check_verdict(baseline, report, "fleet_warm") == 2
        assert "change.median" in capsys.readouterr().err

    def test_report_without_verdicts_per_s_is_hard_failure(self, tmp_path, capsys):
        baseline = _verdict_record(tmp_path / "b.json")
        report = _report(tmp_path / "r.json", None)
        assert check_regression.check_verdict(baseline, report, "fleet_warm") == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "verdicts_per_s" in err

    def test_unreadable_report_is_hard_failure(self, tmp_path, capsys):
        baseline = _verdict_record(tmp_path / "b.json")
        code = check_regression.check_verdict(baseline, tmp_path / "missing.json", "fleet_warm")
        assert code == 2
        assert "GUARD FAILURE" in capsys.readouterr().err

    def test_main_kind_verdict(self, tmp_path):
        baseline = _verdict_record(tmp_path / "b.json")
        args = ["--kind", "verdict", "--workload", "engine_cold", "--baseline", str(baseline)]
        passing = _report(tmp_path / "pass.json", 120.0)
        failing = _report(tmp_path / "fail.json", 20.0)
        assert check_regression.main([*args, "--current", str(passing)]) == 0
        assert check_regression.main([*args, "--current", str(failing)]) == 1
        # --tolerance applies to the verdict kind too.
        strict = [*args, "--current", str(passing), "--tolerance", "0.5"]
        assert check_regression.main(strict) == 1

    @pytest.mark.parametrize("workload", ["engine_cold", "fleet_warm"])
    def test_committed_record_answers_the_guard(self, tmp_path, workload):
        # The CI floor reads the committed record: its shape must stay what
        # the guard reads, and the floor must sit well under the median.
        baseline = REPO_ROOT / "BENCH_verdict.json"
        record = json.loads(baseline.read_text())
        median = record["workloads"][workload]["metrics"]["verdicts_per_s"]["change"]["median"]
        at_median = _report(tmp_path / "median.json", median)
        assert check_regression.check_verdict(baseline, at_median, workload) == 0
        collapsed = _report(tmp_path / "collapsed.json", median * 0.09)
        assert check_regression.check_verdict(baseline, collapsed, workload) == 1


class TestCommandLine:
    def test_main_round_trip(self, records):
        baseline, current = records
        assert (
            check_regression.main(
                ["--baseline", str(baseline), "--current", str(current)]
            )
            == 0
        )

    def test_main_custom_workload_missing_everywhere(self, records, capsys):
        baseline, current = records
        code = check_regression.main(
            [
                "--baseline",
                str(baseline),
                "--current",
                str(current),
                "--workload",
                "bench_renamed",
            ]
        )
        assert code == 2
        assert "bench_renamed" in capsys.readouterr().err
