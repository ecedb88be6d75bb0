"""Tests for the CI benchmark regression guard (benchmarks/check_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
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
):
    if engine is ...:
        engine = {workload: {"normalized": normalized}}
    if certify is ...:
        certify = {
            "certificate_overhead_percent": certify_overhead,
            "nonempty": 20,
        }
    payload = {"mode": "full", "engine": engine, "certify": certify}
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


def _service_record(
    path,
    keepalive=500.0,
    close=450.0,
    load_test=...,
    retry_overhead=1.0,
    fault_tolerance=...,
    cluster_jps=25.0,
    cluster=...,
):
    if load_test is ...:
        load_test = {
            "keepalive": {"throughput_rps": keepalive},
            "close_per_request": {"throughput_rps": close},
        }
    if fault_tolerance is ...:
        fault_tolerance = {"retry_overhead_percent": retry_overhead}
    if cluster is ...:
        cluster = {
            "warm_throughput_jps": cluster_jps,
            "verdicts_match_serial": True,
        }
    payload = {
        "mode": "full",
        "service": {
            "load_test": load_test,
            "fault_tolerance": fault_tolerance,
            "cluster": cluster,
        },
    }
    path.write_text(json.dumps(payload))
    return path


class TestServiceGuard:
    def test_passes_when_keepalive_holds(self, tmp_path):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", keepalive=480.0, close=430.0)
        assert check_regression.check_service(baseline, current) == 0

    def test_fails_when_keepalive_loses_to_close(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", keepalive=200.0, close=400.0)
        assert check_regression.check_service(baseline, current) == 1
        assert "close-per-request baseline" in capsys.readouterr().err

    def test_fails_when_throughput_collapses(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json", keepalive=1000.0)
        current = _service_record(tmp_path / "c.json", keepalive=5.0, close=5.0)
        assert check_regression.check_service(baseline, current) == 1
        assert "floor" in capsys.readouterr().err

    def test_missing_load_test_is_hard_failure(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json", load_test=None)
        current = _service_record(tmp_path / "c.json")
        assert check_regression.check_service(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "load_test" in err

    def test_missing_mode_throughput_is_hard_failure(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(
            tmp_path / "c.json",
            load_test={"keepalive": {"throughput_rps": 100.0}},
        )
        assert check_regression.check_service(baseline, current) == 2
        assert "close_per_request" in capsys.readouterr().err

    def test_fails_when_retry_overhead_blows_past_limit(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", retry_overhead=60.0)
        assert check_regression.check_service(baseline, current) == 1
        assert "retry policy" in capsys.readouterr().err

    def test_negative_retry_overhead_passes(self, tmp_path):
        # Timing noise can make the armed run measure faster than plain.
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", retry_overhead=-2.5)
        assert check_regression.check_service(baseline, current) == 0

    def test_missing_fault_tolerance_is_hard_failure(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", fault_tolerance=None)
        assert check_regression.check_service(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "fault_tolerance" in err

    def test_fails_when_cluster_throughput_collapses(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json", cluster_jps=100.0)
        current = _service_record(tmp_path / "c.json", cluster_jps=1.0)
        assert check_regression.check_service(baseline, current) == 1
        assert "warm-serve" in capsys.readouterr().err

    def test_missing_cluster_is_hard_failure(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json", cluster=None)
        assert check_regression.check_service(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "cluster" in err

    def test_cluster_without_verdict_parity_is_hard_failure(self, tmp_path, capsys):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(
            tmp_path / "c.json",
            cluster={"warm_throughput_jps": 50.0, "verdicts_match_serial": False},
        )
        assert check_regression.check_service(baseline, current) == 2
        err = capsys.readouterr().err
        assert "GUARD FAILURE" in err and "parity" in err

    def test_main_kind_service(self, tmp_path):
        baseline = _service_record(tmp_path / "b.json")
        current = _service_record(tmp_path / "c.json")
        code = check_regression.main(
            ["--kind", "service", "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 0


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
