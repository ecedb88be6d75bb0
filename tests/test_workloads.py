"""Tests for the seeded random workload generator."""

import json

import pytest

from repro.service import BatchRunner, VerificationJob
from repro.workloads import FAMILIES, generate_jobs


class TestDeterminism:
    def test_same_seed_same_fingerprints(self):
        first = generate_jobs(15, seed=11)
        second = generate_jobs(15, seed=11)
        assert [j.fingerprint for j in first] == [j.fingerprint for j in second]

    def test_different_seeds_differ(self):
        first = generate_jobs(10, seed=1)
        second = generate_jobs(10, seed=2)
        assert [j.fingerprint for j in first] != [j.fingerprint for j in second]

    def test_heavy_profile_deterministic(self):
        first = generate_jobs(8, seed=3, profile="heavy")
        second = generate_jobs(8, seed=3, profile="heavy")
        assert [j.fingerprint for j in first] == [j.fingerprint for j in second]


class TestGeneration:
    def test_families_round_robin(self):
        jobs = generate_jobs(len(FAMILIES) * 2, seed=0)
        families = [job.label.rsplit("-", 1)[0] for job in jobs]
        assert families == list(FAMILIES) * 2

    def test_family_subset(self):
        jobs = generate_jobs(6, seed=0, families=["relational", "hom"])
        assert all(
            job.label.startswith(("relational", "hom")) for job in jobs
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_jobs(3, families=["quantum"])
        with pytest.raises(ValueError):
            generate_jobs(3, families=[])
        with pytest.raises(ValueError):
            generate_jobs(3, profile="medium")

    def test_max_configurations_override(self):
        jobs = generate_jobs(5, seed=0, max_configurations=321)
        assert all(job.max_configurations == 321 for job in jobs)

    def test_specs_survive_wire_format(self):
        # Every generated job must round-trip through JSON with a stable
        # fingerprint -- the property the parallel runner relies on.
        for job in generate_jobs(len(FAMILIES), seed=5):
            rebuilt = VerificationJob.from_spec(json.loads(json.dumps(job.to_spec())))
            assert rebuilt.fingerprint == job.fingerprint, job.label


class TestExecution:
    def test_light_batch_runs_clean(self):
        report = BatchRunner(workers=1, timeout_seconds=120).run(
            generate_jobs(10, seed=0)
        )
        assert not report.errors
        counts = report.verdict_counts()
        assert counts["nonempty"] + counts["empty"] + counts["inconclusive"] == 10

    def test_cap_hits_reported_inconclusive_not_empty(self):
        # With a tiny configuration cap many searches stop before exhausting
        # the abstract space; those must never be counted as "empty".
        report = BatchRunner(workers=1).run(
            generate_jobs(10, seed=0, max_configurations=3)
        )
        counts = report.verdict_counts()
        assert counts["inconclusive"] > 0
        for result in report.results:
            if result.ok and not result.nonempty and not result.exhausted:
                assert counts["empty"] < 10


class TestStressFamilies:
    def test_stress_families_generate_deterministically(self):
        from repro.workloads import STRESS_FAMILIES

        first = generate_jobs(4, seed=5, families=STRESS_FAMILIES)
        second = generate_jobs(4, seed=5, families=STRESS_FAMILIES)
        assert [j.fingerprint for j in first] == [j.fingerprint for j in second]
        labels = [job.label.rsplit("-", 1)[0] for job in first]
        assert labels == ["hom_deep", "tree_wide", "hom_deep", "tree_wide"]

    def test_stress_jobs_survive_wire_format(self):
        from repro.workloads import STRESS_FAMILIES

        for job in generate_jobs(2, seed=5, families=STRESS_FAMILIES):
            rebuilt = VerificationJob.from_spec(
                json.loads(json.dumps(job.to_spec()))
            )
            assert rebuilt.fingerprint == job.fingerprint

    def test_stress_families_not_in_default_mix(self):
        from repro.workloads import STRESS_FAMILIES

        assert not set(STRESS_FAMILIES) & set(FAMILIES)
        jobs = generate_jobs(len(FAMILIES), seed=0)
        assert all(
            not job.label.startswith(("hom_deep", "tree_wide")) for job in jobs
        )

    def test_stress_workloads_expose_fixed_instances(self):
        from repro.workloads import stress_workloads

        named = stress_workloads()
        assert set(named) == {"stress_hom_deep", "stress_tree_wide"}
        for workload in named.values():
            system = workload["system"]()
            theory = workload["theory"]()
            assert system.schema.is_subschema_of(theory.schema)
            assert workload["max_configurations"] > 0

    def test_hom_deep_runs_end_to_end(self):
        """One small adversarial HOM job runs to a definitive verdict.

        ``tests/test_plans.py`` checks this job's delta stream against the
        reference enumeration.
        """
        from repro.fraisse.engine import EmptinessSolver

        job = generate_jobs(1, seed=5, families=["hom_deep"])[0]
        result = EmptinessSolver(
            job.theory, max_configurations=job.max_configurations
        ).check(job.system)
        assert result.exhausted and result.nonempty
