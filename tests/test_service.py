"""Tests for the batch verification service (specs, store, runner)."""

import json

import pytest

from repro.datavalues import DataValuedTheory, NaturalsWithEquality
from repro.library import (
    odd_red_cycle_system,
    self_loop_required_system,
    triangle_system,
)
from repro.relational import (
    COLORED_GRAPH_SCHEMA,
    GRAPH_SCHEMA,
    AllDatabasesTheory,
    HomTheory,
    clique_template,
)
from repro.service import (
    BatchRunner,
    JobResult,
    ResultStore,
    VerificationJob,
    execute_job,
    run_batch,
    theory_from_spec,
)
from repro.systems.dds import DatabaseDrivenSystem
from repro.trees import TreeRunTheory, universal_automaton
from repro.words import NFA, WordRunTheory, word_schema


def _simple_word_system():
    return DatabaseDrivenSystem.build(
        schema=word_schema(["a", "b"]),
        registers=["x"],
        states=["p", "q"],
        initial="p",
        accepting="q",
        transitions=[("p", "label_a(x_new)", "q")],
    )


def _ab_nfa():
    return NFA.make(
        ["p", "q"],
        ["a", "b"],
        [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")],
        ["p"],
        ["q"],
    )


def _all_theory_jobs():
    """One job per serializable theory kind."""
    data_system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA.extend(relations={"sim": 2}),
        registers=["x"],
        states=["p", "q"],
        initial="p",
        accepting="q",
        transitions=[("p", "sim(x_old, x_new)", "q")],
    )
    tree_system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA,
        registers=["x"],
        states=["p", "q"],
        initial="p",
        accepting="q",
        transitions=[("p", "x_old = x_new", "q")],
    )
    return [
        VerificationJob(
            triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA), label="all"
        ),
        VerificationJob(triangle_system(), HomTheory(clique_template(2)), label="hom"),
        VerificationJob(_simple_word_system(), WordRunTheory(_ab_nfa()), label="word"),
        VerificationJob(
            tree_system.with_schema(
                TreeRunTheory(universal_automaton(["a", "b"])).schema
            ),
            TreeRunTheory(universal_automaton(["a", "b"])),
            label="tree",
        ),
        VerificationJob(
            data_system,
            DataValuedTheory(AllDatabasesTheory(GRAPH_SCHEMA), NaturalsWithEquality()),
            label="data",
        ),
    ]


class TestSpecs:
    def test_job_spec_round_trip_all_theory_kinds(self):
        for job in _all_theory_jobs():
            wire = json.loads(json.dumps(job.to_spec()))
            rebuilt = VerificationJob.from_spec(wire)
            assert rebuilt.fingerprint == job.fingerprint, job.label
            assert rebuilt.to_spec() == job.to_spec(), job.label

    def test_theory_from_spec_dispatch(self):
        theory = HomTheory(clique_template(3))
        rebuilt = theory_from_spec(json.loads(json.dumps(theory.to_spec())))
        assert isinstance(rebuilt, HomTheory)
        assert rebuilt.template == theory.template

    def test_theory_from_spec_unknown_kind(self):
        from repro.errors import TheoryError

        with pytest.raises(TheoryError):
            theory_from_spec({"kind": "no_such_theory"})

    def test_fingerprint_ignores_label(self):
        theory = AllDatabasesTheory(GRAPH_SCHEMA)
        a = VerificationJob(triangle_system(), theory, label="one")
        b = VerificationJob(triangle_system(), theory, label="two")
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_sensitive_to_inputs(self):
        theory = AllDatabasesTheory(GRAPH_SCHEMA)
        base = VerificationJob(triangle_system(), theory)
        assert (
            VerificationJob(triangle_system(), theory, strategy="dfs").fingerprint
            != base.fingerprint
        )
        assert (
            VerificationJob(
                triangle_system(), theory, max_configurations=123
            ).fingerprint
            != base.fingerprint
        )
        assert (
            VerificationJob(self_loop_required_system(), theory).fingerprint
            != base.fingerprint
        )

    def test_system_spec_round_trip(self):
        system = odd_red_cycle_system()
        rebuilt = DatabaseDrivenSystem.from_spec(
            json.loads(json.dumps(system.to_spec()))
        )
        assert rebuilt.to_spec() == system.to_spec()
        assert rebuilt.states == system.states
        assert rebuilt.registers == system.registers
        assert rebuilt.initial_states == system.initial_states
        assert rebuilt.accepting_states == system.accepting_states


class TestExecuteJob:
    def test_verdict_matches_direct_solver(self):
        from repro import EmptinessSolver

        job = VerificationJob(triangle_system(), HomTheory(clique_template(2)))
        result = execute_job(job)
        direct = EmptinessSolver(HomTheory(clique_template(2))).check(triangle_system())
        assert result.ok
        assert result.nonempty == direct.nonempty
        assert result.exhausted == direct.exhausted
        assert result.fingerprint == job.fingerprint

    def test_error_capture(self):
        # Schema mismatch: system over the colored schema, theory over graphs.
        job = VerificationJob(
            odd_red_cycle_system(), AllDatabasesTheory(GRAPH_SCHEMA)
        )
        result = execute_job(job)
        assert not result.ok
        assert result.nonempty is None
        assert "SolverError" in result.error


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        job = VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        result = execute_job(job)
        with ResultStore(tmp_path / "store.sqlite") as store:
            assert store.get(job.fingerprint) is None
            store.put(job, result)
            cached = store.get(job.fingerprint)
            assert cached is not None
            assert cached.cached
            assert cached.nonempty == result.nonempty
            assert cached.exhausted == result.exhausted
            assert cached.statistics == result.statistics
            assert job.fingerprint in store
            assert len(store) == 1

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite"
        job = VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        with ResultStore(path) as store:
            store.put(job, execute_job(job))
        with ResultStore(path) as store:
            assert store.get(job.fingerprint) is not None

    def test_rejects_errored_results(self):
        job = VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        errored = JobResult(fingerprint=job.fingerprint, error="boom")
        with ResultStore() as store:
            with pytest.raises(ValueError):
                store.put(job, errored)

    def test_export_and_clear(self, tmp_path):
        job = VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        with ResultStore() as store:
            store.put(job, execute_job(job))
            export = store.export()
            assert export["count"] == 1
            entry = export["results"][0]
            assert entry["fingerprint"] == job.fingerprint
            assert entry["job_spec"]["strategy"] == "bfs"
            out = tmp_path / "dump.json"
            store.export_json(out)
            assert json.loads(out.read_text())["count"] == 1
            assert store.clear() == 1
            assert len(store) == 0


class TestBatchRunner:
    def test_serial_and_parallel_agree(self):
        jobs = _all_theory_jobs()
        serial = BatchRunner(workers=1).run(jobs)
        parallel = BatchRunner(workers=2).run(jobs)
        assert serial.verdicts == parallel.verdicts
        assert not serial.errors and not parallel.errors
        assert [r.fingerprint for r in serial.results] == [
            j.fingerprint for j in jobs
        ]

    def test_warm_cache_round(self):
        jobs = _all_theory_jobs()
        with ResultStore() as store:
            cold = BatchRunner(store=store, workers=1).run(jobs)
            assert cold.executed == len(jobs) and cold.cache_hits == 0
            warm = BatchRunner(store=store, workers=1).run(jobs)
            assert warm.executed == 0 and warm.cache_hits == len(jobs)
            assert warm.verdicts == cold.verdicts
            assert all(r.cached for r in warm.results)

    def test_errors_do_not_poison_store(self):
        good = VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        bad = VerificationJob(odd_red_cycle_system(), AllDatabasesTheory(GRAPH_SCHEMA))
        with ResultStore() as store:
            report = BatchRunner(store=store).run([good, bad])
            assert len(report.errors) == 1
            assert len(store) == 1
            assert bad.fingerprint not in store

    def test_report_shapes(self):
        report = run_batch(
            [VerificationJob(triangle_system(), AllDatabasesTheory(GRAPH_SCHEMA))]
        )
        payload = report.as_dict()
        assert payload["jobs"] == 1
        assert payload["verdict_counts"]["nonempty"] == 1
        assert payload["results"][0]["nonempty"] is True

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)


class TestColoredSpecRoundTrip:
    def test_colored_schema_theory(self):
        theory = AllDatabasesTheory(COLORED_GRAPH_SCHEMA)
        rebuilt = theory_from_spec(theory.to_spec())
        assert rebuilt.schema == theory.schema
