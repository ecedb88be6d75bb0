"""A job's wall-clock budget is kept by the engine, on every runner path.

``EmptinessSolver.check`` takes an absolute ``time.monotonic()`` deadline and
raises ``SearchTimeout`` once it has passed; ``execute_job`` turns that into
the ``timeout`` error code.  So ``--timeout`` means the same on the in-process
runner (``workers=1``, which the HTTP server runs on an executor thread) and
in a pool worker.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.errors import SearchTimeout
from repro.fraisse.engine import EmptinessSolver
from repro.fraisse.search import BreadthFirstStrategy
from repro.library import triangle_system
from repro.relational import HomTheory, clique_template
from repro.service import ServiceClient
from repro.service.server import ServerThread
from repro.telemetry import parse_exposition
from repro.workloads import generate_jobs

#: The search budget of the service tests.  The seed-7 ``tree_wide`` job
#: runs ~15 s to its cap without one, far past 5x this budget.
BUDGET_SECONDS = 1.0


def _slow_job():
    return generate_jobs(1, seed=7, families=["tree_wide"])[0]


def _solver(job):
    return EmptinessSolver(
        job.theory, max_configurations=job.max_configurations, strategy=job.strategy
    )


@pytest.mark.parametrize(
    "strategy", ["bfs", BreadthFirstStrategy], ids=["seeds-on-demand", "eager-seeds"]
)
def test_a_passed_deadline_stops_the_search_within_one_pop(strategy):
    # HOM seeds cover their keys, so a named strategy takes seeds on demand;
    # a strategy factory makes the same search seed eagerly.
    theory = HomTheory(clique_template(3))
    assert theory.seeds_cover_keys
    solver = EmptinessSolver(theory, strategy=strategy)
    with pytest.raises(SearchTimeout) as raised:
        solver.check(triangle_system(), deadline=time.monotonic())
    statistics = raised.value.statistics
    assert statistics.configurations_explored <= 1
    # The eager loop checks before each seed, so no seed was built.
    assert statistics.candidates_generated == 0


def test_a_deadline_mid_drive_stops_a_long_search():
    job = _slow_job()
    started = time.monotonic()
    with pytest.raises(SearchTimeout) as raised:
        _solver(job).check(job.system, deadline=started + 0.3)
    assert time.monotonic() - started < 0.3 + 0.5
    assert raised.value.statistics.candidates_generated > 0


def test_a_far_deadline_changes_no_result():
    jobs = generate_jobs(16, seed=5, max_configurations=12)
    for job in jobs:
        plain = _solver(job).check(job.system)
        timed = _solver(job).check(job.system, deadline=time.monotonic() + 3600)
        assert (timed.nonempty, timed.exhausted) == (plain.nonempty, plain.exhausted)
        counters = {
            name: value
            for name, value in plain.statistics.as_dict().items()
            if name != "elapsed_seconds"
        }
        assert {
            name: value
            for name, value in timed.statistics.as_dict().items()
            if name != "elapsed_seconds"
        } == counters


def _submit_slow_job(timeout_seconds, workers):
    job = _slow_job()
    with ServerThread(workers=workers, timeout_seconds=timeout_seconds) as server:
        with ServiceClient(server.base_url) as client:
            started = time.monotonic()
            answer = client.submit_job(job)
            elapsed = time.monotonic() - started
            metrics = parse_exposition(client.metrics())
    return answer["result"], elapsed, metrics


def test_in_process_runner_answers_timeout_within_the_budget():
    result, elapsed, _ = _submit_slow_job(BUDGET_SECONDS, workers=1)
    assert result["error_code"] == "timeout", result
    assert result["nonempty"] is None
    assert elapsed < BUDGET_SECONDS + 0.5, elapsed
    print(f"workers=1: timeout answered after {elapsed:.3f}s of a {BUDGET_SECONDS}s budget")


def test_pool_runner_answers_timeout_not_a_deadline_kill():
    result, elapsed, metrics = _submit_slow_job(BUDGET_SECONDS, workers=2)
    assert result["error_code"] == "timeout", result
    assert metrics.samples.get(("repro_deadline_exceeded_total", ()), 0.0) == 0.0
    print(f"workers=2: timeout answered after {elapsed:.3f}s (pool start included)")


def test_batch_cli_on_the_main_thread_still_times_out(capsys):
    argv = ["batch", "--count", "1", "--seed", "7", "--families", "tree_wide",
            "--timeout", str(BUDGET_SECONDS), "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert [result["error_code"] for result in report["results"]] == ["timeout"]
