"""Verdict identity against a committed record of engine results.

``tests/data/golden_verdicts.json`` holds, for every job built by
:func:`golden_jobs` under each of bfs, dfs and priority: the job
fingerprint, the strategy, the verdict, whether the search was exhausted,
the number of configurations it explored, and the sha256 of the decoded
certificate's canonical JSON (nonempty verdicts only).  The test rebuilds
each job, runs it through :func:`repro.service.jobs.execute_job` and asserts
every field is unchanged, so an engine optimisation that moves any verdict,
cap outcome, explored count or witness shows here.

The jobs mirror the ``engine_cold`` benchmark mix at its caps (light
families at 12, the heavy profile at 40, ``hom_deep`` at 15, ``tree_wide``
at 1 and 2), plus uncapped relational and HOM systems with a back edge into
an initial state, and a system with two initial states, built once with a
non-initial accepting state and once with an accepting initial state.

The record is data, not a tolerance: regenerate it only on purpose, when a
change is meant to move a verdict, by running
``PYTHONPATH=src python tests/test_golden_verdicts.py`` from the repository
root, and say in CHANGES.md which commit wrote it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.certify import decode_certificate, render_certificate
from repro.fraisse.search import STRATEGY_NAMES
from repro.perf import caches_disabled
from repro.relational import GRAPH_SCHEMA, AllDatabasesTheory, HomTheory, clique_template
from repro.service.jobs import VerificationJob, execute_job
from repro.systems.dds import DatabaseDrivenSystem
from repro.workloads import FAMILIES, generate_jobs

RECORD = Path(__file__).parent / "data" / "golden_verdicts.json"


def enters_initial_state(system: DatabaseDrivenSystem) -> bool:
    """Whether some transition leads back into an initial state."""
    return any(t.target in system.initial_states for t in system.transitions)


def _distinct(jobs: List[VerificationJob], limit: int) -> List[VerificationJob]:
    kept: Dict[str, VerificationJob] = {}
    for job in jobs:
        kept.setdefault(job.fingerprint, job)
    return list(kept.values())[:limit]


def _two_initial_states(accepting: str) -> DatabaseDrivenSystem:
    """Initial states ``a`` and ``b``; ``accepting`` names the accepting one."""
    return DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA,
        registers=["x", "y"],
        states=["a", "b", "c", "d"],
        initial=["a", "b"],
        accepting=accepting,
        transitions=[
            ("a", "E(x_old, y_new) & x_new = y_old", "c"),
            ("b", "E(y_old, x_old) & !(x_new = y_new)", "c"),
            ("c", "E(x_old, x_new) & E(x_new, y_new)", "a"),
            ("c", "E(y_new, y_old) & x_old = x_new", "d"),
        ],
    )


def golden_jobs() -> List[VerificationJob]:
    """The recorded jobs, each under every built-in strategy."""
    base: List[VerificationJob] = []
    base += generate_jobs(60, seed=1801, families=FAMILIES, max_configurations=12)
    base += _distinct(generate_jobs(120, seed=1802, profile="heavy", max_configurations=40), 24)
    base += generate_jobs(8, seed=1803, families=["hom_deep"], max_configurations=15)
    tree_wide = generate_jobs(1, seed=1804, families=["tree_wide"])[0]
    base += [dataclasses.replace(tree_wide, max_configurations=cap) for cap in (1, 2)]
    # Uncapped: the families' own caps, which these small systems never reach.
    base += [
        job
        for job in generate_jobs(400, seed=1805, families=["relational", "hom"])
        if enters_initial_state(job.system)
    ][:24]
    for accepting in ("d", "b"):
        system = _two_initial_states(accepting)
        for theory in (AllDatabasesTheory(GRAPH_SCHEMA), HomTheory(clique_template(2))):
            base.append(VerificationJob(system, theory, max_configurations=400))
    return [
        dataclasses.replace(job, strategy=strategy, certificate=True)
        for job in base
        for strategy in STRATEGY_NAMES
    ]


def verdict_row(job: VerificationJob) -> Dict[str, Any]:
    result = execute_job(job)
    assert result.error is None, f"{job.label or job.fingerprint}: {result.error}"
    certificate = None
    if result.certificate is not None:
        rendered = render_certificate(decode_certificate(result.certificate))
        certificate = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    return {
        "fingerprint": job.fingerprint,
        "strategy": job.strategy,
        "nonempty": result.nonempty,
        "exhausted": result.exhausted,
        "configurations_explored": result.statistics["configurations_explored"],
        "certificate_sha256": certificate,
    }


def test_verdicts_match_golden_record():
    recorded = json.loads(RECORD.read_text())["rows"]
    jobs = golden_jobs()
    assert [job.fingerprint for job in jobs] == [row["fingerprint"] for row in recorded]
    mismatches = [
        (row, expected)
        for row, expected in zip(map(verdict_row, jobs), recorded)
        if row != expected
    ]
    assert mismatches == []


def test_legacy_path_matches_golden_record_on_seeding_cases():
    """Seeding is shared by the compiled-plan and the cache-free path."""
    recorded = {row["fingerprint"]: row for row in json.loads(RECORD.read_text())["rows"]}
    jobs = [
        job
        for job in golden_jobs()
        if enters_initial_state(job.system)
        or job.system.accepting_states & job.system.initial_states
    ]
    with caches_disabled():
        rows = [verdict_row(job) for job in jobs]
    assert [row for row in rows if row != recorded[row["fingerprint"]]] == []


def test_golden_record_covers_the_seeding_cases():
    jobs = golden_jobs()
    assert {job.strategy for job in jobs} == set(STRATEGY_NAMES)
    assert sum(enters_initial_state(job.system) for job in jobs) >= 3 * 24
    assert any(job.system.accepting_states & job.system.initial_states for job in jobs)


def _write_record() -> None:
    rows = [verdict_row(job) for job in golden_jobs()]
    RECORD.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    RECORD.write_text('{"rows": [\n' + lines + "\n]}\n")
    print(f"wrote {len(rows)} rows to {RECORD}")


if __name__ == "__main__":
    _write_record()
