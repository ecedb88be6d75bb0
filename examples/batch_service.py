#!/usr/bin/env python
"""The batch verification service end to end.

Generates a seeded batch of random verification jobs, runs it twice against
a persistent result store -- once cold (engine work), once warm (served
entirely by fingerprint lookup) -- and prints what happened.  Equivalent CLI:

    repro batch --count 20 --seed 7 --workers 2 --store /tmp/verdicts.sqlite
    repro store stats --store /tmp/verdicts.sqlite

Run with ``PYTHONPATH=src python examples/batch_service.py`` from a checkout.
"""

import tempfile
from pathlib import Path

from repro import BatchRunner, ResultStore, VerificationJob, generate_jobs
from repro.library import triangle_system
from repro.relational import GRAPH_SCHEMA, AllDatabasesTheory


def main() -> None:
    # A single job, by hand: the triangle system over all finite graphs.
    job = VerificationJob(
        system=triangle_system(),
        theory=AllDatabasesTheory(GRAPH_SCHEMA),
        strategy="bfs",
        label="triangle",
    )
    print(f"one job, fingerprint {job.fingerprint[:16]}...")

    # A heterogeneous batch from the workload generator: relational, HOM,
    # word, tree and data-value jobs, interleaved, fully seeded.
    jobs = generate_jobs(count=20, seed=7)
    print(f"generated {len(jobs)} jobs: {jobs[0].label} .. {jobs[-1].label}")

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "verdicts.sqlite")
        # The runner's worker pool starts with the cold run and stops when
        # the with block closes the runner.
        with BatchRunner(store=store, workers=2, timeout_seconds=60) as runner:
            cold = runner.run(jobs)
            counts = cold.verdict_counts()
            print(
                f"cold run : {counts['nonempty']} nonempty, {counts['empty']} empty, "
                f"{counts['error']} errors in {cold.elapsed_seconds:.3f}s "
                f"({cold.executed} executed)"
            )

            warm = runner.run(jobs)
            print(
                f"warm run : identical verdicts={warm.verdicts == cold.verdicts} "
                f"in {warm.elapsed_seconds:.4f}s "
                f"({warm.cache_hits} served from the store)"
            )

        speedup = cold.elapsed_seconds / max(warm.elapsed_seconds, 1e-9)
        print(f"cold/warm speedup: {speedup:.0f}x")
        store.close()


if __name__ == "__main__":
    main()
