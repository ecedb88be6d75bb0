"""The batch runner: fan verification jobs out over supervised workers.

The decision procedure is deterministic in the job spec, so parallelism is
embarrassing: each job ships to a worker as its JSON spec, the worker
rebuilds it (``VerificationJob.from_spec``), runs the engine, and returns a
:class:`~repro.service.jobs.JobResult`.  The runner guarantees

* **serial equivalence** -- verdicts are identical to a one-worker run (each
  job is independent and the engine is deterministic; a test and the
  benchmark pipeline cross-check this),
* **fingerprint stability** -- every worker recomputes the fingerprint from
  the shipped spec and the parent verifies it matches, catching any
  non-canonical serialization before it can poison the store,
* **graceful failure** -- a worker error, crash, or timeout yields an
  errored :class:`JobResult` for that job only; the rest of the batch
  proceeds.  Parallel execution runs on the runner's one
  :class:`~repro.service.supervisor.SupervisedPool`, started by its first
  pooled batch and kept until :meth:`BatchRunner.close`: dead workers
  surface as ``worker-crashed`` results, wedged workers are killed at a
  parent-side deadline (``timeout + grace``) and surface as
  ``deadline-exceeded`` -- the batch never hangs on a lost worker,
* **bounded retries** -- a :class:`RetryPolicy` re-executes transiently
  failed jobs (crash/timeout/store-IO) with exponential backoff and jitter;
  deterministic failures (bad specs, engine errors) are never retried.

Results are written to the :class:`~repro.service.store.ResultStore` by the
parent only (SQLite single-writer), and jobs whose fingerprint is already
stored are served from it without spawning any work -- the warm-cache path
the service exists for.  Transient failures are recorded in the store as
non-cacheable rows (observability only) and re-execute on resubmission.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.fraisse.plans import prime_plans
from repro.service.jobs import (
    RETRYABLE_ERROR_CODES,
    JobResult,
    VerificationJob,
    execute_job,
)
from repro.service.store import ResultStore
from repro.service.supervisor import PoolEvent, SupervisedPool

_log = telemetry.get_logger("runner")

#: Worker payload: ``(spec, fingerprint, timeout, correlation log fields)``.
#: The fingerprint rides along so a worker that cannot even rebuild the spec
#: can still report a structured error for the right job.
WorkerPayload = Tuple[Dict[str, Any], str, Optional[float], Dict[str, str]]

#: Parent-side grace margin added to the per-job timeout before a worker is
#: declared wedged and killed (the engine's own deadline gets first shot).
DEFAULT_GRACE_SECONDS = 5.0


def _execute_payload(payload: WorkerPayload) -> JobResult:
    """Rebuild one job from its spec and run it, in this process or a pool worker.

    A completed result carries the memo counts of the job's theory in
    ``statistics["caches"]`` (:meth:`~repro.fraisse.base.DatabaseTheory.memo_counts`):
    plan priming, the search and the certificate build, all on the one
    theory this call built.  They travel with the result from a pool worker
    like every other engine counter.
    """
    spec, fingerprint, timeout_seconds, log_fields = payload
    began = time.perf_counter()
    with telemetry.log_context(**log_fields):
        try:
            job = VerificationJob.from_spec(spec)
        except Exception as exc:  # noqa: BLE001 - a bad spec must not kill the worker
            return JobResult(
                fingerprint=fingerprint,
                label=str(spec.get("label", "")),
                wall_seconds=time.perf_counter() - began,
                error=f"{type(exc).__name__}: {exc}",
                error_code="spec-error",
            )
        # Compile the job's plan guards before the timed run, so the engine
        # time excludes compilation.  They are memoised on the job's own
        # theory and die with it: a pool worker outlives many jobs.
        prime_plans(job.system, job.theory)
        result = execute_job(job, timeout_seconds=timeout_seconds)
        if result.ok:
            result.statistics["caches"] = job.theory.memo_counts()
    result.wall_seconds = time.perf_counter() - began
    return result


def _supervised_entry(payload: WorkerPayload, attempt: int) -> JobResult:
    """Pool-worker entry point: the fault hooks, then :func:`_execute_payload`.

    This only ever runs inside a supervised worker process, so it hosts the
    destructive fault points: ``worker.crash`` hard-kills the process,
    ``worker.hang`` wedges it past its deadline.
    """
    fingerprint = payload[1]
    faults.crash_point("worker.crash", key=fingerprint, attempt=attempt)
    faults.hang_point("worker.hang", key=fingerprint, attempt=attempt)
    result = _execute_payload(payload)
    result.attempts = attempt
    return result


@dataclass(frozen=True)
class RetryPolicy:
    """How transiently failed jobs are re-executed.

    ``max_attempts`` counts total executions (1 = never retry, the
    default).  Backoff for attempt *n* (1-based) is
    ``min(backoff_max_seconds, backoff_base_seconds * backoff_factor**(n-1))``
    randomized down by up to ``jitter`` (a fraction in [0, 1]) so retry
    storms decorrelate.  Only error codes in ``retryable_codes`` are
    retried: crashes, deadline kills, timeouts and store IO are transient;
    spec and engine errors are deterministic in the job and would only
    reproduce.
    """

    max_attempts: int = 1
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 2.0
    jitter: float = 0.5
    retryable_codes: frozenset = RETRYABLE_ERROR_CODES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    @classmethod
    def with_retries(cls, retries: int, **overrides: Any) -> "RetryPolicy":
        """Policy granting ``retries`` extra attempts (the CLI's ``--retries``)."""
        return cls(max_attempts=retries + 1, **overrides)

    def attempts_for(self, job: VerificationJob) -> int:
        """Total attempts for one job; the job's own budget wins when set."""
        if job.retries is not None:
            return job.retries + 1
        return self.max_attempts

    def should_retry(self, result: JobResult, attempt: int, job: VerificationJob) -> bool:
        return (
            result.error is not None
            and result.error_code in self.retryable_codes
            and attempt < self.attempts_for(job)
        )

    def delay_seconds(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based) runs."""
        delay = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * self.backoff_factor ** (attempt - 1),
        )
        draw = (rng or random).random()
        return delay * (1 - self.jitter * draw)


class RunnerStats:
    """Monotonic fault-tolerance counters, exposed as ``repro_*_total`` metrics."""

    __slots__ = (
        "retries",
        "worker_crashes",
        "deadline_exceeded",
        "worker_respawns",
        "store_put_retries",
        "store_put_failures",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.worker_crashes = 0
        self.deadline_exceeded = 0
        self.worker_respawns = 0
        self.store_put_retries = 0
        self.store_put_failures = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def add(self, other: "RunnerStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class BatchReport:
    """Outcome of one batch run; ``results`` is aligned with the input jobs."""

    results: List[JobResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    cache_hits: int = 0
    executed: int = 0
    #: Fault-tolerance counter movement this batch caused (retries, crashes,
    #: deadline kills, respawns) -- the CLI surfaces it in ``--json`` output.
    fault_tolerance: Dict[str, int] = field(default_factory=dict)

    @property
    def verdicts(self) -> List[Optional[bool]]:
        return [result.nonempty for result in self.results]

    @property
    def errors(self) -> List[JobResult]:
        return [result for result in self.results if not result.ok]

    def verdict_counts(self) -> Dict[str, int]:
        """Verdict histogram; "empty" means *definitively* empty.

        A negative answer with ``exhausted=False`` only says the engine hit
        its configuration cap before finding a run -- that is
        "inconclusive", never "empty" (mirroring the "not definitive" note
        ``repro check`` prints for the same situation).
        """
        counts = {"nonempty": 0, "empty": 0, "inconclusive": 0, "error": 0}
        for result in self.results:
            if not result.ok:
                counts["error"] += 1
            elif result.nonempty:
                counts["nonempty"] += 1
            elif result.exhausted:
                counts["empty"] += 1
            else:
                counts["inconclusive"] += 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "workers": self.workers,
            "jobs": len(self.results),
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "verdict_counts": self.verdict_counts(),
            "fault_tolerance": dict(self.fault_tolerance),
            "results": [result.as_dict() for result in self.results],
        }


class FingerprintMismatch(RuntimeError):
    """A worker computed a different fingerprint from the shipped spec."""


class BatchRunner:
    """Run batches of verification jobs, optionally in parallel.

    With ``workers > 1`` the runner owns one
    :class:`~repro.service.supervisor.SupervisedPool`.  The pool starts with
    the runner's first pooled batch and then serves every later batch,
    including batches that concurrent threads run at the same time (the HTTP
    server's executor threads do), until :meth:`close`.  ``close()`` also runs
    when the runner is garbage-collected or the interpreter exits, and the
    runner is a context manager that closes on exit.  A closed runner starts
    no new pool: a later batch that needs one raises ``RuntimeError``.  Pool
    workers are always spawn-started: the HTTP server runs batches off
    executor threads, and forking a multi-threaded process can inherit a
    lock mid-acquisition.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore`; when given, jobs already decided are
        served from it and fresh verdicts are written back.
    workers:
        Number of worker processes.  ``1`` (the default) runs everything in
        the calling process -- the reference behaviour parallel runs must
        reproduce verdict-for-verdict.
    timeout_seconds:
        Per-job wall-clock budget, kept by the engine in this process or a
        pool worker alike: a job past it ends as a ``timeout`` result.  A
        pool also kills a worker wedged past ``timeout + grace``.
    retry_policy:
        :class:`RetryPolicy` for transient failures; the default never
        retries, preserving strict one-shot semantics.
    grace_seconds:
        Parent-side margin over ``timeout_seconds`` before a worker is
        declared wedged.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        timeout_seconds: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if grace_seconds <= 0:
            raise ValueError("grace_seconds must be positive")
        self._store = store
        self._workers = workers
        self._timeout_seconds = timeout_seconds
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._grace_seconds = grace_seconds
        #: Totals over every batch; each batch counts into its own
        #: :class:`RunnerStats` and adds it here under the lock.
        self.stats = RunnerStats()
        self._lock = threading.Lock()
        self._pool: Optional[SupervisedPool] = None
        self._closed = False
        #: Closes the pool when the runner is collected (or at exit); the
        #: callback holds the pool, never the runner.
        self._finalizer: Optional[weakref.finalize] = None

    @property
    def store(self) -> Optional[ResultStore]:
        return self._store

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry_policy

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool, if one started (idempotent)."""
        with self._lock:
            self._closed = True
            finalizer = self._finalizer
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _shared_pool(self) -> SupervisedPool:
        with self._lock:
            if self._closed:
                raise RuntimeError("BatchRunner is closed")
            if self._pool is None:
                _log.debug("starting supervised pool", extra={"workers": self._workers})
                self._pool = SupervisedPool(
                    multiprocessing.get_context("spawn"),
                    self._workers,
                    _supervised_entry,
                    grace_seconds=self._grace_seconds,
                )
                self._finalizer = weakref.finalize(self, self._pool.close)
            return self._pool

    def _add_stats(self, tally: RunnerStats) -> None:
        with self._lock:
            self.stats.add(tally)

    # -- batches -----------------------------------------------------------------

    def run(self, jobs: Sequence[VerificationJob]) -> BatchReport:
        """Execute a batch; the report's results align with ``jobs``."""
        start = time.perf_counter()
        tally = RunnerStats()
        report = BatchReport(workers=self._workers)
        results: List[Optional[JobResult]] = [None] * len(jobs)

        pending: List[Tuple[int, VerificationJob]] = []
        served = (
            self._store.cached_for_many(jobs) if self._store is not None else [None] * len(jobs)
        )
        for index, (job, cached) in enumerate(zip(jobs, served)):
            if cached is not None:
                results[index] = cached
                report.cache_hits += 1
            else:
                pending.append((index, job))

        try:
            if pending:
                pending_jobs = [job for _, job in pending]
                for local_index, result in self._execute(pending_jobs, tally):
                    index, job = pending[local_index]
                    results[index] = result
                    report.executed += 1
                    self._record(job, result, tally)
        finally:
            self._add_stats(tally)

        report.results = [result for result in results if result is not None]
        report.elapsed_seconds = time.perf_counter() - start
        report.fault_tolerance = tally.as_dict()
        _log.info(
            "batch finished",
            extra={
                "jobs": len(jobs),
                "cache_hits": report.cache_hits,
                "executed": report.executed,
                "workers": self._workers,
                "batch_seconds": round(report.elapsed_seconds, 3),
                "retries": tally.retries,
                "worker_crashes": tally.worker_crashes,
            },
        )
        return report

    # -- store write-back --------------------------------------------------------

    def record(self, job: VerificationJob, result: JobResult) -> bool:
        """Write one executed result back to the store (when one is attached).

        Verdicts are written with bounded retries (store IO is a transient,
        retryable failure class -- an injected or real write error must not
        discard a computed verdict).  Transient execution failures are
        recorded as non-cacheable error rows for observability; permanent
        failures are not stored at all.  Store problems never propagate: the
        caller still holds the result.  Returns whether a row was written.
        """
        tally = RunnerStats()
        written = self._record(job, result, tally)
        self._add_stats(tally)
        return written

    def _record(self, job: VerificationJob, result: JobResult, tally: RunnerStats) -> bool:
        if self._store is None:
            return False
        if result.ok:
            attempts = max(3, self._retry_policy.max_attempts)
            for attempt in range(1, attempts + 1):
                try:
                    self._store.put(job, result)
                    return True
                except Exception as exc:  # noqa: BLE001 - store IO must not kill the batch
                    if attempt == attempts:
                        tally.store_put_failures += 1
                        _log.error(
                            "store write failed; verdict not persisted",
                            extra={"fingerprint": result.fingerprint[:12], "error": str(exc)},
                        )
                        return False
                    tally.store_put_retries += 1
                    time.sleep(self._retry_policy.delay_seconds(attempt))
        elif result.error_code in RETRYABLE_ERROR_CODES:
            try:
                self._store.put_error(job, result)
                return True
            except Exception:  # noqa: BLE001 - best-effort observability row
                pass
        return False

    # -- execution ---------------------------------------------------------------

    def execute_indexed(self, jobs: Sequence[VerificationJob]) -> Iterator[Tuple[int, JobResult]]:
        """Execute ``jobs`` (no store involvement), yielding as each completes.

        Yields ``(index, result)`` pairs in completion order -- input order
        for one worker, nondeterministic for a parallel pool -- so callers
        like the HTTP server can stream per-job progress while the rest of
        the batch is still running.  Every result's fingerprint is verified
        against its job before it is yielded (see :class:`FingerprintMismatch`).
        With ``workers > 1`` every job runs in a pool worker, a batch of one
        included, so a job that crashes its process takes down a worker, not
        the caller.
        """
        tally = RunnerStats()
        try:
            yield from self._execute(jobs, tally)
        finally:
            self._add_stats(tally)

    def _execute(
        self, jobs: Sequence[VerificationJob], tally: RunnerStats
    ) -> Iterator[Tuple[int, JobResult]]:
        log_fields = telemetry.current_log_context()
        if self._workers == 1:
            return self._execute_serial(jobs, log_fields, tally)
        return self._execute_supervised(jobs, log_fields, tally)

    def _payload(self, job: VerificationJob, log_fields: Dict[str, str]) -> WorkerPayload:
        return (job.to_spec(), job.fingerprint, self._timeout_seconds, log_fields)

    def _execute_serial(
        self, jobs: Sequence[VerificationJob], log_fields: Dict[str, str], tally: RunnerStats
    ) -> Iterator[Tuple[int, JobResult]]:
        policy = self._retry_policy
        for index, job in enumerate(jobs):
            payload = self._payload(job, log_fields)
            attempt = 1
            while True:
                result = _execute_payload(payload)
                result.attempts = attempt
                if policy.should_retry(result, attempt, job):
                    tally.retries += 1
                    time.sleep(policy.delay_seconds(attempt))
                    attempt += 1
                    continue
                yield index, self._verified(job, index, result)
                break

    def _execute_supervised(
        self, jobs: Sequence[VerificationJob], log_fields: Dict[str, str], tally: RunnerStats
    ) -> Iterator[Tuple[int, JobResult]]:
        policy = self._retry_policy
        # Every job may crash a worker on every allowed attempt; anything
        # past that budget is a crash loop the pool should refuse to feed.
        respawn_budget = self._workers + sum(policy.attempts_for(job) for job in jobs)
        batch = self._shared_pool().batch(max_respawns=respawn_budget)
        payloads = [self._payload(job, log_fields) for job in jobs]
        try:
            for index, payload in enumerate(payloads):
                batch.submit(index, 1, payload, self._timeout_seconds)
            for event in batch.events():
                index, job = event.index, jobs[event.index]
                result = self._event_result(event, job, tally)
                if policy.should_retry(result, event.attempt, job):
                    tally.retries += 1
                    batch.submit_later(
                        policy.delay_seconds(event.attempt),
                        index,
                        event.attempt + 1,
                        payloads[index],
                        self._timeout_seconds,
                    )
                    continue
                yield index, self._verified(job, index, result)
        finally:
            batch.close()
            tally.worker_respawns += batch.respawns

    def _event_result(self, event: PoolEvent, job: VerificationJob, tally: RunnerStats) -> JobResult:
        """Convert one supervision event into a (possibly errored) result."""
        if event.kind == "done":
            return event.result
        if event.kind == "crashed":
            tally.worker_crashes += 1
            return JobResult(
                fingerprint=job.fingerprint,
                label=job.label,
                wall_seconds=event.elapsed_seconds,
                attempts=event.attempt,
                error=(
                    f"worker-crashed: worker process died mid-job "
                    f"(exit code {event.exitcode})"
                ),
                error_code="worker-crashed",
            )
        tally.deadline_exceeded += 1
        return JobResult(
            fingerprint=job.fingerprint,
            label=job.label,
            wall_seconds=event.elapsed_seconds,
            attempts=event.attempt,
            error=(
                f"deadline-exceeded: no result within {self._timeout_seconds}s "
                f"+ {self._grace_seconds}s grace; worker killed"
            ),
            error_code="deadline-exceeded",
        )

    def _verified(self, job: VerificationJob, index: int, result: JobResult) -> JobResult:
        if result.fingerprint != job.fingerprint:
            raise FingerprintMismatch(
                f"job {job.label or index}: parent fingerprint "
                f"{job.fingerprint[:12]} != worker fingerprint "
                f"{result.fingerprint[:12]}; spec serialization is "
                "not canonical"
            )
        if result.error is not None:
            _log.warning(
                "job failed",
                extra={
                    "fingerprint": result.fingerprint[:12],
                    "error": result.error,
                    "error_code": result.error_code,
                    "attempts": result.attempts,
                },
            )
        return result


def run_batch(
    jobs: Sequence[VerificationJob],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    timeout_seconds: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> BatchReport:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    with BatchRunner(
        store=store,
        workers=workers,
        timeout_seconds=timeout_seconds,
        retry_policy=retry_policy,
    ) as runner:
        return runner.run(jobs)
