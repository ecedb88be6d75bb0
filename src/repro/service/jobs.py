"""Verification jobs and their deterministic fingerprints.

A :class:`VerificationJob` bundles everything the decision procedure of
Theorem 5 consumes -- a system, a database theory, a search strategy and the
engine's resource limit.  The procedure is pure and deterministic in these
inputs, so a job is identified by a *fingerprint*: a SHA-256 digest of the
canonical JSON rendering of the job spec.  The spec rendering reuses the
canonical serializations of the engine core (sorted domains and tuples for
structures, sorted symbol tables for schemas, the parser-stable textual
syntax for guards), so equal jobs fingerprint equally in every process --
which is what lets the :class:`~repro.service.store.ResultStore` act as a
cross-process verdict cache.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.certify import build_certificate, encode_certificate
from repro.errors import SearchTimeout
from repro.fraisse.base import DatabaseTheory
from repro.fraisse.engine import EmptinessSolver
from repro.service.specs import theory_from_spec, theory_to_spec
from repro.systems.dds import DatabaseDrivenSystem
from repro.telemetry import TraceRecorder

#: Default engine configuration cap for service jobs: far below the library
#: default because batches run hundreds of heterogeneous jobs and a single
#: pathological instance must not stall the whole batch.
DEFAULT_JOB_MAX_CONFIGURATIONS = 20_000

#: Job-level error codes and what they mean.  The retry policy keys off
#: these: transient infrastructure failures are retryable, deterministic
#: failures of the job itself are not (retrying would reproduce them).
JOB_ERROR_CODES = {
    "timeout": "the engine passed the job's wall-clock budget mid-search (retryable)",
    "deadline-exceeded": (
        "the parent-side deadline (timeout + grace) elapsed with no result; "
        "the worker was killed (retryable)"
    ),
    "worker-crashed": "the worker process died mid-job (retryable)",
    "store-io": "a store write failed after the verdict was computed (retryable)",
    "spec-error": "the job spec could not be rebuilt into a runnable job (not retryable)",
    "engine-error": "the engine raised while deciding the job (not retryable)",
    "runner-error": "the batch runner itself failed before producing results (not retryable)",
    "runner-unavailable": (
        "the coordinator could not reach any runner for the job's shard; "
        "the job was not executed (retryable at the client once a runner returns)"
    ),
}

#: Error codes the default :class:`~repro.service.runner.RetryPolicy`
#: considers transient.
RETRYABLE_ERROR_CODES = frozenset(
    {"timeout", "deadline-exceeded", "worker-crashed", "store-io"}
)


@dataclass(frozen=True)
class VerificationJob:
    """One emptiness query: ``(system, theory, strategy, limits)``."""

    system: DatabaseDrivenSystem
    theory: DatabaseTheory
    strategy: str = "bfs"
    max_configurations: int = DEFAULT_JOB_MAX_CONFIGURATIONS
    label: str = ""
    #: Record a solver trace while executing (opt-in, observability-only).
    trace: bool = False
    #: Build and persist a replayable witness certificate for a nonempty
    #: verdict (opt-in; see :mod:`repro.certify`).
    certificate: bool = False
    #: Per-job retry budget override (extra attempts after the first); None
    #: defers to the runner's :class:`RetryPolicy`.  Execution policy, not
    #: job identity -- excluded from the fingerprint like ``label``/``trace``.
    retries: Optional[int] = None

    def to_spec(self) -> Dict[str, Any]:
        """The JSON-safe wire format of the job (see :meth:`from_spec`)."""
        spec = {
            "system": self.system.to_spec(),
            "theory": theory_to_spec(self.theory),
            "strategy": self.strategy,
            "max_configurations": self.max_configurations,
            "label": self.label,
        }
        if self.trace:
            spec["trace"] = True
        if self.certificate:
            spec["certificate"] = True
        if self.retries is not None:
            spec["retries"] = self.retries
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "VerificationJob":
        retries = spec.get("retries")
        return cls(
            system=DatabaseDrivenSystem.from_spec(spec["system"]),
            theory=theory_from_spec(spec["theory"]),
            strategy=spec.get("strategy", "bfs"),
            max_configurations=spec.get("max_configurations", DEFAULT_JOB_MAX_CONFIGURATIONS),
            label=spec.get("label", ""),
            trace=bool(spec.get("trace", False)),
            certificate=bool(spec.get("certificate", False)),
            retries=int(retries) if retries is not None else None,
        )

    def canonical_json(self) -> str:
        """The canonical JSON rendering the fingerprint is computed over.

        The label, trace/certificate flags and retry budget are
        presentation/execution policy only and excluded, so relabelling a job
        -- or re-running it traced, certified, or with a different retry
        budget -- does not invalidate its cached verdict.  Memoised: the
        runner needs it several times per job (store lookup, wire payload,
        store write) and the spec serialization walks the whole system.
        """
        cached = self.__dict__.get("_canonical_json")
        if cached is None:
            spec = self.to_spec()
            spec.pop("label", None)
            spec.pop("trace", None)
            spec.pop("certificate", None)
            spec.pop("retries", None)
            cached = json.dumps(spec, sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_canonical_json", cached)
        return cached

    @property
    def fingerprint(self) -> str:
        """SHA-256 over :meth:`canonical_json`; stable across processes."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass
class JobResult:
    """Outcome of executing (or cache-serving) one job.

    ``nonempty`` is None when the job errored or timed out; ``error`` then
    carries the reason.  ``cached`` marks results served from the store
    without running the engine.
    """

    fingerprint: str
    label: str = ""
    nonempty: Optional[bool] = None
    exhausted: bool = False
    statistics: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    error: Optional[str] = None
    #: Machine-readable failure class (a :data:`JOB_ERROR_CODES` key) when
    #: ``error`` is set; the retry policy classifies on this, never on the
    #: human-readable message.
    error_code: Optional[str] = None
    #: How many execution attempts this result consumed (1 = first try).
    attempts: int = 1
    cached: bool = False
    witness_size: Optional[int] = None
    run_length: Optional[int] = None
    #: End-to-end wall clock as the executing worker saw it: spec rebuild,
    #: plan priming and the engine run (``elapsed_seconds`` is engine-only).
    wall_seconds: Optional[float] = None
    #: When the stored verdict row was created (set on store reads).
    created_at: Optional[float] = None
    #: Recorded solver trace (:meth:`TraceRecorder.as_dict`) when the job
    #: asked for one; served via its own endpoint, never inlined here.
    trace: Optional[Dict[str, Any]] = None
    #: Encoded witness certificate (:func:`repro.certify.encode_certificate`)
    #: when the job asked for one and the verdict is nonempty; served via the
    #: witness endpoint, never inlined here.
    certificate: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def serves(self, job: VerificationJob) -> bool:
        """Whether this result answers ``job``: it carries every artifact the
        job asks for -- its trace, and the certificate of a nonempty verdict
        (an empty one carries none)."""
        return not (
            (job.trace and self.trace is None)
            or (job.certificate and self.nonempty and self.certificate is None)
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "nonempty": self.nonempty,
            "exhausted": self.exhausted,
            "statistics": self.statistics,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "error": self.error,
            "error_code": self.error_code,
            "attempts": self.attempts,
            "cached": self.cached,
            "witness_size": self.witness_size,
            "run_length": self.run_length,
            "wall_seconds": (
                round(self.wall_seconds, 6) if self.wall_seconds is not None else None
            ),
            "created_at": self.created_at,
            "has_trace": self.trace is not None,
            "has_certificate": self.certificate is not None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobResult":
        """Rebuild a result from its :meth:`as_dict` wire form.

        The coordinator uses this to reconstitute results forwarded by
        runner nodes.  ``has_trace``/``has_certificate`` are presentation-only
        (traces and witness certificates travel via their own endpoints) and
        drop away; unknown keys are ignored so a newer runner can answer an
        older coordinator.
        """
        nonempty = payload.get("nonempty")
        return cls(
            fingerprint=payload["fingerprint"],
            label=payload.get("label", ""),
            nonempty=bool(nonempty) if nonempty is not None else None,
            exhausted=bool(payload.get("exhausted", False)),
            statistics=dict(payload.get("statistics") or {}),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            error=payload.get("error"),
            error_code=payload.get("error_code"),
            attempts=int(payload.get("attempts", 1)),
            cached=bool(payload.get("cached", False)),
            witness_size=payload.get("witness_size"),
            run_length=payload.get("run_length"),
            wall_seconds=payload.get("wall_seconds"),
            created_at=payload.get("created_at"),
        )


def execute_job(job: VerificationJob, timeout_seconds: Optional[float] = None) -> JobResult:
    """Run one job to completion, capturing errors and timeouts.

    ``timeout_seconds`` is the job's wall-clock budget from this call on.
    The engine keeps it (:meth:`EmptinessSolver.check`'s ``deadline``), so it
    holds on any thread of any process; a search that passes it ends as a
    ``timeout`` result.
    """
    fingerprint = job.fingerprint
    start = time.perf_counter()
    deadline = time.monotonic() + timeout_seconds if timeout_seconds else None
    try:
        solver = EmptinessSolver(
            job.theory,
            max_configurations=job.max_configurations,
            strategy=job.strategy,
        )
        recorder = TraceRecorder() if job.trace else None
        result = solver.check(job.system, trace=recorder, deadline=deadline)
        certificate = None
        if job.certificate and result.run is not None:
            certificate = encode_certificate(
                build_certificate(job.system, job.theory, result)
            )
        return JobResult(
            fingerprint=fingerprint,
            label=job.label,
            nonempty=result.nonempty,
            exhausted=result.exhausted,
            statistics=result.statistics.as_dict(),
            elapsed_seconds=time.perf_counter() - start,
            witness_size=(
                result.run.database.size if result.run is not None else None
            ),
            run_length=result.run.length if result.run is not None else None,
            trace=recorder.as_dict() if recorder is not None else None,
            certificate=certificate,
        )
    except SearchTimeout:
        return JobResult(
            fingerprint=fingerprint,
            label=job.label,
            elapsed_seconds=time.perf_counter() - start,
            error=f"timeout: job exceeded {timeout_seconds}s",
            error_code="timeout",
        )
    except Exception as exc:  # noqa: BLE001 - batch jobs must not kill the runner
        return JobResult(
            fingerprint=fingerprint,
            label=job.label,
            elapsed_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            # Engine/library exceptions are deterministic in the job spec:
            # retrying reproduces them, so they classify as non-retryable.
            error_code="engine-error",
        )
