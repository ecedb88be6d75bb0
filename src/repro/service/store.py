"""The persistent, fingerprint-keyed result store.

Verdicts of the decision procedure are pure functions of the job fingerprint
(see :mod:`repro.service.jobs`), so the store is a plain key-value table:
``fingerprint -> (verdict, engine statistics, witness summary, job spec)``.
Persistence is delegated to a pluggable :class:`StoreBackend`
(:mod:`repro.service.backends`): SQLite for durable single-host stores, an
in-memory keyspace for tests and the HTTP server's default configuration,
and a protocol shaped so a Redis/HTTP keyspace slots in without touching
this layer.  ``export_json`` renders the whole table for offline analysis
and the benchmark pipeline.

A stored verdict is a fact keyed by its fingerprint, so the store costs one
backend call per request and one per verdict: :meth:`ResultStore.cached_for_many`
looks up every job of a request at once, and :meth:`ResultStore.put` is one
write (the backend keeps stored artifacts the write lacks).

The store owns retention *policy* on top of the backend mechanisms:

* **TTL** -- with ``ttl_seconds`` set, entries older than the budget are
  treated as absent (and lazily deleted) on read; ``purge_expired`` sweeps
  eagerly.
* **Eviction** -- with ``max_entries`` set, writes evict the oldest entries
  beyond the cap, so a long-running server's cache stays bounded.

Errored and timed-out jobs are **never cached as verdicts**: ``put``
rejects them, and the only way to store one is :meth:`ResultStore.put_error`,
which writes a short-lived *non-cacheable* row (``cacheable=0`` plus its own
``expires_at``).  Such rows are invisible to the warm-cache path -- ``get``
reports a miss and the job re-executes on resubmission -- but remain
inspectable (``get(..., include_errors=True)``) so operators can see *why*
a fingerprint keeps failing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro import faults
from repro.service.backends import (
    MemoryBackend,
    SQLiteBackend,
    StoreBackend,
    backend_from_url,
    row_expired,
)
from repro.service.jobs import JobResult, VerificationJob

#: How long a transient-failure row stays visible before it lazily expires.
DEFAULT_ERROR_TTL_SECONDS = 300.0

#: Error code of a fleet-wide in-flight claim row (see ``try_claim``).
CLAIM_ERROR_CODE = "in-flight"

#: How long a claim row blocks duplicate execution before a dead claimer's
#: claim can be taken over.  Bounds the damage of a node crashing mid-job:
#: other nodes re-execute after at most this long.
DEFAULT_CLAIM_TTL_SECONDS = 120.0


class StoreStats:
    """Monotonic per-store counters, exposed as ``repro_store_*`` metrics.

    Counting happens at the store layer (not the backend) so every backend
    gets the same instrumentation for free; all fields only ever increase.
    """

    __slots__ = ("gets", "hits", "misses", "puts", "error_puts", "evictions", "ttl_expirations")

    def __init__(self) -> None:
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.error_puts = 0
        self.evictions = 0
        self.ttl_expirations = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "error_puts": self.error_puts,
            "evictions": self.evictions,
            "ttl_expirations": self.ttl_expirations,
        }


class ResultStore:
    """A fingerprint-keyed verdict store over a pluggable backend.

    Parameters
    ----------
    path:
        Database file for the default SQLite backend; ``":memory:"`` (the
        default) keeps the store process-local, which is what the tests and
        one-shot batches use.  Ignored when ``backend`` is given.
    backend:
        Explicit :class:`StoreBackend`; overrides ``path``.
    ttl_seconds:
        Optional time-to-live; entries older than this read as missing.
    max_entries:
        Optional cap; writes evict oldest entries beyond it.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        *,
        backend: Optional[StoreBackend] = None,
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 when set")
        self._backend: StoreBackend = backend if backend is not None else SQLiteBackend(path)
        self._ttl_seconds = ttl_seconds
        self._max_entries = max_entries
        self.stats = StoreStats()

    @classmethod
    def in_memory(
        cls,
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> "ResultStore":
        """A store over the dictionary backend (no SQLite, no persistence)."""
        return cls(backend=MemoryBackend(), ttl_seconds=ttl_seconds, max_entries=max_entries)

    @classmethod
    def from_url(
        cls,
        spec: Union[str, Path],
        *,
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        token: Optional[str] = None,
    ) -> "ResultStore":
        """A store over whatever backend the URL-style ``spec`` names.

        ``memory:``, ``sqlite:PATH``, ``http://HOST:PORT`` (a ``repro store
        serve`` keyspace, reached through
        :class:`~repro.service.client.HTTPBackend` with ``token`` attached)
        or a bare SQLite path -- the one addressing scheme every CLI
        ``--store`` flag accepts.
        """
        return cls(
            backend=backend_from_url(spec, token=token),
            ttl_seconds=ttl_seconds,
            max_entries=max_entries,
        )

    @property
    def path(self) -> str:
        """Backend location tag (the SQLite path, or the backend name)."""
        return getattr(self._backend, "path", self._backend.name)

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    @property
    def ttl_seconds(self) -> Optional[float]:
        return self._ttl_seconds

    # -- core operations ---------------------------------------------------------

    def _live(self, fingerprint: str, row: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """``row`` unless it has expired, in which case it is reaped (None)."""
        if row is not None and row_expired(row, time.time(), self._ttl_seconds):
            if self._backend.delete(fingerprint):
                self.stats.ttl_expirations += 1
            return None
        return row

    def get(self, fingerprint: str, include_errors: bool = False) -> Optional[JobResult]:
        """The stored result for a fingerprint, marked ``cached=True``.

        Non-cacheable rows (transient failures recorded by
        :meth:`put_error`) read as misses unless ``include_errors`` is set:
        an error must never be served where a verdict is expected, and a
        resubmitted job must re-execute.
        """
        return self._result(fingerprint, self._backend.get(fingerprint), include_errors)

    def _result(
        self, fingerprint: str, row: Optional[Dict[str, Any]], include_errors: bool = False
    ) -> Optional[JobResult]:
        """The result a backend ``row`` holds, counted as one lookup."""
        self.stats.gets += 1
        row = self._live(fingerprint, row)
        if row is None or (not row.get("cacheable", 1) and not include_errors):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        trace_json = row.get("trace")
        error = row.get("error")
        return JobResult(
            fingerprint=row["fingerprint"],
            label=row["label"],
            nonempty=bool(row["nonempty"]) if error is None else None,
            exhausted=bool(row["exhausted"]) if error is None else False,
            elapsed_seconds=row["elapsed_seconds"],
            witness_size=row["witness_size"],
            run_length=row["run_length"],
            statistics=json.loads(row["statistics"]),
            cached=True,
            wall_seconds=row.get("wall_seconds"),
            created_at=row["created_at"],
            trace=json.loads(trace_json) if trace_json else None,
            error=error,
            error_code=row.get("error_code"),
            certificate=row.get("certificate"),
        )

    def cached_for(self, job: VerificationJob) -> Optional[JobResult]:
        """The stored verdict that serves ``job``, or None (see :meth:`cached_for_many`)."""
        return self.cached_for_many([job])[0]

    def cached_for_many(self, jobs: Sequence[VerificationJob]) -> List[Optional[JobResult]]:
        """The stored verdicts that serve ``jobs``, aligned with them; one backend call.

        Each job is one lookup, with the rules of :meth:`get`: a
        non-cacheable row reads as a miss and an expired row is reaped.  A
        verdict stored without an artifact the job requests
        (:meth:`JobResult.serves`) does not serve it: the job re-executes to
        the same verdict, and the rewritten row carries the artifact.  A
        served result carries the job's label, or the row's when the job has
        none.
        """
        if not jobs:
            return []
        rows = self._backend.get_many([job.fingerprint for job in jobs])
        served: List[Optional[JobResult]] = []
        for job, row in zip(jobs, rows):
            cached = self._result(job.fingerprint, row)
            if cached is not None and cached.serves(job):
                cached.label = job.label or cached.label
                served.append(cached)
            else:
                served.append(None)
        return served

    def put(self, job: VerificationJob, result: JobResult) -> None:
        """Store a completed verdict in one backend write (errored results are rejected).

        A verdict written without a trace or certificate keeps the ones the
        stored verdict row carries: the backend applies that carry-forward
        rule inside the write (:func:`~repro.service.backends.carry_artifacts`),
        so an artifact-less rewrite of a verdict another writer recorded
        with artifacts cannot erase them, and no read precedes the write.
        Transient failures go through :meth:`put_error` instead, which
        marks them non-cacheable -- they are *never* valid warm verdicts.
        """
        if not result.ok or result.nonempty is None:
            raise ValueError("only completed results belong in the store")
        faults.raise_point("store.put", key=result.fingerprint)
        trace_json = (
            json.dumps(result.trace, sort_keys=True) if result.trace is not None else None
        )
        self._backend.put(
            result.fingerprint,
            {
                "fingerprint": result.fingerprint,
                "created_at": time.time(),
                "label": result.label,
                "nonempty": int(result.nonempty),
                "exhausted": int(result.exhausted),
                "elapsed_seconds": result.elapsed_seconds,
                "witness_size": result.witness_size,
                "run_length": result.run_length,
                "statistics": json.dumps(result.statistics, sort_keys=True),
                "job_spec": job.canonical_json(),
                "wall_seconds": result.wall_seconds,
                "trace": trace_json,
                "error": None,
                "error_code": None,
                "cacheable": 1,
                "expires_at": None,
                "certificate": result.certificate,
            },
        )
        self.stats.puts += 1
        self._evict_excess()

    def put_error(
        self,
        job: VerificationJob,
        result: JobResult,
        ttl_seconds: float = DEFAULT_ERROR_TTL_SECONDS,
    ) -> None:
        """Record a transient failure as a short-lived, non-cacheable row.

        The row documents *why* the fingerprint most recently failed (for
        ``GET /v1/jobs/{fingerprint}`` style inspection) without ever being
        served as a verdict: ``get`` skips it and the job re-executes on
        resubmission.  A later successful :meth:`put` simply overwrites it.
        """
        if result.error is None:
            raise ValueError("put_error requires an errored result")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        now = time.time()
        self._backend.put(
            result.fingerprint,
            {
                "fingerprint": result.fingerprint,
                "created_at": now,
                "label": result.label,
                "nonempty": 0,
                "exhausted": 0,
                "elapsed_seconds": result.elapsed_seconds,
                "witness_size": None,
                "run_length": None,
                "statistics": json.dumps(result.statistics, sort_keys=True),
                "job_spec": job.canonical_json(),
                "wall_seconds": result.wall_seconds,
                "trace": None,
                "error": result.error,
                "error_code": result.error_code,
                "cacheable": 0,
                "expires_at": now + ttl_seconds,
                "certificate": None,
            },
        )
        self.stats.error_puts += 1
        self._evict_excess()

    # -- fleet-wide in-flight claims ----------------------------------------------

    @property
    def is_shared(self) -> bool:
        """True when the backend is a remote keyspace other nodes also use."""
        return str(self._backend.name).startswith(("http://", "https://"))

    def _claim_row(self, job: VerificationJob, owner: str, ttl_seconds: float) -> Dict[str, Any]:
        now = time.time()
        return {
            "fingerprint": job.fingerprint,
            "created_at": now,
            "label": job.label,
            "nonempty": 0,
            "exhausted": 0,
            "elapsed_seconds": 0.0,
            "witness_size": None,
            "run_length": None,
            "statistics": "{}",
            "job_spec": job.canonical_json(),
            "wall_seconds": None,
            "trace": None,
            "error": owner,
            "error_code": CLAIM_ERROR_CODE,
            "cacheable": 0,
            "expires_at": now + ttl_seconds,
            "certificate": None,
        }

    def try_claim(
        self,
        job: VerificationJob,
        owner: str = "",
        ttl_seconds: float = DEFAULT_CLAIM_TTL_SECONDS,
    ) -> bool:
        """Atomically claim ``job``'s fingerprint for execution fleet-wide.

        The claim is a short-lived non-cacheable row (``error_code
        "in-flight"``, ``error`` = ``owner``): invisible to the warm path,
        but its presence tells every other node sharing the backend that the
        fingerprint is already being executed.  Returns True when this call
        won the claim (caller executes, then ``put`` overwrites the claim
        with the verdict); False when a live verdict or another node's live
        claim exists (caller polls ``get`` instead of executing).

        Dead claimers cannot wedge the fleet: an expired claim -- or any
        expired row, e.g. an old transient-failure record -- is taken over
        via compare-and-put, keyed on the ``created_at`` we just read so two
        takeover racers cannot both win.
        """
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        row = self._claim_row(job, owner, ttl_seconds)
        if self._backend.put_if_absent(job.fingerprint, row):
            return True
        current = self._backend.get(job.fingerprint)
        if current is None:
            # The competing row vanished between the two calls (expired and
            # reaped, or deleted); one more absent-insert decides it.
            return self._backend.put_if_absent(job.fingerprint, row)
        if row_expired(current, time.time(), self._ttl_seconds) or (
            not current.get("cacheable", 1)
            and current.get("error_code") != CLAIM_ERROR_CODE
        ):
            # Stale row, or a live transient-failure record (which a
            # resubmission is allowed to overwrite by re-executing).
            return self._backend.compare_and_put(
                job.fingerprint, row, current["created_at"]
            )
        return False

    def _evict_excess(self) -> None:
        if self._max_entries is None:
            return
        excess = self._backend.count() - self._max_entries
        if excess > 0:
            for key in self._backend.oldest_keys(excess):
                if self._backend.delete(key):
                    self.stats.evictions += 1

    def purge_expired(self) -> int:
        """Eagerly delete every expired entry; returns the number removed."""
        if self._ttl_seconds is None:
            return 0
        removed = 0
        for key in self._backend.expired_keys(time.time() - self._ttl_seconds):
            if self._backend.delete(key):
                removed += 1
        self.stats.ttl_expirations += removed
        return removed

    def __contains__(self, fingerprint: object) -> bool:
        if not isinstance(fingerprint, str):
            return False
        return self._live(fingerprint, self._backend.get(fingerprint)) is not None

    def __len__(self) -> int:
        # Purge first so counts agree with get()/__contains__ semantics:
        # an expired entry must never be reported as present anywhere.
        self.purge_expired()
        return self._backend.count()

    def fingerprints(self) -> Iterator[str]:
        self.purge_expired()
        yield from self._backend.keys()

    def clear(self) -> int:
        """Delete every stored result; returns the number removed."""
        return self._backend.clear()

    # -- export -------------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """A JSON-ready dump of the whole store (verdicts + specs)."""
        self.purge_expired()
        entries = []
        for row in self._backend.rows():
            entries.append(
                {
                    "fingerprint": row["fingerprint"],
                    "created_at": row["created_at"],
                    "label": row["label"],
                    "nonempty": bool(row["nonempty"]),
                    "exhausted": bool(row["exhausted"]),
                    "elapsed_seconds": row["elapsed_seconds"],
                    "witness_size": row["witness_size"],
                    "run_length": row["run_length"],
                    "statistics": json.loads(row["statistics"]),
                    "job_spec": json.loads(row["job_spec"]),
                    "wall_seconds": row.get("wall_seconds"),
                    "has_trace": bool(row.get("trace")),
                    "has_certificate": bool(row.get("certificate")),
                    "error": row.get("error"),
                    "error_code": row.get("error_code"),
                    "cacheable": bool(row.get("cacheable", 1)),
                }
            )
        return {
            "schema_version": 4,
            "backend": self._backend.name,
            "ttl_seconds": self._ttl_seconds,
            "count": len(entries),
            "results": entries,
        }

    def export_json(self, path: Union[str, Path]) -> None:
        """Write :meth:`export` to a file."""
        Path(path).write_text(json.dumps(self.export(), indent=2) + "\n")

    # -- lifecycle ----------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush buffered writes to durable storage (graceful-drain hook)."""
        self._backend.checkpoint()

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
