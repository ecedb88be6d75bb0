"""Batch verification service: fingerprinted jobs, result store, batch runner.

The decision procedure of Theorem 5 is pure and deterministic given
``(system, theory, strategy)``, so verdicts are perfectly cacheable and
trivially parallel.  This package turns that observation into a service
layer:

* :class:`~repro.service.jobs.VerificationJob` -- one emptiness query with a
  deterministic SHA-256 fingerprint over its canonical JSON spec;
* :class:`~repro.service.store.ResultStore` -- a SQLite-backed verdict cache
  keyed by fingerprint, with a JSON export;
* :class:`~repro.service.runner.BatchRunner` -- fans jobs out over
  supervised ``multiprocessing`` workers with per-job timeout/error capture,
  serial-equivalence guarantees, crash/deadline detection and a bounded
  :class:`~repro.service.runner.RetryPolicy` for transient failures.

Random workloads to drive it live in :mod:`repro.workloads`; the CLI front
doors are ``repro batch`` / ``repro store`` for one-shot runs and ``repro
serve`` -- the async HTTP service of :mod:`repro.service.server`, with
store-first serving and in-flight fingerprint dedup -- for always-on
deployments.  Persistence is pluggable through the
:class:`~repro.service.backends.StoreBackend` keyspace protocol, with
URL-style addressing (``sqlite:PATH``, ``memory:``, ``http://host:port``)
via :func:`~repro.service.backends.backend_from_url`.

The distributed tier builds on the same two surfaces: ``repro store serve``
(:mod:`repro.service.keyspace`) publishes any backend over the canonical
wire format for :class:`~repro.service.client.HTTPBackend` clients, and a
:class:`~repro.service.coordinator.CoordinatorService` shards fingerprints
across runner nodes behind the unchanged ``/v1`` job API.
"""

from repro.service.backends import (
    ROW_SCHEMA_VERSION,
    MemoryBackend,
    SQLiteBackend,
    StoreBackend,
    backend_from_url,
)
from repro.service.client import (
    HTTPBackend,
    ServiceClient,
    ServiceError,
    jobs_to_wire,
    post_jobs,
)
from repro.service.coordinator import CoordinatorService
from repro.service.keyspace import KeyspaceService
from repro.service.jobs import (
    DEFAULT_JOB_MAX_CONFIGURATIONS,
    JOB_ERROR_CODES,
    RETRYABLE_ERROR_CODES,
    JobResult,
    VerificationJob,
    execute_job,
)
from repro.service.runner import (
    BatchReport,
    BatchRunner,
    FingerprintMismatch,
    RetryPolicy,
    run_batch,
)
from repro.service.server import (
    API_VERSION,
    ERROR_CODES,
    SERVICE_ROUTES,
    ApiError,
    ServerThread,
    VerificationService,
    run_server,
)
from repro.service.specs import THEORY_KINDS, theory_from_spec, theory_to_spec
from repro.service.store import ResultStore

__all__ = [
    "StoreBackend",
    "SQLiteBackend",
    "MemoryBackend",
    "HTTPBackend",
    "backend_from_url",
    "ROW_SCHEMA_VERSION",
    "KeyspaceService",
    "CoordinatorService",
    "SERVICE_ROUTES",
    "VerificationService",
    "ServerThread",
    "run_server",
    "API_VERSION",
    "ERROR_CODES",
    "ApiError",
    "ServiceClient",
    "ServiceError",
    "jobs_to_wire",
    "post_jobs",
    "VerificationJob",
    "JobResult",
    "execute_job",
    "DEFAULT_JOB_MAX_CONFIGURATIONS",
    "ResultStore",
    "BatchRunner",
    "BatchReport",
    "RetryPolicy",
    "FingerprintMismatch",
    "run_batch",
    "JOB_ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "THEORY_KINDS",
    "theory_from_spec",
    "theory_to_spec",
]
