"""The production HTTP front door: ``repro serve``.

An ``asyncio`` HTTP/1.1 service (stdlib only, matching the repository's
zero-dependency rule) that turns the batch verification service into an
always-on endpoint hardened for sustained mixed cold/warm traffic:

* **Store-first.**  Every job is looked up in the
  :class:`~repro.service.store.ResultStore` before any work is scheduled;
  cached verdicts are served without touching a worker.
* **In-flight fingerprint dedup.**  Identical jobs submitted concurrently
  share one engine execution: the first submission registers an
  ``asyncio.Future`` per fingerprint, later submissions await that future
  instead of executing.  Combined with the store this guarantees each
  fingerprint runs the engine at most once per server lifetime (TTL expiry
  aside), no matter how many clients ask.
* **Non-blocking execution.**  Fresh jobs run on the worker pool of the
  service's one :class:`~repro.service.runner.BatchRunner`, which stays up
  from the first pooled batch until :meth:`VerificationService.stop` and
  serves concurrent batches, bridged off the event loop with
  ``run_in_executor``; per-job completions are marshalled back with
  ``call_soon_threadsafe``, so batch progress streams while the pool is
  still working.
* **Keep-alive connections.**  HTTP/1.1 persistent connections with request
  pipelining, an idle timeout between requests, a read budget per request
  (slowloris guard), and a connection cap (over-cap connects are answered
  ``503`` and closed).
* **Load-shedding.**  Work-bearing requests (``POST /v1/jobs``) pass a
  bounded admission gate; over-limit requests are shed with ``429`` +
  ``Retry-After`` instead of queueing without bound.  Queue depth and shed
  counts are tracked and exported.
* **Graceful drain.**  ``SIGTERM``/``SIGINT`` stop admission (new work gets
  ``503`` + ``Retry-After``, code ``draining``), let in-flight batches
  finish within ``--drain-timeout``, checkpoint the store and exit ``0``.
  Transient job failures (worker crashes, deadline kills) are retried per
  a configurable :class:`~repro.service.runner.RetryPolicy` and recorded as
  short-lived non-cacheable store rows, never as verdicts.
* **Auth.**  Optional shared-secret token auth (``Authorization: Bearer``
  or ``X-Auth-Token``, compared constant-time via :func:`hmac.compare_digest`)
  with distinct ``401`` (missing) / ``403`` (wrong) paths; ``/v1/healthz``
  stays open for probes.
* **Observability.**  ``GET /v1/stats`` reports queue depth, connection
  counts, per-endpoint latency percentiles (p50/p95/p99 over a sliding
  window), store counters and a cumulative engine search rollup;
  ``GET /v1/metrics`` exports the whole stack -- service counters, request
  latency, engine cache/plan/search families, store counters and
  worker-pool totals -- through one :class:`~repro.telemetry.MetricsRegistry`
  in Prometheus text exposition format.  Jobs submitted with
  ``"trace": true`` persist a solver trace served by
  ``GET /v1/jobs/{fingerprint}/trace``; structured JSON logs with
  request-id/fingerprint correlation are enabled via ``run_server``'s
  ``log_level``/``log_json``.

Wire format -- the canonical JSON job specs of :mod:`repro.service.jobs`,
mounted under the versioned ``/v1`` prefix:

* ``POST /v1/jobs`` with a single spec object decides one job and returns
  its result; with ``{"jobs": [spec, ...]}`` it runs a batch
  (``"wait": false`` returns ``202`` immediately with a batch id).  A spec
  may carry an optional client-computed ``"fingerprint"``, which the server
  verifies against its own canonical fingerprint (``409`` on mismatch).
* ``GET /v1/jobs/{fingerprint}`` serves a stored verdict (``404`` if absent);
  ``GET /v1/jobs/{fingerprint}/trace`` serves its recorded solver trace.
* ``GET /v1/batch/{id}`` reports batch status; ``GET /v1/batch/{id}/events``
  streams batch progress as NDJSON, replaying past events then following
  live until the batch completes.
* ``GET /v1/healthz``, ``GET /v1/stats`` and ``GET /v1/metrics`` are for
  probes and dashboards.

The HTTP layer itself is :class:`HTTPService`, the one transport every node
kind serves on: the job node and coordinator here, and the keyspace of
:mod:`repro.service.keyspace`.  Since 2.0 it answers the ``/v1`` paths only:
an unversioned path (the old aliases) is a ``404`` whose detail names its
``/v1`` successor, and an unknown version prefix (``/v2/...``) a ``404``
with a hint.  Every error response uses one envelope::

    {"error": {"code": "<machine code>", "message": "<human>", "detail": ...}}

with the machine codes documented in :data:`ERROR_CODES`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hmac
import json
import math
import re
import signal
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro import telemetry
from repro.errors import ReproError
from repro.service.jobs import JobResult, VerificationJob
from repro.service.runner import DEFAULT_GRACE_SECONDS, BatchReport, BatchRunner, RetryPolicy
from repro.service.store import DEFAULT_CLAIM_TTL_SECONDS, ResultStore

_log = telemetry.get_logger("serve")

#: Reject request bodies beyond this size (a light DoS guard; generated
#: batch specs run a few KB per job).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Completed batch records kept for /v1/batch/{id} lookups before eviction.
MAX_BATCH_RECORDS = 128

#: Budget for reading one request's header block and body once the request
#: line has arrived; connections that dribble or stall (slowloris) are
#: dropped when it elapses.
READ_TIMEOUT_SECONDS = 30.0

#: Keep-alive idle budget: how long a persistent connection may sit between
#: requests before the server closes it.
IDLE_TIMEOUT_SECONDS = 60.0

#: Requests served per connection before the server closes it (bounds the
#: lifetime of any single persistent connection).
MAX_REQUESTS_PER_CONNECTION = 1000

#: Default admission-gate size: work-bearing requests in flight beyond this
#: are shed with 429 + Retry-After.
DEFAULT_MAX_PENDING = 64

#: Default open-connection cap; over-cap connects get 503 and are closed.
DEFAULT_MAX_CONNECTIONS = 512

#: Sliding-window size (samples per endpoint) for latency percentiles.
LATENCY_WINDOW = 2048

#: The one API version this server speaks.
API_VERSION = "v1"

#: How often a node polls the shared keyspace for a verdict another node
#: is computing (the cluster analogue of an in-flight future await).
CLUSTER_POLL_SECONDS = 0.05

#: Machine error codes of the unified error envelope
#: ``{"error": {"code", "message", "detail"}}``, and when each is returned.
ERROR_CODES: Dict[str, str] = {
    "bad-request": "400: the HTTP request itself is malformed (request line, Content-Length)",
    "invalid-json": "400: the request body is not valid JSON",
    "invalid-spec": "400: the JSON body is not a valid job spec / batch envelope",
    "auth-required": "401: the server requires a token and the request carried none",
    "auth-invalid": "403: the request carried a token that does not match",
    "not-found": "404: unknown path, unknown fingerprint, or evicted batch id",
    "unknown-version": "404: the path names an API version this server does not speak",
    "method-not-allowed": "405: the path exists but not for this HTTP method",
    "fingerprint-mismatch": "409: a client-supplied fingerprint disagrees with the canonical one",
    "payload-too-large": "413: the request body exceeds MAX_BODY_BYTES",
    "overloaded": "429: the admission gate is full; retry after Retry-After seconds",
    "too-many-connections": "503: the connection cap is reached; retry after Retry-After seconds",
    "draining": (
        "503: the server is draining for shutdown and accepts no new work; "
        "retry against another instance after Retry-After seconds"
    ),
    "internal": "500: unexpected server-side failure",
    "runner-unavailable": (
        "502: the coordinator could not reach any runner for a job's shard; "
        "the job was not executed"
    ),
}

#: Routes of the job-serving API, advertised by ``GET /v1/`` discovery.
SERVICE_ROUTES = (
    "GET /",
    "GET /healthz",
    "GET /stats",
    "GET /metrics",
    "POST /jobs",
    "GET /jobs/{fingerprint}",
    "GET /jobs/{fingerprint}/trace",
    "GET /jobs/{fingerprint}/witness",
    "GET /batch/{id}",
    "GET /batch/{id}/events",
)


class ApiError(Exception):
    """An HTTP-mappable request failure (status, machine code, message).

    ``detail`` lands in the error envelope's ``detail`` field; ``headers``
    are extra response headers (``Retry-After``, ``WWW-Authenticate``);
    ``close`` forces the connection shut after the error is sent.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[Any] = None,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail
        self.headers = headers or {}
        self.close = close


def error_envelope(code: str, message: str, detail: Optional[Any] = None) -> Dict[str, Any]:
    """The unified error body every non-2xx response carries."""
    return {"error": {"code": code, "message": message, "detail": detail}}


#: Service counter attributes -> ``(metric name, help text)``.  Attribute
#: names are the historical ``ServiceStats`` dataclass fields (what
#: ``/v1/stats`` reports at top level); metric names are what
#: ``/v1/metrics`` has always exported for each.
SERVICE_COUNTERS: Dict[str, Tuple[str, str]] = {
    "jobs_received": ("repro_jobs_received_total", "Jobs received across all requests."),
    "executed": ("repro_jobs_executed_total", "Jobs run on the engine."),
    "store_hits": ("repro_store_hits_total", "Jobs served from the store."),
    "inflight_joins": (
        "repro_inflight_joins_total",
        "Jobs joined onto an in-flight execution.",
    ),
    "batch_dedup": (
        "repro_batch_dedup_total",
        "Duplicate jobs deduplicated within one batch.",
    ),
    "batches": ("repro_batches_total", "Batches accepted."),
    "rejected": (
        "repro_requests_rejected_total",
        "Requests refused (parse, auth, shed, size).",
    ),
    "shed": (
        "repro_requests_shed_total",
        "Work-bearing requests shed by the admission gate.",
    ),
    "auth_rejected": (
        "repro_auth_rejected_total",
        "Requests with missing or invalid auth tokens.",
    ),
    "connections_total": (
        "repro_connections_opened_total",
        "Connections accepted since start.",
    ),
    "connections_refused": (
        "repro_connections_refused_total",
        "Connections refused by the connection cap.",
    ),
    "drains_started": (
        "repro_drain_started_total",
        "Graceful-drain sequences started (SIGTERM/SIGINT or drain()).",
    ),
    "drain_rejected": (
        "repro_drain_rejected_total",
        "Work-bearing requests refused because the server was draining.",
    ),
    "cluster_joins": (
        "repro_cluster_joins_total",
        "Jobs served from another node's execution via the shared keyspace.",
    ),
    "forwarded": (
        "repro_jobs_forwarded_total",
        "Jobs forwarded to runner nodes by the coordinator.",
    ),
    "runner_failovers": (
        "repro_runner_failovers_total",
        "Job groups rerouted to a surviving runner after a runner failure.",
    ),
    "certificates_recorded": (
        "repro_certify_recorded_total",
        "Witness certificates built and stored for nonempty verdicts.",
    ),
    "certificates_served": (
        "repro_certify_served_total",
        "Witness certificates served by the witness endpoint.",
    ),
}


#: The counters the transport itself moves; every node kind exports them.
TRANSPORT_COUNTERS: Dict[str, Tuple[str, str]] = {
    attr: SERVICE_COUNTERS[attr]
    for attr in (
        "rejected",
        "auth_rejected",
        "connections_total",
        "connections_refused",
        "drains_started",
    )
}


class ServiceStats:
    """Monotonic counters surfaced by ``GET /v1/stats`` and ``/v1/metrics``.

    Each field is backed by a :class:`~repro.telemetry.Counter` in the
    service's metrics registry, so the JSON stats endpoint and the
    Prometheus exposition read the same storage.  The attribute API of the
    old dataclass is preserved (``stats.executed += 1``, integer reads).
    ``counters`` is the node kind's attribute -> ``(metric name, help
    text)`` map (:attr:`HTTPService.counters`).
    """

    def __init__(
        self, registry: telemetry.MetricsRegistry, counters: Mapping[str, Tuple[str, str]]
    ) -> None:
        object.__setattr__(
            self,
            "_counters",
            {
                attr: registry.counter(metric_name, help_text)
                for attr, (metric_name, help_text) in counters.items()
            },
        )

    def __getattr__(self, name: str) -> int:
        counter = self.__dict__["_counters"].get(name)
        if counter is None:
            raise AttributeError(name)
        return int(counter.value())

    def __setattr__(self, name: str, value: int) -> None:
        counter = self.__dict__["_counters"].get(name)
        if counter is None:
            raise AttributeError(f"unknown service counter {name!r}")
        counter.inc(value - counter.value())  # monotonic: negative deltas raise

    def as_dict(self) -> Dict[str, int]:
        return {
            attr: int(counter.value()) for attr, counter in self.__dict__["_counters"].items()
        }


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class LatencyTracker:
    """Per-endpoint latency percentiles over a sliding sample window.

    Backed by a registry :class:`~repro.telemetry.Summary` (window
    quantiles plus lifetime ``_sum``/``_count``), which renders the
    ``repro_request_latency_seconds`` exposition; this wrapper adds the
    millisecond JSON report ``/v1/stats`` serves.
    """

    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, registry: telemetry.MetricsRegistry, window: int = LATENCY_WINDOW) -> None:
        self._summary = registry.summary(
            "repro_request_latency_seconds",
            "Request latency by endpoint.",
            labelnames=("endpoint",),
            window=window,
            quantiles=self.QUANTILES,
        )

    def observe(self, endpoint: str, seconds: float) -> None:
        self._summary.observe(seconds, endpoint=endpoint)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-endpoint summary (milliseconds, for /v1/stats)."""
        report: Dict[str, Dict[str, float]] = {}
        for key, (window, count, total) in self._summary.snapshot().items():
            endpoint = dict(key)["endpoint"]
            ordered = sorted(window)
            report[endpoint] = {
                "count": count,
                "mean_ms": round(1000.0 * total / count, 3),
                "p50_ms": round(1000.0 * _percentile(ordered, 0.5), 3),
                "p95_ms": round(1000.0 * _percentile(ordered, 0.95), 3),
                "p99_ms": round(1000.0 * _percentile(ordered, 0.99), 3),
            }
        return report


@dataclass
class Request:
    """One parsed HTTP request off a (possibly persistent) connection."""

    method: str
    path: str
    query: str
    headers: Dict[str, str]
    body: bytes
    version: str

    def wants_keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection


class HTTPService:
    """The HTTP/1.1 transport every node kind serves on.

    It owns the connection layer -- framing, keep-alive and pipelining, the
    idle and read budgets, the connection cap and the body limit -- plus
    the ``/v1`` path grammar, token auth, the error envelope, request
    latency, the transport counters and the listener half of a graceful
    drain.  A subclass supplies :meth:`_route` (its route set) and what a
    drain waits for and flushes (:meth:`_in_flight`, :meth:`_flush`).  The
    users are the job node (:class:`VerificationService`, and through it
    the coordinator) and the keyspace
    (:class:`~repro.service.keyspace.KeyspaceService`).

    Parameters
    ----------
    auth_token:
        Optional shared secret.  When set, every endpoint except
        ``/v1/healthz`` and ``GET /v1/`` requires ``Authorization: Bearer
        <token>`` or ``X-Auth-Token: <token>``; comparison is constant-time.
    max_connections:
        Open-connection cap; over-cap connects get ``503`` and are closed.
    idle_timeout / read_timeout:
        Keep-alive idle budget between requests / read budget within one
        request (see the module constants for the defaults).
    retry_after:
        Integer seconds advertised in ``Retry-After`` on 429/503 responses.
    """

    #: What this node answers for ``role`` in discovery and health checks.
    role = "node"

    #: Attribute -> ``(metric name, help text)`` of :attr:`stats`; a
    #: subclass may widen it but must keep :data:`TRANSPORT_COUNTERS`.
    counters: Dict[str, Tuple[str, str]] = TRANSPORT_COUNTERS

    def __init__(
        self,
        auth_token: Optional[str] = None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        idle_timeout: float = IDLE_TIMEOUT_SECONDS,
        read_timeout: float = READ_TIMEOUT_SECONDS,
        retry_after: int = 1,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self._auth_token = auth_token
        self._max_connections = max_connections
        self._idle_timeout = idle_timeout
        self._read_timeout = read_timeout
        self._retry_after = retry_after
        self._open_connections = 0
        self._draining = False
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.registry = telemetry.MetricsRegistry()
        self.stats = ServiceStats(self.registry, self.counters)
        self.latency = LatencyTracker(self.registry)

    async def start(self, host: str = "127.0.0.1", port: int = 8080) -> Tuple[str, int]:
        """Bind and start serving; returns the (host, port) actually bound."""
        self._server = await asyncio.start_server(self._accept, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # A plain callback, not a coroutine: asyncio would run a coroutine in
        # a task of its own whose done-callback, on Python 3.11, logs a
        # CancelledError traceback for every connection stop() cancels.  The
        # service owns each connection's task instead, and stop() collects it.
        task = asyncio.get_running_loop().create_task(self._handle_client(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() must be called first"
        await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: float = 30.0) -> bool:
        """Gracefully wind the service down; returns True on a clean drain.

        Drain mode (entered at most once; re-entry just reports the state):

        1. Stop accepting: the listening socket closes.  Surviving keep-alive
           connections are still served; a subclass may refuse new work on
           them (the job node answers ``503`` + ``Retry-After``, code
           ``draining``).
        2. Finish in-flight work: wait -- up to ``timeout`` seconds -- until
           :meth:`_in_flight` reports nothing.  Nothing is cancelled inside
           the budget, so clients already being served get their results.
        3. Flush (:meth:`_flush`): checkpoint the store, so an immediate
           ``SIGKILL`` after a clean drain loses nothing.

        A False return means the budget elapsed with work still in flight
        (``stop()`` will then cancel it); the flush runs either way.
        """
        if self._draining:
            return not any(self._in_flight().values())
        self._draining = True
        self.stats.drains_started += 1
        _log.info("drain started", extra={"timeout_seconds": timeout})
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + timeout
        while any(self._in_flight().values()):
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.05)
        clean = not any(self._in_flight().values())
        try:
            self._flush()
        except Exception as exc:  # noqa: BLE001 - drain must still complete
            _log.error(
                "store checkpoint failed during drain",
                extra={"error": f"{type(exc).__name__}: {exc}"},
            )
        _log.info("drain finished", extra={"clean": clean, **self._in_flight()})
        return clean

    def _in_flight(self) -> Dict[str, int]:
        """What a drain waits for, by kind; the drain ends when all are 0."""
        return {}

    def _flush(self) -> None:
        """What a drain flushes once its wait is over."""

    async def stop(self) -> None:
        """Close the listener and every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open keep-alive connections are parked in _read_request waiting
        # for a next request that will never come; cancel them so shutdown
        # does not leak pending tasks.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_total += 1
        if self._open_connections >= self._max_connections:
            self.stats.connections_refused += 1
            try:
                await self._send_json(
                    writer,
                    503,
                    error_envelope(
                        "too-many-connections",
                        f"connection cap of {self._max_connections} reached",
                    ),
                    headers={"Retry-After": str(self._retry_after)},
                    keep_alive=False,
                )
            except ConnectionError:
                pass
            finally:
                await self._close_writer(writer)
            return
        self._open_connections += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            try:
                await self._send_json(
                    writer,
                    500,
                    error_envelope("internal", f"{type(exc).__name__}: {exc}"),
                    keep_alive=False,
                )
            except ConnectionError:
                pass
        finally:
            self._open_connections -= 1
            await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The keep-alive loop: serve pipelined requests until close/idle."""
        served = 0
        while served < MAX_REQUESTS_PER_CONNECTION:
            try:
                request = await self._read_request(reader, writer)
            except asyncio.TimeoutError:
                # Idle keep-alive connection or a stalled (slowloris) read;
                # either way the connection is done.
                return
            except ApiError as error:
                # The request never parsed (bad request line, bad
                # Content-Length, oversized body): answer and close, since
                # the unread stream cannot be resynchronized.
                self.stats.rejected += 1
                await self._send_json(
                    writer,
                    error.status,
                    error_envelope(error.code, error.message, error.detail),
                    headers=error.headers,
                    keep_alive=False,
                )
                return
            if request is None:
                return
            served += 1
            # The response that uses up the connection's request budget says
            # so (RFC 9112 section 9.6), so the client sends no request the
            # server would never read.
            last = served >= MAX_REQUESTS_PER_CONNECTION
            if not await self._handle_one(request, writer, last):
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Request]:
        # The wait for the *next* request line is bounded by the idle
        # budget; once a request has started, completing its header block
        # and body is bounded by the (shorter) read budget.
        request_line = await asyncio.wait_for(reader.readline(), timeout=self._idle_timeout)
        if not request_line:
            return None
        return await asyncio.wait_for(
            self._read_request_rest(request_line, reader, writer), timeout=self._read_timeout
        )

    async def _read_request_rest(
        self, request_line: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Request:
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ApiError(400, "bad-request", "malformed HTTP request line", close=True)
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ApiError(
                400, "bad-request", f"bad Content-Length {raw_length!r}", close=True
            ) from None
        if length < 0:
            raise ApiError(400, "bad-request", f"bad Content-Length {raw_length!r}", close=True)
        if length > MAX_BODY_BYTES:
            # The unread body would desynchronize the connection, so close.
            raise ApiError(
                413, "payload-too-large", f"body exceeds {MAX_BODY_BYTES} bytes", close=True
            )
        if headers.get("expect", "").lower() == "100-continue":
            # curl sends this for bodies over ~1KB (every real batch spec)
            # and waits up to a second for the interim response.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return Request(
            method=method, path=path, query=query, headers=headers, body=body, version=version
        )

    async def _handle_one(
        self, request: Request, writer: asyncio.StreamWriter, last: bool = False
    ) -> bool:
        """Dispatch one request; returns whether to keep the connection.

        ``last`` marks the connection's final request, whose response
        closes it.
        """
        keep_alive = request.wants_keep_alive() and not last
        started = time.perf_counter()
        label = "unrouted"
        status: Optional[int] = None
        request_id = uuid.uuid4().hex[:12]
        with telemetry.log_context(request_id=request_id):
            try:
                rest = self._strip_version(request.path)
                label, handler = self._route(request, rest)
                self._check_auth(request, rest)
                stream_open = await handler(request, writer, keep_alive)
                if stream_open is False:
                    keep_alive = False
            except ApiError as error:
                # 404/405 are routine probe answers (cache-miss lookups, evicted
                # batches); "rejected" counts requests the server refused to parse.
                status = error.status
                if error.status not in (404, 405):
                    self.stats.rejected += 1
                if error.close:
                    keep_alive = False
                if label == "unrouted":
                    label = "error"
                await self._send_json(
                    writer,
                    error.status,
                    error_envelope(error.code, error.message, error.detail),
                    headers=error.headers,
                    keep_alive=keep_alive,
                )
            finally:
                elapsed = time.perf_counter() - started
                self.latency.observe(label, elapsed)
                # Per-request access line; ``status`` is only known on the
                # error path (success handlers write their own codes).
                fields: Dict[str, Any] = {
                    "endpoint": label,
                    "method": request.method,
                    "path": request.path,
                    "ms": round(1000.0 * elapsed, 3),
                }
                if status is not None:
                    fields["status"] = status
                _log.info("request", extra=fields)
        return keep_alive

    @staticmethod
    def _strip_version(path: str) -> str:
        """The path below ``/v1``; any other path is a 404 naming its successor.

        Unknown version prefixes (``/v2/...``) answer ``unknown-version``;
        unversioned paths -- the aliases removed in 2.0 -- ``not-found``.
        """
        if path == f"/{API_VERSION}" or path.startswith(f"/{API_VERSION}/"):
            return path[len(API_VERSION) + 1 :] or "/"
        match = re.match(r"^/(v\d+)(?:/|$)", path)
        if match is not None:
            raise ApiError(
                404,
                "unknown-version",
                f"unknown API version {match.group(1)!r}",
                detail=f"this server speaks /{API_VERSION} only; "
                f"try /{API_VERSION}{path[len(match.group(1)) + 1 :]}",
            )
        raise ApiError(
            404,
            "not-found",
            f"unknown path {path}",
            detail=f"endpoints live under /{API_VERSION}; try /{API_VERSION}{path}",
        )

    def _route(self, request: Request, rest: str):
        """Resolve ``(endpoint label, handler)`` for a version-stripped path.

        The handler is awaited as ``handler(request, writer, keep_alive)``
        and writes the response; it returns False to close the connection.
        Unknown paths and methods raise :class:`ApiError` (404/405).
        """
        raise NotImplementedError

    def _check_auth(self, request: Request, rest: str) -> None:
        """Enforce the shared-secret token, when one is configured.

        ``/v1/healthz`` stays open so liveness probes need no secret, and
        ``GET /v1/`` discovery stays open because it is API documentation,
        not data.  Missing credentials are 401; present but wrong
        credentials are 403.  Comparison is constant-time.
        """
        if self._auth_token is None or rest in ("/healthz", "/"):
            return
        supplied: Optional[str] = None
        authorization = request.headers.get("authorization")
        if authorization is not None:
            scheme, _, value = authorization.partition(" ")
            if scheme.lower() == "bearer" and value.strip():
                supplied = value.strip()
        if supplied is None:
            supplied = request.headers.get("x-auth-token")
        if supplied is None:
            self.stats.auth_rejected += 1
            raise ApiError(
                401,
                "auth-required",
                "this server requires an auth token",
                detail="send 'Authorization: Bearer <token>' or 'X-Auth-Token: <token>'",
                headers={"WWW-Authenticate": 'Bearer realm="repro"'},
            )
        if not hmac.compare_digest(supplied.encode("utf-8"), self._auth_token.encode("utf-8")):
            self.stats.auth_rejected += 1
            raise ApiError(403, "auth-invalid", "the supplied auth token does not match")

    async def _send_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_raw(
            writer,
            status,
            body,
            content_type="application/json",
            headers=headers,
            keep_alive=keep_alive,
        )


class BatchRecord:
    """Progress state of one submitted batch: events, waiters, final report."""

    def __init__(self, batch_id: str, size: int) -> None:
        self.batch_id = batch_id
        self.size = size
        self.created_at = time.time()
        self.completed = False
        self.report: Optional[Dict[str, Any]] = None
        self.events: List[Dict[str, Any]] = []
        self._waiters: List[asyncio.Future] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append({"ts": round(time.time(), 3), "batch_id": self.batch_id, **event})
        self._wake()

    def finish(self, report: Dict[str, Any]) -> None:
        self.report = report
        self.completed = True
        self.emit(
            {
                "event": "batch_done",
                **{
                    key: report[key]
                    for key in (
                        "jobs",
                        "executed",
                        "store_hits",
                        "inflight_joins",
                        "batch_dedup",
                        "elapsed_seconds",
                        "verdict_counts",
                    )
                },
            }
        )

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def wait_change(self) -> None:
        """Block until the next event (or completion) lands."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter

    async def wait_completed(self) -> None:
        while not self.completed:
            await self.wait_change()


class VerificationService(HTTPService):
    """The job node: dedup, store, executor bridge and the job routes.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` serving cached verdicts; written to
        only from the event-loop thread (the single-writer discipline the
        store's SQLite backend expects).
    workers:
        Worker processes of the backing :class:`BatchRunner` pool (spawned,
        not forked: the server forks off executor threads, where a forked
        child can inherit locks mid-flight).  The pool starts with the
        first batch that needs it, serves every later one, concurrent
        batches included, and stops in :meth:`stop`.
    timeout_seconds:
        Per-job wall-clock budget, enforced inside pool workers (Unix only,
        and only when ``workers > 1`` -- single-worker execution runs on an
        executor thread where ``SIGALRM`` cannot fire).
    auth_token / max_connections / idle_timeout / read_timeout / retry_after:
        The transport's settings (see :class:`HTTPService`).
    max_pending:
        Admission-gate size for work-bearing requests (``POST /v1/jobs``).
        Requests beyond it are shed with ``429`` + ``Retry-After``.
        ``None`` disables shedding; ``0`` sheds everything (a drain mode
        the CI smoke job uses for a deterministic 429 assertion).
    retry_policy:
        :class:`~repro.service.runner.RetryPolicy` for transient job
        failures (worker crashes, deadline kills, timeouts); the default
        never retries.
    grace_seconds:
        Parent-side margin over ``timeout_seconds`` before a pool worker is
        declared wedged and killed (see :class:`BatchRunner`).
    execute_delay:
        Artificial pre-execution delay in seconds.  A test/benchmark aid:
        it widens the in-flight window so concurrent duplicate submissions
        demonstrably share one execution.
    cluster_dedup:
        Extend the in-flight dedup domain fleet-wide through the store's
        claim rows (see :meth:`ResultStore.try_claim`), so concurrent
        identical submissions to *different* nodes sharing one keyspace
        still execute once.  ``None`` (default) auto-enables it exactly
        when the store is a shared remote keyspace; claims are pointless
        on a process-private store.
    node_id:
        Name this node signs its cluster claims with; defaults to a random
        tag.  Surfaced in discovery so operators can map claims to nodes.
    claim_ttl:
        Seconds a cluster claim blocks duplicate execution before other
        nodes may take it over (the damage bound of a node dying mid-job).
    """

    #: What this node answers for ``role`` in discovery; the coordinator
    #: subclass overrides it.
    role = "single"

    counters = SERVICE_COUNTERS

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        timeout_seconds: Optional[float] = None,
        auth_token: Optional[str] = None,
        max_pending: Optional[int] = DEFAULT_MAX_PENDING,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        idle_timeout: float = IDLE_TIMEOUT_SECONDS,
        read_timeout: float = READ_TIMEOUT_SECONDS,
        retry_after: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        execute_delay: float = 0.0,
        cluster_dedup: Optional[bool] = None,
        node_id: Optional[str] = None,
        claim_ttl: float = DEFAULT_CLAIM_TTL_SECONDS,
    ) -> None:
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0 (or None to disable shedding)")
        super().__init__(
            auth_token=auth_token,
            max_connections=max_connections,
            idle_timeout=idle_timeout,
            read_timeout=read_timeout,
            retry_after=retry_after,
        )
        self._store = store
        self._workers = workers
        if cluster_dedup is None:
            cluster_dedup = store is not None and store.is_shared
        self._cluster_dedup = bool(cluster_dedup) and store is not None
        self._node_id = node_id or f"node-{uuid.uuid4().hex[:8]}"
        self._claim_ttl = claim_ttl
        # The runner carries the store so settle() can delegate write-back to
        # BatchRunner.record (bounded retries + non-cacheable error rows);
        # the server itself only calls execute_indexed, which never touches
        # the store, so the single-writer discipline (loop thread) holds.
        self._runner = BatchRunner(
            store=store,
            workers=workers,
            timeout_seconds=timeout_seconds,
            retry_policy=retry_policy,
            grace_seconds=grace_seconds,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, workers), thread_name_prefix="repro-serve"
        )
        self._max_pending = max_pending
        self._execute_delay = execute_delay
        self._pending = 0
        self._executing_jobs = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        self._batches: "OrderedDict[str, BatchRecord]" = OrderedDict()
        self._batch_tasks: set = set()
        self.engine_rollup = telemetry.EngineRollup()
        self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Wire every non-counter metric family into the registry.

        Gauges and engine/store/worker counters are callback-driven: they
        read live service state (or the process-wide telemetry counters) at
        scrape time, so the hot paths carry no metrics bookkeeping at all.
        """
        registry = self.registry

        def engine_cache_field(field: str):
            def read() -> Dict[str, int]:
                caches = telemetry.engine_counters_snapshot()["caches"]
                return {name: counters[field] for name, counters in caches.items()}

            return read

        def worker_cache_field(field: str):
            def read() -> Dict[str, int]:
                caches = telemetry.worker_counters_snapshot()["caches"]
                return {name: counters[field] for name, counters in caches.items()}

            return read

        def worker_total(field: str):
            def read() -> int:
                return telemetry.worker_counters_snapshot()[field]

            return read

        def store_total(field: str):
            def read() -> int:
                return getattr(self._store.stats, field) if self._store is not None else 0

            return read

        def runner_total(field: str):
            def read() -> int:
                return getattr(self._runner.stats, field)

            return read

        def rollup_total(field: str):
            def read() -> float:
                rollup = self.engine_rollup
                if field in rollup.totals:
                    return rollup.totals[field]
                return getattr(rollup, field)  # jobs / engine_seconds / derived properties

            return read

        # -- live service gauges --------------------------------------------------
        registry.gauge(
            "repro_inflight_fingerprints",
            "Unique fingerprints currently executing.",
            callback=lambda: len(self._inflight),
        )
        registry.gauge(
            "repro_queue_depth",
            "Work-bearing requests in flight.",
            callback=lambda: self._pending,
        )
        registry.gauge(
            "repro_queue_limit",
            "Admission gate size (-1 = unbounded).",
            callback=lambda: self._max_pending if self._max_pending is not None else -1,
        )
        registry.gauge(
            "repro_connections_open", "Open connections.", callback=lambda: self._open_connections
        )
        registry.gauge(
            "repro_connections_limit", "Connection cap.", callback=lambda: self._max_connections
        )
        registry.gauge(
            "repro_store_size",
            "Entries in the verdict store.",
            callback=lambda: self._store.backend.count() if self._store is not None else 0,
        )
        registry.gauge(
            "repro_jobs_executing",
            "Jobs currently running on the engine.",
            callback=lambda: self._executing_jobs,
        )
        registry.gauge(
            "repro_worker_processes",
            "Configured worker pool size.",
            callback=lambda: self._workers,
        )
        registry.gauge(
            "repro_worker_utilization",
            "Executing jobs as a fraction of the worker pool (saturates at 1).",
            callback=lambda: min(1.0, self._executing_jobs / self._workers),
        )
        registry.gauge(
            "repro_draining",
            "1 while the server is draining for shutdown, else 0.",
            callback=lambda: 1 if self._draining else 0,
        )
        # -- fault-tolerance counters (the batch runner's supervision layer) ------
        registry.counter_callback(
            "repro_retries_total",
            "Job attempts re-executed after a transient failure.",
            (),
            runner_total("retries"),
        )
        registry.counter_callback(
            "repro_worker_crashes_total",
            "Pool worker processes that died mid-job.",
            (),
            runner_total("worker_crashes"),
        )
        registry.counter_callback(
            "repro_deadline_exceeded_total",
            "Jobs killed by the parent-side deadline (timeout + grace).",
            (),
            runner_total("deadline_exceeded"),
        )
        registry.counter_callback(
            "repro_worker_respawns_total",
            "Pool workers respawned by the supervisor.",
            (),
            runner_total("worker_respawns"),
        )
        registry.counter_callback(
            "repro_store_put_retries_total",
            "Store verdict writes retried after an IO failure.",
            (),
            runner_total("store_put_retries"),
        )
        # -- engine counters (this process) ---------------------------------------
        registry.counter_callback(
            "repro_engine_cache_hits_total",
            "Engine bounded-cache hits in this process, by cache.",
            ("cache",),
            engine_cache_field("hits"),
        )
        registry.counter_callback(
            "repro_engine_cache_misses_total",
            "Engine bounded-cache misses in this process, by cache.",
            ("cache",),
            engine_cache_field("misses"),
        )
        registry.counter_callback(
            "repro_engine_cache_evictions_total",
            "Engine bounded-cache evictions in this process, by cache.",
            ("cache",),
            engine_cache_field("evictions"),
        )
        registry.counter_callback(
            "repro_plan_compilations_total",
            "Transition guard plans compiled in this process.",
            (),
            telemetry.plan_compilation_count,
        )
        # -- worker-pool counters (marshalled back from worker processes) ---------
        registry.counter_callback(
            "repro_worker_jobs_total",
            "Jobs executed inside pool worker processes.",
            (),
            worker_total("jobs"),
        )
        registry.counter_callback(
            "repro_worker_plan_compilations_total",
            "Guard plans compiled inside pool worker processes.",
            (),
            worker_total("plan_compilations"),
        )
        registry.counter_callback(
            "repro_worker_cache_hits_total",
            "Engine cache hits inside pool worker processes, by cache.",
            ("cache",),
            worker_cache_field("hits"),
        )
        registry.counter_callback(
            "repro_worker_cache_misses_total",
            "Engine cache misses inside pool worker processes, by cache.",
            ("cache",),
            worker_cache_field("misses"),
        )
        # -- store counters -------------------------------------------------------
        registry.counter_callback(
            "repro_store_gets_total", "Store lookups.", (), store_total("gets")
        )
        registry.counter_callback(
            "repro_store_lookup_hits_total",
            "Store lookups that found a fresh row.",
            (),
            store_total("hits"),
        )
        registry.counter_callback(
            "repro_store_lookup_misses_total",
            "Store lookups that found nothing (or an expired row).",
            (),
            store_total("misses"),
        )
        registry.counter_callback(
            "repro_store_puts_total", "Verdicts written to the store.", (), store_total("puts")
        )
        registry.counter_callback(
            "repro_store_error_puts_total",
            "Transient failures recorded as non-cacheable store rows.",
            (),
            store_total("error_puts"),
        )
        registry.counter_callback(
            "repro_store_evictions_total",
            "Store rows evicted by the max_entries cap.",
            (),
            store_total("evictions"),
        )
        registry.counter_callback(
            "repro_store_ttl_expirations_total",
            "Store rows dropped by TTL expiry.",
            (),
            store_total("ttl_expirations"),
        )
        # -- engine search rollup (cumulative over completed jobs) ----------------
        registry.counter_callback(
            "repro_engine_jobs_total",
            "Completed engine runs folded into the search rollup.",
            (),
            rollup_total("jobs"),
        )
        registry.counter_callback(
            "repro_engine_seconds_total",
            "Cumulative engine search seconds across completed jobs.",
            (),
            rollup_total("engine_seconds"),
        )
        registry.counter_callback(
            "repro_engine_configurations_explored_total",
            "Configurations explored across completed jobs.",
            (),
            rollup_total("configurations_explored"),
        )
        registry.counter_callback(
            "repro_engine_candidates_generated_total",
            "Successor candidates generated across completed jobs.",
            (),
            rollup_total("candidates_generated"),
        )
        registry.counter_callback(
            "repro_engine_candidates_pruned_total",
            "Candidates discarded before expansion across completed jobs.",
            (),
            rollup_total("candidates_pruned"),
        )
        registry.counter_callback(
            "repro_engine_guard_rejections_total",
            "Guard evaluations that rejected a candidate across completed jobs.",
            (),
            rollup_total("guard_rejections"),
        )

    # -- job parsing -------------------------------------------------------------

    def parse_job(self, payload: Any, index: Optional[int] = None) -> VerificationJob:
        """Build a job from one wire spec, verifying any client fingerprint."""
        where = f"jobs[{index}]" if index is not None else "job"
        if not isinstance(payload, Mapping):
            raise ApiError(400, "invalid-spec", f"{where}: spec must be a JSON object")
        spec = dict(payload)
        claimed = spec.pop("fingerprint", None)
        try:
            job = VerificationJob.from_spec(spec)
            fingerprint = job.fingerprint
        except ReproError as exc:
            raise ApiError(400, "invalid-spec", f"{where}: {exc}") from exc
        except Exception as exc:  # malformed shapes: missing keys, wrong types
            raise ApiError(400, "invalid-spec", f"{where}: {type(exc).__name__}: {exc}") from exc
        if claimed is not None and claimed != fingerprint:
            raise ApiError(
                409,
                "fingerprint-mismatch",
                f"{where}: client fingerprint {str(claimed)[:12]} does not match "
                f"the server's canonical fingerprint {fingerprint[:12]}; the "
                "client's spec serialization is not canonical",
            )
        return job

    # -- resolution core ---------------------------------------------------------

    async def resolve_jobs(
        self, jobs: List[VerificationJob], record: Optional[BatchRecord] = None
    ) -> Tuple[List[Tuple[JobResult, str]], Dict[str, int]]:
        """Decide every job via store / in-flight join / fresh execution.

        Returns results aligned with ``jobs`` as ``(result, served_from)``
        pairs, ``served_from`` being ``"store"``, ``"inflight"``,
        ``"batch-dedup"`` or ``"engine"``, plus the request-level counters.
        """
        loop = asyncio.get_running_loop()
        counters = {
            "executed": 0,
            "store_hits": 0,
            "inflight_joins": 0,
            "batch_dedup": 0,
            "cluster_joins": 0,
        }
        slots: List[Optional[Tuple[JobResult, str]]] = [None] * len(jobs)
        joins: List[Tuple[int, asyncio.Future, str]] = []
        fresh: List[Tuple[int, VerificationJob, asyncio.Future]] = []
        fresh_fingerprints: Dict[str, int] = {}
        self.stats.jobs_received += len(jobs)

        def job_done(index: int, result: JobResult, served_from: str) -> None:
            slots[index] = (result, served_from)
            if record is not None:
                record.emit(
                    {
                        "event": "job_done",
                        "index": index,
                        "fingerprint": result.fingerprint,
                        "label": result.label,
                        "served_from": served_from,
                        "ok": result.ok,
                        "nonempty": result.nonempty,
                    }
                )

        for index, job in enumerate(jobs):
            fingerprint = job.fingerprint
            cached = self._store.get(fingerprint) if self._store is not None else None
            # A traced (or certified) submission of a verdict stored without
            # the requested artifact re-executes (the verdict is identical;
            # the run records the trace/certificate and the store row is
            # rewritten with it attached).
            if cached is not None and not (
                (job.trace and cached.trace is None)
                or (job.certificate and cached.nonempty and cached.certificate is None)
            ):
                cached.label = cached.label or job.label
                counters["store_hits"] += 1
                self.stats.store_hits += 1
                job_done(index, cached, "store")
                continue
            existing = self._inflight.get(fingerprint)
            if existing is not None:
                if fingerprint in fresh_fingerprints:
                    counters["batch_dedup"] += 1
                    self.stats.batch_dedup += 1
                    joins.append((index, existing, "batch-dedup"))
                else:
                    counters["inflight_joins"] += 1
                    self.stats.inflight_joins += 1
                    joins.append((index, existing, "inflight"))
                continue
            future = loop.create_future()
            self._inflight[fingerprint] = future
            fresh_fingerprints[fingerprint] = index
            fresh.append((index, job, future))

        if fresh:
            fresh_jobs = [job for _, job, _ in fresh]

            def settle(local_index: int, result: JobResult) -> None:
                # Runs on the event-loop thread: the only store writer.  The
                # future MUST resolve whatever happens here -- an unresolved
                # in-flight future hangs this request and every later
                # submission of the same fingerprint.
                index, job, future = fresh[local_index]
                # record() writes verdicts with bounded retries, records
                # transient failures as non-cacheable rows, and never raises
                # -- a cache write failure must not lose a computed verdict.
                self._runner.record(job, result)
                counters["executed"] += 1
                self.stats.executed += 1
                if result.certificate is not None:
                    self.stats.certificates_recorded += 1
                self._executing_jobs -= 1
                if result.ok:
                    self.engine_rollup.record(result.statistics)
                self._inflight.pop(job.fingerprint, None)
                if not future.done():
                    future.set_result(result)
                job_done(index, result, "engine")

            def settle_cluster(local_index: int, result: JobResult) -> None:
                # Another node sharing the keyspace executed the job; the
                # verdict arrived through the store, not the local engine.
                index, job, future = fresh[local_index]
                if job.label and job.label != result.label:
                    result = dataclasses.replace(result, label=job.label)
                counters["cluster_joins"] += 1
                self.stats.cluster_joins += 1
                self._executing_jobs -= 1
                self._inflight.pop(job.fingerprint, None)
                if not future.done():
                    future.set_result(result)
                job_done(index, result, "cluster")

            def settle_failure(exc: BaseException) -> None:
                for local_index, (index, job, future) in enumerate(fresh):
                    if future.done():
                        continue
                    result = JobResult(
                        fingerprint=job.fingerprint,
                        label=job.label,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self._executing_jobs -= 1
                    self._inflight.pop(job.fingerprint, None)
                    future.set_result(result)
                    job_done(index, result, "engine")

            # Correlation fields (request id, fingerprint) must be captured
            # here: run_group executes on a plain executor thread, outside
            # this coroutine's contextvars.
            log_fields = telemetry.current_log_context()
            self._executing_jobs += len(fresh)

            def run_group() -> None:
                # Runs on an executor thread; the loop never blocks on the
                # engine.  Each completion is marshalled back to the loop.
                if self._execute_delay:
                    time.sleep(self._execute_delay)
                try:
                    with telemetry.log_context(**log_fields):
                        local, remote = self._claim_fresh(fresh_jobs)
                        if local:
                            group = [fresh_jobs[i] for i in local]
                            for group_index, result in self._execute_fresh(group):
                                loop.call_soon_threadsafe(settle, local[group_index], result)
                        for local_index, result, executed in self._await_cluster(
                            remote, fresh_jobs
                        ):
                            loop.call_soon_threadsafe(
                                settle if executed else settle_cluster, local_index, result
                            )
                except BaseException as exc:  # noqa: BLE001 - becomes errored results
                    loop.call_soon_threadsafe(settle_failure, exc)

            await loop.run_in_executor(self._executor, run_group)
            # The group thread has finished enqueueing settle callbacks;
            # awaiting the futures drains whatever is still queued.
            for _, _, future in fresh:
                await future

        for index, future, served_from in joins:
            result: JobResult = await future
            if jobs[index].label and jobs[index].label != result.label:
                result = dataclasses.replace(result, label=jobs[index].label)
            job_done(index, result, served_from)

        assert all(slot is not None for slot in slots)
        return [slot for slot in slots if slot is not None], counters

    # -- fresh-execution hooks (executor-thread side) ----------------------------

    def _execute_fresh(self, jobs: List[VerificationJob]):
        """Execute jobs missed by every cache layer; yields ``(index, result)``.

        Runs on an executor thread, streaming results as they complete.
        This is the override point for alternative execution backends: the
        base class runs the local engine pool, the coordinator forwards
        fingerprint shards to runner nodes.
        """
        return self._runner.execute_indexed(jobs)

    def _claim_fresh(
        self, jobs: List[VerificationJob]
    ) -> Tuple[List[int], Dict[int, VerificationJob]]:
        """Partition fresh jobs into locally-claimed and remotely-executing.

        With cluster dedup off, everything is local.  Otherwise each job's
        fingerprint is claimed in the shared keyspace; jobs whose claim is
        held by another node go to the remote-wait set.  Traced and
        certificate-requesting submissions always execute locally (the remote
        executor may store a verdict without the requested artifact, which
        such a run must not accept), and a failing claim layer degrades to
        local execution rather than blocking work.
        """
        if not self._cluster_dedup or self._store is None:
            return list(range(len(jobs))), {}
        local: List[int] = []
        remote: Dict[int, VerificationJob] = {}
        for index, job in enumerate(jobs):
            if job.trace or job.certificate:
                local.append(index)
                continue
            try:
                won = self._store.try_claim(
                    job, owner=self._node_id, ttl_seconds=self._claim_ttl
                )
            except Exception as exc:  # noqa: BLE001 - claims are best-effort
                _log.warning(
                    "cluster claim failed; executing locally",
                    extra={"fingerprint": job.fingerprint[:12], "error": str(exc)},
                )
                won = True
            if won:
                local.append(index)
            else:
                remote[index] = job
        return local, remote

    def _await_cluster(
        self, remote: Dict[int, VerificationJob], jobs: List[VerificationJob]
    ):
        """Wait out jobs another node claimed; yields ``(index, result, executed)``.

        Polls the shared store until each remote verdict lands (``executed``
        False) or the foreign claim expires -- a node died mid-job -- at
        which point the claim is taken over and the job runs locally after
        all (``executed`` True).  Termination is bounded by the claim TTL
        plus one local execution; a dead keyspace also falls back to local
        execution.
        """
        waiting = dict(remote)
        while waiting:
            for index, job in sorted(waiting.items()):
                run_local = False
                try:
                    cached = self._store.get(job.fingerprint)
                except Exception:  # noqa: BLE001 - keyspace down: run it here
                    cached = None
                    run_local = True
                if cached is not None:
                    cached.label = cached.label or job.label
                    del waiting[index]
                    yield index, cached, False
                    continue
                if not run_local:
                    try:
                        run_local = self._store.try_claim(
                            job, owner=self._node_id, ttl_seconds=self._claim_ttl
                        )
                    except Exception:  # noqa: BLE001
                        run_local = True
                if run_local:
                    del waiting[index]
                    for _, result in self._execute_fresh([job]):
                        yield index, result, True
            if waiting:
                time.sleep(CLUSTER_POLL_SECONDS)

    async def run_batch(self, record: BatchRecord, jobs: List[VerificationJob]) -> Dict[str, Any]:
        """Resolve a batch, emitting progress events and the final report.

        Never leaves the record incomplete: a failure finishes it with an
        error report so status lookups and event streams always terminate.
        """
        try:
            return await self._run_batch_inner(record, jobs)
        except BaseException as exc:
            if not record.completed:
                record.finish(
                    {
                        "batch_id": record.batch_id,
                        "jobs": record.size,
                        "workers": self._workers,
                        "executed": 0,
                        "store_hits": 0,
                        "inflight_joins": 0,
                        "batch_dedup": 0,
                        "cluster_joins": 0,
                        "elapsed_seconds": 0.0,
                        "verdict_counts": {},
                        "results": [],
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            raise

    async def _run_batch_inner(
        self, record: BatchRecord, jobs: List[VerificationJob]
    ) -> Dict[str, Any]:
        start = time.perf_counter()
        record.emit({"event": "batch_accepted", "jobs": len(jobs)})
        resolved, counters = await self.resolve_jobs(jobs, record)
        report = BatchReport(
            results=[result for result, _ in resolved],
            elapsed_seconds=time.perf_counter() - start,
            workers=self._workers,
            cache_hits=counters["store_hits"],
            executed=counters["executed"],
        )
        payload = {
            "batch_id": record.batch_id,
            "jobs": len(jobs),
            "workers": self._workers,
            "executed": counters["executed"],
            "store_hits": counters["store_hits"],
            "inflight_joins": counters["inflight_joins"],
            "batch_dedup": counters["batch_dedup"],
            "cluster_joins": counters["cluster_joins"],
            "elapsed_seconds": round(report.elapsed_seconds, 6),
            "verdict_counts": report.verdict_counts(),
            "results": [
                {**result.as_dict(), "served_from": served_from}
                for result, served_from in resolved
            ],
        }
        record.finish(payload)
        return payload

    def new_batch(self, size: int) -> BatchRecord:
        record = BatchRecord(uuid.uuid4().hex[:12], size)
        self._batches[record.batch_id] = record
        self.stats.batches += 1
        while len(self._batches) > MAX_BATCH_RECORDS:
            # Evict oldest *completed* records only: an in-flight batch's
            # status/events URLs must stay valid until it finishes.
            victim = next((bid for bid, rec in self._batches.items() if rec.completed), None)
            if victim is None:
                break
            del self._batches[victim]
        return record

    # -- admission gate ----------------------------------------------------------

    def _admit(self) -> None:
        """Pass the admission gate, or refuse: 503 draining / 429 shed."""
        if self._draining:
            self.stats.drain_rejected += 1
            raise ApiError(
                503,
                "draining",
                "the server is draining for shutdown and accepts no new work",
                headers={"Retry-After": str(self._retry_after)},
            )
        if self._max_pending is not None and self._pending >= self._max_pending:
            self.stats.shed += 1
            raise ApiError(
                429,
                "overloaded",
                f"admission queue is full ({self._pending} of "
                f"{self._max_pending} work-bearing requests in flight)",
                detail={"queue_depth": self._pending, "queue_limit": self._max_pending},
                headers={"Retry-After": str(self._retry_after)},
            )
        self._pending += 1

    def _release(self) -> None:
        self._pending -= 1

    # -- the transport's hooks ---------------------------------------------------

    def _in_flight(self) -> Dict[str, int]:
        return {
            "batches_in_flight": len(self._batch_tasks),
            "jobs_in_flight": len(self._inflight),
            "requests_pending": self._pending,
        }

    def _flush(self) -> None:
        if self._store is not None:
            self._store.checkpoint()

    async def stop(self) -> None:
        """Close the listener and every connection, then the worker pool."""
        await super().stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
        # After the executor: a batch still running on one of its threads
        # fails fast on the closed pool instead of starting a new one.
        self._runner.close()

    def _route(self, request: Request, rest: str):
        """Resolve ``(label, handler)`` for a version-stripped path."""
        method = request.method
        if rest == "/":
            if method == "GET":
                return "discovery", self._handle_discovery
        elif rest == "/healthz":
            if method == "GET":
                return "healthz", self._handle_healthz
        elif rest == "/stats":
            if method == "GET":
                return "stats", self._handle_stats
        elif rest == "/metrics":
            if method == "GET":
                return "metrics", self._handle_metrics
        elif rest == "/jobs":
            if method == "POST":
                return "jobs_submit", self._handle_jobs
        elif rest.startswith("/jobs/"):
            if method == "GET":
                if rest.endswith("/trace"):
                    return "job_trace", self._handle_job_trace
                if rest.endswith("/witness"):
                    return "job_witness", self._handle_job_witness
                return "job_lookup", self._handle_job_lookup
        elif rest.startswith("/batch/"):
            if method == "GET":
                if rest.endswith("/events"):
                    return "batch_events", self._handle_batch_events
                return "batch_status", self._handle_batch_status
        else:
            raise ApiError(
                404,
                "not-found",
                f"unknown path {request.path}",
                detail=f"endpoints live under /{API_VERSION}: jobs, jobs/{{fingerprint}}, "
                "jobs/{fingerprint}/trace, jobs/{fingerprint}/witness, "
                "batch/{id}, batch/{id}/events, "
                f"healthz, stats, metrics; GET /{API_VERSION}/ lists them all",
            )
        raise ApiError(405, "method-not-allowed", f"{method} not supported on {request.path}")

    # -- endpoint handlers -------------------------------------------------------

    def _discovery_document(self) -> Dict[str, Any]:
        """The ``GET /v1/`` body: who this node is and how to talk to it.

        Role, API version, store schema version, the route list and the
        full error-code catalogue in one machine-readable place; the
        coordinator subclass extends it with the runner fleet.
        """
        from repro import __version__  # deferred: repro imports this package
        from repro.service.backends import ROW_SCHEMA_VERSION

        return {
            "service": "repro",
            "version": __version__,
            "api_version": API_VERSION,
            "role": self.role,
            "node_id": self._node_id,
            "store": {
                "backend": self._store.backend.name if self._store is not None else None,
                "schema_version": ROW_SCHEMA_VERSION,
                "shared": self._store.is_shared if self._store is not None else False,
                "cluster_dedup": self._cluster_dedup,
            },
            "routes": list(SERVICE_ROUTES),
            "error_codes": dict(ERROR_CODES),
        }

    async def _handle_discovery(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        await self._send_json(writer, 200, self._discovery_document(), keep_alive=keep)

    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        from repro import __version__  # deferred: repro imports this package

        await self._send_json(
            writer,
            200,
            {
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "api_version": API_VERSION,
                "role": self.role,
                "workers": self._workers,
                "store": self._store.path if self._store is not None else None,
                "inflight": len(self._inflight),
                "auth": self._auth_token is not None,
            },
            keep_alive=keep,
        )

    def _stats_payload(self) -> Dict[str, Any]:
        return {
            **self.stats.as_dict(),
            "role": self.role,
            "node_id": self._node_id,
            "inflight": len(self._inflight),
            # Raw backend count: len(store) would run a TTL purge scan
            # per poll, too heavy for a monitoring endpoint.
            "store_size": self._store.backend.count() if self._store is not None else None,
            "queue": {
                "depth": self._pending,
                "limit": self._max_pending,
                "shed_total": self.stats.shed,
            },
            "connections": {
                "open": self._open_connections,
                "limit": self._max_connections,
                "total": self.stats.connections_total,
                "refused": self.stats.connections_refused,
            },
            "workers": {
                "configured": self._workers,
                "executing": self._executing_jobs,
            },
            # Cumulative engine search rollup over every job this server
            # actually executed (store hits excluded -- their search work
            # was already counted when the verdict was first computed).
            "engine": self.engine_rollup.as_dict(),
            "store": self._store.stats.as_dict() if self._store is not None else None,
            "latency": self.latency.summary(),
        }

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        await self._send_json(writer, 200, self._stats_payload(), keep_alive=keep)

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        body = self._render_metrics().encode("utf-8")
        await self._send_raw(
            writer,
            200,
            body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=keep,
        )

    def _render_metrics(self) -> str:
        """The Prometheus text exposition of the whole stack.

        Everything lives in the registry: service counters (via
        :class:`ServiceStats`), request latency (via :class:`LatencyTracker`),
        and the callback-driven engine/store/worker families registered in
        :meth:`_register_telemetry`.
        """
        return self.registry.render()

    def _parse_body(self, body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, "invalid-json", f"request body is not valid JSON: {exc}") from exc

    async def _handle_jobs(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        self._admit()
        release = True
        try:
            payload = self._parse_body(request.body)
            if isinstance(payload, Mapping) and "jobs" in payload:
                specs = payload["jobs"]
                if not isinstance(specs, list) or not specs:
                    raise ApiError(400, "invalid-spec", '"jobs" must be a non-empty array')
                wait = payload.get("wait", True)
                if not isinstance(wait, bool):
                    raise ApiError(400, "invalid-spec", '"wait" must be a boolean')
                jobs = [self.parse_job(spec, index) for index, spec in enumerate(specs)]
                record = self.new_batch(len(jobs))
                task = asyncio.get_running_loop().create_task(self.run_batch(record, jobs))
                # Keep a strong reference (the loop only holds weak ones) and
                # retrieve the exception of detached wait:false tasks.
                self._batch_tasks.add(task)
                task.add_done_callback(self._reap_batch_task)
                if wait:
                    await self._send_json(writer, 200, await task, keep_alive=keep)
                else:
                    # The detached batch keeps its admission slot until it
                    # completes, so queue depth reflects background work too.
                    release = False
                    task.add_done_callback(lambda _task: self._release())
                    await self._send_json(
                        writer,
                        202,
                        {
                            "batch_id": record.batch_id,
                            "jobs": len(jobs),
                            "status": "accepted",
                            "status_url": f"/{API_VERSION}/batch/{record.batch_id}",
                            "events_url": f"/{API_VERSION}/batch/{record.batch_id}/events",
                        },
                        keep_alive=keep,
                    )
            elif isinstance(payload, Mapping):
                job = self.parse_job(payload)
                resolved, _counters = await self.resolve_jobs([job])
                result, served_from = resolved[0]
                await self._send_json(
                    writer,
                    200,
                    {
                        "served_from": served_from,
                        "fingerprint": result.fingerprint,
                        "result": result.as_dict(),
                    },
                    keep_alive=keep,
                )
            else:
                raise ApiError(
                    400, "invalid-spec", 'body must be a job spec object or {"jobs": [...]}'
                )
        finally:
            if release:
                self._release()

    def _reap_batch_task(self, task: "asyncio.Task") -> None:
        self._batch_tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            # run_batch already finished the record with an error report;
            # retrieving the exception here silences the GC-time warning.
            exc = task.exception()
            _log.error("batch task failed", extra={"error": f"{type(exc).__name__}: {exc}"})

    async def _handle_job_lookup(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        rest = self._strip_version(request.path)
        fingerprint = rest[len("/jobs/") :]
        cached = self._store.get(fingerprint) if self._store is not None else None
        if cached is None:
            raise ApiError(
                404,
                "not-found",
                f"no stored verdict for fingerprint {fingerprint[:16]!r}"
                + (" (currently in flight)" if fingerprint in self._inflight else ""),
            )
        await self._send_json(
            writer,
            200,
            {"served_from": "store", "fingerprint": fingerprint, "result": cached.as_dict()},
            keep_alive=keep,
        )

    async def _handle_job_trace(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        """Serve the recorded solver trace of a stored verdict.

        Traces only exist for jobs submitted with ``"trace": true``; the
        payload is the stored :meth:`TraceRecorder.as_dict` form (seconds),
        which ``repro trace`` converts to Chrome trace-event JSON.
        """
        rest = self._strip_version(request.path)
        fingerprint = rest[len("/jobs/") : -len("/trace")].rstrip("/")
        cached = self._store.get(fingerprint) if self._store is not None else None
        if cached is None:
            raise ApiError(
                404,
                "not-found",
                f"no stored verdict for fingerprint {fingerprint[:16]!r}"
                + (" (currently in flight)" if fingerprint in self._inflight else ""),
            )
        if cached.trace is None:
            raise ApiError(
                404,
                "not-found",
                f"no trace recorded for fingerprint {fingerprint[:16]!r}",
                detail='re-submit the job with "trace": true to record one',
            )
        await self._send_json(
            writer,
            200,
            {"fingerprint": fingerprint, "trace": cached.trace},
            keep_alive=keep,
        )

    def _witness_of(self, request: Request) -> str:
        rest = self._strip_version(request.path)
        return rest[len("/jobs/") : -len("/witness")].rstrip("/")

    async def _handle_job_witness(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        """Serve the stored witness certificate of a nonempty verdict.

        Certificates only exist for jobs submitted with ``"certificate":
        true`` whose verdict is nonempty; the payload carries the encoded
        (zlib+base64) certificate, which ``repro verify`` decodes and
        re-checks without the engine (:mod:`repro.certify`).
        """
        fingerprint = self._witness_of(request)
        cached = self._store.get(fingerprint) if self._store is not None else None
        if cached is None:
            raise ApiError(
                404,
                "not-found",
                f"no stored verdict for fingerprint {fingerprint[:16]!r}"
                + (" (currently in flight)" if fingerprint in self._inflight else ""),
            )
        if cached.certificate is None:
            raise ApiError(
                404,
                "not-found",
                f"no witness certificate stored for fingerprint {fingerprint[:16]!r}",
                detail=(
                    're-submit the job with "certificate": true to record one '
                    "(only nonempty verdicts carry a witness)"
                ),
            )
        self.stats.certificates_served += 1
        await self._send_json(
            writer,
            200,
            {
                "served_from": "store",
                "fingerprint": fingerprint,
                "nonempty": cached.nonempty,
                "certificate": cached.certificate,
            },
            keep_alive=keep,
        )

    def _get_record(self, batch_id: str) -> BatchRecord:
        record = self._batches.get(batch_id)
        if record is None:
            raise ApiError(404, "not-found", f"unknown batch {batch_id!r}")
        return record

    def _batch_id_of(self, request: Request, suffix: str = "") -> str:
        rest = self._strip_version(request.path)
        batch_id = rest[len("/batch/") :]
        if suffix and batch_id.endswith(suffix):
            batch_id = batch_id[: -len(suffix)].rstrip("/")
        return batch_id

    async def _handle_batch_status(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        record = self._get_record(self._batch_id_of(request))
        payload: Dict[str, Any] = {
            "batch_id": record.batch_id,
            "jobs": record.size,
            "completed": record.completed,
            "events": len(record.events),
        }
        if record.report is not None:
            payload["report"] = record.report
        await self._send_json(writer, 200, payload, keep_alive=keep)

    async def _handle_batch_events(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> bool:
        """Stream a batch's progress as NDJSON: replay, then follow live.

        The stream has no Content-Length, so it always terminates the
        connection (returns False to the keep-alive loop).
        """
        record = self._get_record(self._batch_id_of(request, suffix="/events"))
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
        )
        writer.write(head.encode("latin-1") + b"\r\n")
        index = 0
        while True:
            while index < len(record.events):
                line = json.dumps(record.events[index], sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                index += 1
            await writer.drain()
            # Re-check the cursor after drain(): events (including the
            # final batch_done) may have landed while a slow client was
            # being drained, and they must be flushed before closing.
            if index < len(record.events):
                continue
            if record.completed:
                break
            await record.wait_change()
        return False


# -- entry points ----------------------------------------------------------------


def run_server(
    store: Optional[ResultStore] = None,
    workers: int = 1,
    timeout_seconds: Optional[float] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    port_file: Optional[Union[str, Path]] = None,
    auth_token: Optional[str] = None,
    max_pending: Optional[int] = DEFAULT_MAX_PENDING,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    retry_policy: Optional[RetryPolicy] = None,
    drain_timeout: float = 30.0,
    execute_delay: float = 0.0,
    log_level: Optional[str] = None,
    log_json: bool = False,
    service: Optional[HTTPService] = None,
) -> int:
    """Run the service until interrupted (the ``repro serve`` entry point).

    ``service`` injects a pre-built service instance -- how the CLI runs a
    :class:`~repro.service.coordinator.CoordinatorService` or a
    :class:`~repro.service.keyspace.KeyspaceService` (``repro store serve``)
    under the same signal handling, drain sequence and port-file plumbing;
    the other service-construction parameters are then ignored.

    With ``port=0`` the OS picks a free port; the bound port is printed and,
    when ``port_file`` is given, written there so scripts (the CI smoke job)
    can discover it race-free.  ``log_level``/``log_json`` switch on the
    structured request/batch/worker log stream (stderr; JSON lines when
    ``log_json`` is set); with neither given, logging stays unconfigured and
    only warnings surface through Python's last-resort handler.

    ``SIGTERM``/``SIGINT`` trigger a graceful drain (see
    :meth:`VerificationService.drain`): new work is refused with ``503``,
    in-flight batches get up to ``drain_timeout`` seconds to finish, the
    store is checkpointed, and the process exits ``0`` on a clean drain
    (``1`` when the budget elapsed with work still in flight).  A second
    signal skips the remaining budget and exits immediately.
    """
    if log_level is not None or log_json:
        telemetry.configure_logging(level=log_level or "info", json_lines=log_json)
    if service is None:
        service = VerificationService(
            store=store,
            workers=workers,
            timeout_seconds=timeout_seconds,
            auth_token=auth_token,
            max_pending=max_pending,
            max_connections=max_connections,
            retry_policy=retry_policy,
            execute_delay=execute_delay,
        )

    async def _serve() -> int:
        loop = asyncio.get_running_loop()
        drain_task: Optional[asyncio.Task] = None

        def _on_signal(signame: str) -> None:
            nonlocal drain_task
            if drain_task is None:
                print(
                    f"repro serve: {signame} received, draining "
                    f"(budget {drain_timeout}s)",
                    flush=True,
                )
                drain_task = loop.create_task(service.drain(drain_timeout))
            else:
                # Second signal: the operator wants out now.
                print(f"repro serve: second {signame}, exiting immediately", flush=True)
                drain_task.cancel()

        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, _on_signal, signame)
            except (NotImplementedError, RuntimeError):
                pass  # platforms/loops without signal support fall back to Ctrl-C

        bound_host, bound_port = await service.start(host, port)
        print(
            f"repro serve: {service.role} listening on http://{bound_host}:{bound_port} "
            f"(api /{API_VERSION}, auth {'on' if service._auth_token else 'off'}, "
            f"max_connections {service._max_connections}, drain_timeout {drain_timeout}s)",
            flush=True,
        )
        if port_file is not None:
            Path(port_file).write_text(f"{bound_port}\n")
        clean = True
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass  # the drain closed the listener out from under serve_forever
        finally:
            if drain_task is not None:
                try:
                    clean = await drain_task
                except asyncio.CancelledError:
                    clean = False
            await service.stop()
        print(f"repro serve: drained {'cleanly' if clean else 'with work in flight'}", flush=True)
        return 0 if clean else 1

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        # Loops without add_signal_handler (e.g. Windows Proactor quirks)
        # land here: no graceful drain, but still an orderly exit.
        print("repro serve: shutting down", flush=True)
    return 0


class ServerThread:
    """A server on a dedicated event-loop thread, for tests and embedding.

    ``service`` is any node kind (job node, coordinator or keyspace);
    without one, a :class:`VerificationService` is built from
    ``service_kwargs``.  ``start()`` blocks until the port is bound;
    ``stop()`` shuts the loop down and joins the thread.  Usable as a
    context manager.
    """

    def __init__(
        self,
        service: Optional[HTTPService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        self.service = service if service is not None else VerificationService(**service_kwargs)
        self._host = host
        self._port = port
        self.address: Optional[Tuple[str, int]] = None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="repro-serve-loop", daemon=True)

    @property
    def base_url(self) -> str:
        assert self.address is not None, "server not started"
        return f"http://{self.address[0]}:{self.address[1]}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self.address = self._loop.run_until_complete(self.service.start(self._host, self._port))
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.stop())
            self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def drain(self, timeout: float = 5.0) -> bool:
        """Run a graceful drain on the server's loop; returns its verdict."""
        future = asyncio.run_coroutine_threadsafe(self.service.drain(timeout), self._loop)
        return future.result(timeout=timeout + 30)

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
