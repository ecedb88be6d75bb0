"""An HTTP client for the ``repro serve`` front door.

:class:`ServiceClient` is the supported way to drive the service from
Python: it speaks the versioned ``/v1`` API, reuses one keep-alive
connection across calls (``http.client`` under the hood, nothing beyond the
stdlib), attaches the shared-secret auth token when one is configured, and
retries load-shed responses honouring the server's ``Retry-After``.

Since the distributed tier, the same client is also the transport for the
keyspace wire protocol: :class:`HTTPBackend` implements the
:class:`~repro.service.backends.StoreBackend` contract over a
:class:`ServiceClient` pointed at a ``repro store serve`` keyspace server,
so a fleet of runners shares one remote verdict cache through the exact
interface the local SQLite store uses.

The module-level :func:`jobs_to_wire` / :func:`post_jobs` helpers are the
functional face of the same client.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.service.backends import ROW_DEFAULTS, ROW_FIELDS, ROW_SCHEMA_VERSION
from repro.service.jobs import VerificationJob

#: Default per-request socket timeout.  Batch verification is slow work.
DEFAULT_TIMEOUT = 600.0

#: Default retry budget for retryable statuses (429 overload, 503 cap).
DEFAULT_RETRIES = 3

#: Base of the exponential backoff between retries (doubles per attempt).
DEFAULT_BACKOFF_SECONDS = 0.25

#: Ceiling on any single backoff sleep, however many attempts have failed.
DEFAULT_BACKOFF_MAX_SECONDS = 5.0

#: Default total wall-clock budget for one logical request across all its
#: retries; when it would be exceeded, the client gives up immediately.
DEFAULT_RETRY_DEADLINE_SECONDS = 60.0

#: Statuses worth retrying: the server sheds (429), refuses the connection
#: (503 too-many-connections) or drains (503 draining) under load, and all
#: of them advertise Retry-After.
RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    Carries the HTTP ``status``, the machine ``code`` from the server's
    error envelope (``{"error": {"code", "message", "detail"}}``), and the
    decoded ``payload`` so callers can branch without string-matching.
    """

    def __init__(self, method: str, url: str, status: int, payload: Any) -> None:
        self.status = status
        self.payload = payload
        envelope = payload.get("error") if isinstance(payload, dict) else None
        if isinstance(envelope, dict):
            self.code = envelope.get("code", "unknown")
            message = envelope.get("message", "")
        else:  # not the envelope (a proxy, or a pre-envelope server)
            self.code = "unknown"
            message = str(payload)
        super().__init__(f"{method} {url} failed with {status} [{self.code}]: {message}")


def jobs_to_wire(
    jobs: Sequence[VerificationJob],
    wait: bool = True,
    include_fingerprints: bool = True,
) -> Dict[str, object]:
    """The ``POST /v1/jobs`` batch payload for ``jobs`` (see ``repro serve``).

    With ``include_fingerprints`` each spec carries the client-computed
    fingerprint, which the server re-derives and verifies -- the end-to-end
    guard that both sides serialize canonically.
    """
    specs = []
    for job in jobs:
        spec = dict(job.to_spec())
        if include_fingerprints:
            spec["fingerprint"] = job.fingerprint
        specs.append(spec)
    return {"jobs": specs, "wait": wait}


class ServiceClient:
    """A keep-alive client for one ``repro serve`` endpoint.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``http://127.0.0.1:8080``.  Paths are joined
        under its ``/v1`` prefix automatically.
    auth_token:
        Shared secret sent as ``Authorization: Bearer <token>`` when the
        server runs with ``--auth-token``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a load-shed response (429/503) is retried before
        :class:`ServiceError` is raised.  Retrying a ``POST /v1/jobs`` is
        safe: verdicts are deterministic and the server dedups by
        fingerprint, so a repeated submission never runs work twice.
    backoff_base / backoff_max:
        Exponential backoff between retries: attempt *n* waits
        ``min(backoff_max, max(Retry-After, backoff_base * 2**(n-1)))``
        seconds, randomized down by up to ``jitter`` so synchronized
        clients decorrelate.  The server's ``Retry-After`` acts as a floor,
        never a cap -- repeated shedding backs off further than the server's
        fixed hint.
    jitter:
        Fraction in ``[0, 1]`` of each delay that may be randomly shaved.
    retry_deadline:
        Total wall-clock budget in seconds for one logical request across
        all its retries; once sleeping again would exceed it the client
        raises instead of sleeping.  ``None`` disables the budget.
    keep_alive:
        When False, a fresh connection is opened per request (sends
        ``Connection: close``).  Default True: one persistent connection is
        reused.

    Usable as a context manager; :meth:`close` drops the connection.
    """

    def __init__(
        self,
        base_url: str,
        auth_token: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_SECONDS,
        backoff_max: float = DEFAULT_BACKOFF_MAX_SECONDS,
        jitter: float = 0.5,
        retry_deadline: Optional[float] = DEFAULT_RETRY_DEADLINE_SECONDS,
        keep_alive: bool = True,
    ) -> None:
        if backoff_base < 0 or backoff_max < 0:
            raise ValueError("backoff seconds must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        if retry_deadline is not None and retry_deadline <= 0:
            raise ValueError("retry_deadline must be positive when set")
        parsed = urllib.parse.urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parsed.scheme!r} (http only)")
        if not parsed.hostname:
            raise ValueError(f"no host in base_url {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._auth_token = auth_token
        self._timeout = timeout
        self._retries = retries
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._jitter = jitter
        self._retry_deadline = retry_deadline
        self._keep_alive = keep_alive
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- connection management ---------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request core ------------------------------------------------------------

    def _headers(self, has_body: bool, extra: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self._auth_token is not None:
            headers["Authorization"] = f"Bearer {self._auth_token}"
        if not self._keep_alive:
            headers["Connection"] = "close"
        if extra:
            headers.update(extra)
        return headers

    def _once(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Any, Any]:
        """One request/response over the (possibly reused) connection."""
        headers = self._headers(body is not None, extra_headers)
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
            # A stale keep-alive connection (server idle-timeout won the
            # race, or it restarted).  Drop it and retry once on a fresh
            # connection -- safe for this API: POST /v1/jobs is effectively
            # idempotent (deterministic verdicts, fingerprint dedup).
            self.close()
            connection = self._connect()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        if not self._keep_alive or response.will_close:
            self.close()
        content_type = response.getheader("Content-Type", "")
        if "json" in content_type and raw:
            payload: Any = json.loads(raw.decode("utf-8"))
        else:
            payload = raw.decode("utf-8", "replace")
        return response.status, payload, response

    def _compute_delay(
        self,
        attempt: int,
        retry_after: Optional[str],
        rng: Optional[random.Random] = None,
    ) -> float:
        """Backoff before retry ``attempt`` (1-based), honouring Retry-After.

        The exponential curve ``backoff_base * 2**(attempt-1)`` is floored
        by the server's ``Retry-After`` hint, capped at ``backoff_max`` and
        randomized down by up to ``jitter``.
        """
        try:
            floor = float(retry_after) if retry_after else 0.0
        except ValueError:
            floor = 0.0
        delay = min(self._backoff_max, max(floor, self._backoff_base * 2.0 ** (attempt - 1)))
        draw = (rng or random).random()
        return delay * (1 - self._jitter * draw)

    def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Any:
        """Issue one API call (path relative to ``/v1``), with shed retries.

        Returns the decoded JSON body on 2xx; raises :class:`ServiceError`
        otherwise.  429/503 responses are retried up to ``retries`` times
        with exponential backoff (jittered, floored by the server's
        ``Retry-After``), all within the total ``retry_deadline`` budget.
        ``headers`` adds per-call headers (e.g. the keyspace protocol's
        ``If-Match`` preconditions) on top of the standard set.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        url = "/v1" + path
        deadline = (
            time.monotonic() + self._retry_deadline if self._retry_deadline is not None else None
        )
        attempt = 0
        while True:
            status, decoded, response = self._once(method, url, body, headers)
            if status < 400:
                return decoded
            if status in RETRYABLE_STATUSES and attempt < self._retries:
                attempt += 1
                delay = self._compute_delay(attempt, response.getheader("Retry-After"))
                if deadline is None or time.monotonic() + delay <= deadline:
                    time.sleep(delay)
                    continue
                # Sleeping again would blow the total budget: fail now with
                # the response in hand rather than later with nothing new.
            raise ServiceError(method, f"http://{self._host}:{self._port}{url}", status, decoded)

    # -- the API surface ---------------------------------------------------------

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def discovery(self) -> Dict[str, Any]:
        """``GET /v1/``: API version, node role, schema version, routes."""
        return self.request("GET", "/")

    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /v1/metrics``."""
        return self.request("GET", "/metrics")

    def submit_job(self, job: VerificationJob, include_fingerprint: bool = True) -> Dict[str, Any]:
        """Decide one job; returns the single-job response envelope."""
        spec = dict(job.to_spec())
        if include_fingerprint:
            spec["fingerprint"] = job.fingerprint
        return self.request("POST", "/jobs", spec)

    def submit_batch(
        self,
        jobs: Sequence[VerificationJob],
        wait: bool = True,
        include_fingerprints: bool = True,
    ) -> Dict[str, Any]:
        """Submit a batch; the full report when ``wait``, else the 202 envelope."""
        return self.request("POST", "/jobs", jobs_to_wire(jobs, wait, include_fingerprints))

    def lookup(self, fingerprint: str) -> Dict[str, Any]:
        """The stored verdict for ``fingerprint`` (404 -> ServiceError)."""
        return self.request("GET", f"/jobs/{fingerprint}")

    def trace(self, fingerprint: str) -> Dict[str, Any]:
        """The recorded solver trace for ``fingerprint`` (404 -> ServiceError).

        Traces only exist for jobs submitted with ``trace=True``; the
        ``"trace"`` field of the response is the stored recorder dict that
        :func:`repro.telemetry.chrome_trace` converts for Perfetto.
        """
        return self.request("GET", f"/jobs/{fingerprint}/trace")

    def witness(self, fingerprint: str) -> Dict[str, Any]:
        """The stored witness certificate for ``fingerprint`` (404 -> ServiceError).

        Certificates only exist for nonempty verdicts of jobs submitted
        with ``certificate=True``; the ``"certificate"`` field is the
        encoded form that :func:`repro.certify.decode_certificate` and
        :func:`repro.certify.validate_certificate` consume.
        """
        return self.request("GET", f"/jobs/{fingerprint}/witness")

    def batch_status(self, batch_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/batch/{batch_id}")


def post_jobs(
    base_url: str,
    jobs: Sequence[VerificationJob],
    wait: bool = True,
    include_fingerprints: bool = True,
    timeout: float = DEFAULT_TIMEOUT,
    auth_token: Optional[str] = None,
) -> Dict[str, object]:
    """POST a batch of jobs to a running ``repro serve`` endpoint.

    A one-shot convenience over :class:`ServiceClient` (connect, submit,
    close).  Returns the decoded JSON response (the full batch report when
    ``wait``, the ``202`` acceptance envelope otherwise); raises
    :class:`ServiceError` -- a ``RuntimeError`` subclass, so pre-``/v1``
    callers that caught that still work -- on a non-2xx response.
    """
    with ServiceClient(base_url, auth_token=auth_token, timeout=timeout) as client:
        return client.submit_batch(jobs, wait=wait, include_fingerprints=include_fingerprints)


class HTTPBackend:
    """The networked keyspace: :class:`StoreBackend` over the wire protocol.

    Implements the exact contract of
    :class:`~repro.service.backends.StoreBackend` by translating each
    keyspace operation to one HTTP call against a ``repro store serve``
    endpoint (see ``docs/keyspace-protocol.md``), so a
    :class:`~repro.service.store.ResultStore` -- and therefore a whole
    ``repro serve`` runner -- can sit on a remote shared verdict cache with
    no store-layer changes.

    Multi-writer semantics: plain :meth:`put` is last-write-wins (safe for
    verdicts, which are deterministic per fingerprint), and the server keeps
    the stored verdict's artifacts a written verdict lacks;
    :meth:`put_if_absent` maps to ``If-Match: *`` and
    :meth:`compare_and_put` to ``If-Match: <created_at>``, both surfacing
    the server's ``412 precondition-failed`` as a False return.
    :meth:`get_many` is one ``POST /v1/rows/get`` for any number of keys.
    On first contact the backend reads the server's discovery document and
    refuses a keyspace whose row schema is *newer* than this build's
    (:data:`~repro.service.backends.ROW_SCHEMA_VERSION`), mirroring the
    SQLite backend's future-schema refusal.

    One lock serializes calls: the underlying keep-alive connection is not
    thread-safe, and backends are promised to be.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        self._base_url = base_url.rstrip("/")
        self._client = ServiceClient(
            self._base_url,
            auth_token=token,
            timeout=timeout,
            retries=retries,
            retry_deadline=max(timeout, 1.0),
        )
        self._lock = threading.RLock()
        self._schema_version: Optional[int] = None

    @property
    def name(self) -> str:
        # The URL already names the scheme, unlike sqlite's bare path.
        return self._base_url

    @property
    def schema_version(self) -> int:
        with self._lock:
            self._check_schema()
            assert self._schema_version is not None
            return self._schema_version

    def _check_schema(self) -> None:
        """First-contact handshake: refuse a newer-schema server (cached)."""
        if self._schema_version is not None:
            return
        try:
            document = self._client.discovery()
        except ServiceError as error:
            raise StoreError(
                f"keyspace server at {self._base_url} refused discovery: {error}"
            ) from error
        remote = document.get("store", {}).get("schema_version")
        if not isinstance(remote, int):
            raise StoreError(
                f"keyspace server at {self._base_url} did not advertise a "
                "store schema version; not a repro keyspace endpoint?"
            )
        if remote > ROW_SCHEMA_VERSION:
            raise StoreError(
                f"keyspace server at {self._base_url} has row schema version "
                f"{remote}, newer than this build's {ROW_SCHEMA_VERSION}; "
                "refusing to touch it"
            )
        self._schema_version = remote

    def _call(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Optional[Mapping[str, str]] = None,
        *,
        absent: Optional[int] = None,
    ) -> Any:
        """One keyspace call; the decoded response body.

        A response with status ``absent`` (404 for a missing key, 412 for a
        failed precondition) returns None.  Every other error status, and an
        unreachable server, raises :class:`~repro.errors.StoreError`, the
        error every backend raises.
        """
        with self._lock:
            try:
                self._check_schema()
                return self._client.request(method, path, payload, headers=headers)
            except ServiceError as error:
                if error.status == absent:
                    return None
                raise StoreError(f"keyspace request {error}") from error
            except OSError as error:
                raise StoreError(
                    f"keyspace server at {self._base_url} unreachable: {error}"
                ) from error

    @staticmethod
    def _normalize(row: Mapping[str, Any]) -> Dict[str, Any]:
        # The wire carries full-shape rows so every backend behind the
        # server returns the same field set (the SQLite column behaviour).
        return {field: row.get(field, ROW_DEFAULTS.get(field)) for field in ROW_FIELDS}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        response = self._call("GET", f"/keys/{key}", absent=404)
        return None if response is None else response["row"]

    def get_many(self, keys: Sequence[str]) -> List[Optional[Dict[str, Any]]]:
        keys = list(keys)
        if not keys:
            return []
        rows = self._call("POST", "/rows/get", {"keys": keys})["rows"]
        if len(rows) != len(keys):
            raise StoreError(
                f"keyspace server at {self._base_url} answered {len(rows)} rows "
                f"for {len(keys)} keys"
            )
        return list(rows)

    def put(self, key: str, row: Mapping[str, Any]) -> None:
        # The server's backend applies the carry-forward rule to the write.
        self._call("PUT", f"/keys/{key}", self._normalize(row))

    def put_if_absent(self, key: str, row: Mapping[str, Any]) -> bool:
        stored = self._call(
            "PUT", f"/keys/{key}", self._normalize(row), {"If-Match": "*"}, absent=412
        )
        return stored is not None

    def compare_and_put(
        self, key: str, row: Mapping[str, Any], expected_created_at: float
    ) -> bool:
        precondition = {"If-Match": repr(float(expected_created_at))}
        stored = self._call("PUT", f"/keys/{key}", self._normalize(row), precondition, absent=412)
        return stored is not None

    def delete(self, key: str) -> bool:
        return bool(self._call("DELETE", f"/keys/{key}")["deleted"])

    def keys(self) -> List[str]:
        return list(self._call("GET", "/keys")["keys"])

    def count(self) -> int:
        return int(self._call("GET", "/count")["count"])

    def clear(self) -> int:
        return int(self._call("POST", "/clear")["removed"])

    def oldest_keys(self, limit: int) -> List[str]:
        return list(self._call("GET", f"/scan/oldest?limit={int(limit)}")["keys"])

    def expired_keys(self, cutoff: float) -> List[str]:
        quoted = urllib.parse.quote(repr(float(cutoff)))
        return list(self._call("GET", f"/scan/expired?cutoff={quoted}")["keys"])

    def rows(self) -> Iterator[Dict[str, Any]]:
        yield from self._call("GET", "/rows")["rows"]

    def checkpoint(self) -> None:
        self._call("POST", "/checkpoint")

    def close(self) -> None:
        with self._lock:
            self._client.close()
