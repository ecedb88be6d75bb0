"""The keyspace server: ``repro store serve``, a shared remote verdict cache.

One :class:`~repro.service.backends.StoreBackend` (usually SQLite) exposed
over the canonical wire protocol (``docs/keyspace-protocol.md``) so a fleet
of ``repro serve`` runners shares one verdict cache and one fleet-wide
in-flight dedup domain through :class:`~repro.service.client.HTTPBackend`.

Design points:

* **Keyspace-shaped routes.**  ``GET/PUT/DELETE /v1/keys/{key}``, the
  batch lookup ``POST /v1/rows/get`` and the scan endpoints mirror the
  :class:`StoreBackend` protocol one-to-one; the payloads are the flat row
  dicts the backends already move, normalized to the full
  :data:`~repro.service.backends.ROW_FIELDS` shape on write.
* **Multi-writer semantics.**  A plain ``PUT`` is last-write-wins -- safe
  for verdict rows because verdicts are deterministic per fingerprint --
  except that the backend keeps the stored verdict's trace and certificate
  when the written verdict lacks them
  (:func:`~repro.service.backends.carry_artifacts`).
  ``If-Match: *`` makes the ``PUT`` conditional on the key being absent
  (the ``put_if_absent`` claim primitive) and ``If-Match: <created_at>``
  on the current row's timestamp (``compare_and_put``); a failed
  precondition answers ``412`` with code ``precondition-failed``.
* **TTL honored server-side.**  ``--ttl`` ages rows out by ``created_at``
  and per-row ``expires_at`` stamps (claim rows, transient-error rows) are
  enforced on read, so clients of a shared keyspace cannot observe each
  other's expired rows regardless of their own store policy.  ``--max-
  entries`` evicts oldest-first on write, same as the local store policy.
* **One transport.**  :class:`KeyspaceService` is a route set on the job
  server's :class:`~repro.service.server.HTTPService`, so the keyspace
  shares its HTTP/1.1 framing, token auth (``Authorization: Bearer`` or
  ``X-Auth-Token``, constant-time compare), error envelope, connection
  cap, idle and read budgets, body limit, request-latency metrics and
  SIGTERM drain.  Every operation is one short backend call, so
  :meth:`KeyspaceService.handle` runs on the event loop itself; ``repro
  store serve`` is :func:`~repro.service.server.run_server` with a
  keyspace service.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.service.backends import (
    ROW_DEFAULTS,
    ROW_FIELDS,
    ROW_SCHEMA_VERSION,
    StoreBackend,
    backend_from_url,
    row_expired,
)
from repro.service.server import API_VERSION, ApiError, HTTPService, Request, error_envelope


def _repro_version() -> str:
    from repro import __version__  # deferred: repro imports this package

    return __version__

#: Routes advertised by the discovery document, relative to ``/v1``.
KEYSPACE_ROUTES = (
    "GET /",
    "GET /healthz",
    "GET /stats",
    "GET /metrics",
    "GET /keys",
    "GET /keys/{key}",
    "PUT /keys/{key}",
    "DELETE /keys/{key}",
    "GET /count",
    "GET /rows",
    "POST /rows/get",
    "GET /scan/oldest?limit=N",
    "GET /scan/expired?cutoff=T",
    "POST /clear",
    "POST /checkpoint",
)

#: The ``endpoint`` label of each route in the request-latency summary;
#: ``/keys/{key}`` is labelled by method (``key_get``, ``key_put``,
#: ``key_delete``).
KEYSPACE_ENDPOINTS: Dict[str, str] = {
    "/": "discovery",
    "/healthz": "healthz",
    "/stats": "stats",
    "/metrics": "metrics",
    "/keys": "keys",
    "/count": "count",
    "/rows": "rows",
    "/rows/get": "rows_get",
    "/scan/oldest": "scan_oldest",
    "/scan/expired": "scan_expired",
    "/clear": "clear",
    "/checkpoint": "checkpoint",
}

#: Error codes specific to the keyspace protocol; everything else reuses
#: the job server's :data:`~repro.service.server.ERROR_CODES`.
KEYSPACE_ERROR_CODES: Dict[str, str] = {
    "precondition-failed": (
        "412: the PUT carried If-Match and the precondition did not hold "
        "(If-Match: * with the key present, or a created_at that no longer matches)"
    ),
}


class KeyspaceService(HTTPService):
    """``repro store serve``: the keyspace routes on the shared transport.

    The transport sends every keyspace route to :meth:`handle`, which maps
    ``(method, path, body, headers)`` to ``(status, payload, headers)``
    without sockets, so tests can also drive the protocol directly.
    """

    role = "store"

    def __init__(
        self,
        backend: Union[StoreBackend, str],
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self._backend = (
            backend_from_url(backend) if isinstance(backend, str) else backend
        )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive when set")
        super().__init__(auth_token=auth_token)
        self._ttl = ttl_seconds
        self._max_entries = max_entries
        self._write_lock = threading.RLock()
        self._ops = self.registry.counter(
            "repro_keyspace_ops_total",
            "Keyspace operations served, by op and outcome.",
            labelnames=("op", "outcome"),
        )
        self._expired = self.registry.counter(
            "repro_keyspace_expired_total",
            "Rows aged out server-side (TTL or per-row expiry).",
        )
        self._evicted = self.registry.counter(
            "repro_keyspace_evicted_total",
            "Rows evicted oldest-first by the max-entries cap.",
        )
        self.registry.gauge(
            "repro_keyspace_rows",
            "Rows currently stored.",
            callback=self._backend.count,
        )
        self.started_at = time.time()

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    # -- policy ------------------------------------------------------------------

    def _reap(self, key: str, row: Mapping[str, Any], now: float) -> bool:
        """Delete ``row`` if it has aged out; True when it was reaped."""
        if not row_expired(row, now, self._ttl):
            return False
        self._backend.delete(key)
        self._expired.inc()
        return True

    def _live_row(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._backend.get(key)
        if row is None or self._reap(key, row, time.time()):
            return None
        return row

    def _evict(self) -> None:
        if self._max_entries is None:
            return
        overflow = self._backend.count() - self._max_entries
        if overflow > 0:
            for key in self._backend.oldest_keys(overflow):
                if self._backend.delete(key):
                    self._evicted.inc()

    # -- the transport's hooks ---------------------------------------------------

    def _route(self, request: Request, rest: str):
        """Every keyspace route goes to one handler; only the label differs.

        :meth:`handle` answers unknown paths and methods itself.
        """
        if rest.startswith("/keys/"):
            method = request.method
            label = f"key_{method.lower()}" if method in ("GET", "PUT", "DELETE") else "error"
        else:
            label = KEYSPACE_ENDPOINTS.get(rest, "error")
        return label, self._handle_request

    async def _handle_request(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        path = self._strip_version(request.path)
        if request.query:
            path += "?" + request.query
        status, payload, headers = self.handle(request.method, path, request.body, request.headers)
        if isinstance(payload, str):
            await self._send_raw(
                writer,
                status,
                payload.encode("utf-8"),
                content_type=headers.pop("Content-Type"),
                headers=headers,
                keep_alive=keep,
            )
        else:
            await self._send_json(writer, status, payload, headers=headers, keep_alive=keep)

    def _flush(self) -> None:
        self._backend.checkpoint()

    async def stop(self) -> None:
        """Close the listener and every connection, then the backend."""
        await super().stop()
        self.close()

    # -- request handling --------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Serve one request; returns ``(status, json payload, headers)``.

        ``path`` is relative to ``/v1`` and may carry a query string;
        ``headers`` are keyed in lower case, as the transport parses them.
        Auth is the transport's.  A data request moves
        ``repro_keyspace_ops_total`` exactly once: by the outcome of its
        backend op, or as ``error`` when it is refused before any.
        """
        parsed = urllib.parse.urlsplit(path)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        try:
            return self._dispatch(method, parsed.path, query, body, headers)
        except ApiError as error:
            self._ops.inc(op=method.lower(), outcome="error")
            return (
                error.status,
                error_envelope(error.code, error.message, error.detail),
                {},
            )

    def _dispatch(
        self,
        method: str,
        route: str,
        query: Dict[str, str],
        body: Optional[bytes],
        headers: Mapping[str, str],
    ) -> Tuple[int, Any, Dict[str, str]]:
        if route == "/":
            self._require(method, "GET", route)
            return 200, self.discovery_document(), {}
        if route == "/healthz":
            self._require(method, "GET", route)
            return (
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "role": self.role,
                    "version": _repro_version(),
                    "auth": self._auth_token is not None,
                },
                {},
            )
        if route == "/stats":
            self._require(method, "GET", route)
            return 200, self.stats_payload(), {}
        if route == "/metrics":
            self._require(method, "GET", route)
            return 200, self.registry.render(), {"Content-Type": "text/plain; version=0.0.4"}
        if route == "/keys":
            self._require(method, "GET", route)
            now = time.time()
            keys = [key for key in self._backend.keys() if self._live_key(key, now)]
            self._ops.inc(op="keys", outcome="ok")
            return 200, {"keys": keys}, {}
        if route.startswith("/keys/"):
            return self._handle_key(method, route[len("/keys/"):], body, headers)
        if route == "/count":
            self._require(method, "GET", route)
            self._ops.inc(op="count", outcome="ok")
            return 200, {"count": self._backend.count()}, {}
        if route == "/rows":
            self._require(method, "GET", route)
            now = time.time()
            rows = [row for row in self._backend.rows() if not row_expired(row, now, self._ttl)]
            self._ops.inc(op="rows", outcome="ok")
            return 200, {"rows": rows}, {}
        if route == "/rows/get":
            self._require(method, "POST", route)
            return 200, {"rows": self._live_rows(self._keys_body(body))}, {}
        if route == "/scan/oldest":
            self._require(method, "GET", route)
            limit = self._int_param(query, "limit")
            self._ops.inc(op="scan", outcome="ok")
            return 200, {"keys": self._backend.oldest_keys(limit)}, {}
        if route == "/scan/expired":
            self._require(method, "GET", route)
            cutoff = self._float_param(query, "cutoff")
            self._ops.inc(op="scan", outcome="ok")
            return 200, {"keys": self._backend.expired_keys(cutoff)}, {}
        if route == "/clear":
            self._require(method, "POST", route)
            removed = self._backend.clear()
            self._ops.inc(op="clear", outcome="ok")
            return 200, {"removed": removed}, {}
        if route == "/checkpoint":
            self._require(method, "POST", route)
            self._backend.checkpoint()
            self._ops.inc(op="checkpoint", outcome="ok")
            return 200, {"ok": True}, {}
        raise ApiError(
            404,
            "not-found",
            f"no route {route}",
            detail=f"keyspace endpoints live under /{API_VERSION}: "
            + ", ".join(KEYSPACE_ROUTES),
        )

    def _live_key(self, key: str, now: float) -> bool:
        row = self._backend.get(key)
        return row is not None and not self._reap(key, row, now)

    def _live_rows(self, keys: List[str]) -> List[Optional[Dict[str, Any]]]:
        """The batch lookup: each key's live row or None, aligned with
        ``keys``; one backend call, expiry applied per row, one op."""
        now = time.time()
        unique = list(dict.fromkeys(keys))
        live = {
            key: row
            for key, row in zip(unique, self._backend.get_many(unique))
            if row is not None and not self._reap(key, row, now)
        }
        self._ops.inc(op="get_many", outcome="ok")
        return [live.get(key) for key in keys]

    @staticmethod
    def _json_body(body: Optional[bytes], what: str) -> Any:
        if not body:
            raise ApiError(400, "bad-request", f"{what} requires a JSON body")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(400, "invalid-json", f"{what} body is not valid JSON: {error}") from None

    @classmethod
    def _keys_body(cls, body: Optional[bytes]) -> List[str]:
        decoded = cls._json_body(body, "a batch lookup")
        keys = decoded.get("keys") if isinstance(decoded, dict) else None
        if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
            raise ApiError(400, "invalid-spec", 'a batch lookup is {"keys": [key, ...]}')
        return keys

    @staticmethod
    def _require(method: str, expected: str, route: str) -> None:
        if method != expected:
            raise ApiError(405, "method-not-allowed", f"{route} only answers {expected}")

    @staticmethod
    def _int_param(query: Dict[str, str], name: str) -> int:
        try:
            return int(query[name])
        except (KeyError, ValueError):
            raise ApiError(
                400, "bad-request", f"query parameter {name!r} must be an integer"
            ) from None

    @staticmethod
    def _float_param(query: Dict[str, str], name: str) -> float:
        try:
            return float(query[name])
        except (KeyError, ValueError):
            raise ApiError(
                400, "bad-request", f"query parameter {name!r} must be a number"
            ) from None

    def _handle_key(
        self,
        method: str,
        key: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
    ) -> Tuple[int, Any, Dict[str, str]]:
        if not key or "/" in key:
            raise ApiError(404, "not-found", f"bad key {key!r}")
        if method == "GET":
            row = self._live_row(key)
            if row is None:
                self._ops.inc(op="get", outcome="miss")
                return 404, error_envelope("not-found", f"no row for key {key}"), {}
            self._ops.inc(op="get", outcome="hit")
            return 200, {"row": row}, {}
        if method == "DELETE":
            deleted = self._backend.delete(key)
            self._ops.inc(op="delete", outcome="ok" if deleted else "miss")
            return 200, {"deleted": deleted}, {}
        if method == "PUT":
            return self._put_key(key, body, headers)
        raise ApiError(405, "method-not-allowed", "/keys/{key} only answers GET, PUT, DELETE")

    def _put_key(
        self, key: str, body: Optional[bytes], headers: Mapping[str, str]
    ) -> Tuple[int, Any, Dict[str, str]]:
        decoded = self._json_body(body, "PUT")
        if not isinstance(decoded, dict) or "created_at" not in decoded:
            raise ApiError(400, "invalid-spec", "a row is a JSON object with at least created_at")
        row = {field: decoded.get(field, ROW_DEFAULTS.get(field)) for field in ROW_FIELDS}
        row["fingerprint"] = key
        if_match = headers.get("if-match")
        # The conditional forms and eviction run under one lock so the
        # precondition check, the write and the oldest-first trim are one
        # atomic step from any writer's point of view.  (The backend
        # primitives are atomic on their own; the lock keeps *eviction*
        # from interleaving and makes expired-claim takeover exact.)
        with self._write_lock:
            now = time.time()
            if if_match is None:
                # The backend's put keeps the stored verdict's artifacts.
                self._backend.put(key, row)
                self._ops.inc(op="put", outcome="ok")
            elif if_match == "*":
                current = self._backend.get(key)
                if current is not None and self._reap(key, current, now):
                    current = None
                if current is not None or not self._backend.put_if_absent(key, row):
                    self._ops.inc(op="put", outcome="precondition-failed")
                    message = f"key {key} already has a live row"
                    return 412, error_envelope("precondition-failed", message), {}
                self._ops.inc(op="put", outcome="ok")
            else:
                try:
                    expected = float(if_match.strip('"'))
                except ValueError:
                    raise ApiError(
                        400,
                        "bad-request",
                        "If-Match must be '*' or a created_at timestamp",
                    ) from None
                if not self._backend.compare_and_put(key, row, expected):
                    self._ops.inc(op="put", outcome="precondition-failed")
                    message = f"key {key} has no row with created_at == {expected!r}"
                    return 412, error_envelope("precondition-failed", message), {}
                self._ops.inc(op="put", outcome="ok")
            self._evict()
        return 200, {"stored": True}, {}

    # -- introspection -----------------------------------------------------------

    def discovery_document(self) -> Dict[str, Any]:
        return {
            "service": "repro",
            "version": _repro_version(),
            "api_version": API_VERSION,
            "role": "store",
            "store": {
                "backend": self._backend.name,
                "schema_version": ROW_SCHEMA_VERSION,
                "ttl_seconds": self._ttl,
                "max_entries": self._max_entries,
            },
            "routes": list(KEYSPACE_ROUTES),
            "error_codes": dict(KEYSPACE_ERROR_CODES),
        }

    def stats_payload(self) -> Dict[str, Any]:
        return {
            "role": "store",
            "backend": self._backend.name,
            "entries": self._backend.count(),
            "schema_version": ROW_SCHEMA_VERSION,
            "ttl_seconds": self._ttl,
            "max_entries": self._max_entries,
            "expired_total": int(self._expired.value()),
            "evicted_total": int(self._evicted.value()),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    def close(self) -> None:
        self._backend.close()


__all__ = [
    "KEYSPACE_ERROR_CODES",
    "KEYSPACE_ROUTES",
    "KeyspaceService",
]
