"""Pluggable keyspace backends for the fingerprinted result store.

:class:`~repro.service.store.ResultStore` used to talk to SQLite directly;
this module puts a :class:`StoreBackend` protocol between the store and its
persistence so many deployments can share one verdict cache:

* :class:`SQLiteBackend` -- the durable single-host default (what PR 2's
  monolithic store was);
* :class:`MemoryBackend` -- process-local, zero-setup; what tests and the
  HTTP server's default configuration use.

The protocol is deliberately *keyspace-shaped*: string keys mapped to flat
dictionaries of JSON-able primitives, a batch lookup (``get_many``) so one
round trip answers a whole request, plus ``oldest_keys``/``expired_keys``
scans for eviction.  A future Redis or HTTP backend maps onto it directly
(``GET``/``MGET``/``SET``/``DEL`` of a serialized row, a sorted set on
``created_at`` for the scans) without the store layer changing.

TTL and eviction *policy* live in :class:`ResultStore` and the keyspace
server, which share one expiry rule (:func:`row_expired`); backends only
supply the mechanisms (timestamp scans and deletes).  Schema versioning is a
backend concern: :class:`SQLiteBackend` records its schema version in
SQLite's ``user_version`` pragma and upgrades older ``results`` tables in
place through ordered migration hooks (see :data:`SQLITE_MIGRATIONS`).

Multi-writer deployments (several ``repro serve`` runners sharing one
remote keyspace) additionally need two conditional-write primitives --
:meth:`StoreBackend.put_if_absent` and :meth:`StoreBackend.compare_and_put`
-- so fleet-wide in-flight claims can be taken atomically.  Plain ``put``
stays last-write-wins, which is safe for verdict rows because verdicts are
deterministic per fingerprint: two writers racing on the same fingerprint
write the same verdict.  One rule refines it, applied by every backend
inside the write itself (:func:`carry_artifacts`): a verdict written
without a trace or certificate keeps the ones the stored verdict carries,
so an artifact-less rewrite never erases what another writer recorded.

Backends are addressed uniformly by URL through :func:`backend_from_url`:
``memory:``, ``sqlite:PATH`` (a bare path means sqlite), or ``http(s)://``
for the networked :class:`~repro.service.client.HTTPBackend` talking to a
``repro store serve`` keyspace server.
"""

from __future__ import annotations

import heapq
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Protocol, Sequence, Union

from repro.errors import StoreError

#: Column order of a result row; every backend stores exactly these fields.
#: ``wall_seconds`` (worker wall clock) and ``trace`` (serialized solver
#: trace, JSON or NULL) arrived with schema v3 and are nullable.  Schema v4
#: added the transient-failure bookkeeping: ``error``/``error_code`` (NULL
#: for verdicts), ``cacheable`` (0 marks an observability-only error row
#: that must never serve as a warm verdict) and ``expires_at`` (per-row
#: expiry for short-lived error rows, NULL = store TTL policy only).
#: Schema v5 added ``certificate``: the zlib+base64-encoded replayable
#: witness certificate of a nonempty verdict (see :mod:`repro.certify`),
#: NULL when the job did not opt in or the verdict is empty.
ROW_FIELDS = (
    "fingerprint",
    "created_at",
    "label",
    "nonempty",
    "exhausted",
    "elapsed_seconds",
    "witness_size",
    "run_length",
    "statistics",
    "job_spec",
    "wall_seconds",
    "trace",
    "error",
    "error_code",
    "cacheable",
    "expires_at",
    "certificate",
)

#: Values assumed for row fields absent from a ``put`` (rows written by
#: pre-v4 callers are cacheable verdicts).
ROW_DEFAULTS = {"cacheable": 1}

#: Version of the row shape above.  Tracks :data:`SQLITE_SCHEMA_VERSION`:
#: every schema migration that changes what a row carries bumps both.  The
#: keyspace wire protocol advertises it in discovery so a networked client
#: can refuse rows from a newer server instead of silently dropping fields.
ROW_SCHEMA_VERSION = 5


#: The row fields that carry a verdict's optional artifacts (see
#: :func:`carry_artifacts`).
ARTIFACT_FIELDS = ("trace", "certificate")


def is_verdict_row(row: Mapping[str, Any]) -> bool:
    """A cacheable verdict: neither a claim row nor a transient-error row."""
    return bool(row.get("cacheable", 1)) and not row.get("error_code")


def carry_artifacts(
    row: Mapping[str, Any], stored: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """``row`` as a ``put`` writes it over ``stored``: the carry-forward rule.

    A verdict row written without a ``trace`` or ``certificate`` keeps the
    one the stored verdict row of the same key carries.  Both artifacts are
    deterministic in the fingerprint, so carrying them forward is always
    sound; without the rule, an artifact-less rewrite of a verdict (a
    second writer, or a rerun that asked for no artifact) would erase them.
    A claim or transient-error row is never a source and never gets one.
    Every backend applies the rule inside ``put``, under the same lock that
    makes the write atomic, so no reader-then-writer race can lose one.
    """
    written = dict(row)
    if stored is not None and is_verdict_row(written) and is_verdict_row(stored):
        for field in ARTIFACT_FIELDS:
            if written.get(field) is None:
                written[field] = stored.get(field)
    return written


def row_expired(row: Mapping[str, Any], now: float, ttl_seconds: Optional[float]) -> bool:
    """Has ``row`` aged out at wall-clock time ``now``?

    It has once ``now >= expires_at`` (per-row expiry, checked first), or once
    ``created_at < now - ttl_seconds`` (the cutoff ``expired_keys`` scans with).
    """
    expires_at = row.get("expires_at")
    if expires_at is not None and now >= expires_at:
        return True
    return ttl_seconds is not None and row["created_at"] < now - ttl_seconds


class StoreBackend(Protocol):
    """Keyspace contract the result store programs against.

    Rows are flat mappings of JSON-able primitives (``statistics`` and
    ``job_spec`` arrive pre-serialized as JSON strings), so a backend never
    needs to understand the verdict domain -- it moves opaque rows keyed by
    fingerprint, which is what makes a remote keyspace implementation
    straightforward.
    """

    #: Human-readable backend tag, surfaced by ``ResultStore.export``.
    name: str

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored row for ``key``, or None."""
        ...

    def get_many(self, keys: Sequence[str]) -> List[Optional[Dict[str, Any]]]:
        """The stored rows for ``keys`` in one call, aligned with ``keys``
        (None where a key has no row; a repeated key repeats its row)."""
        ...

    def put(self, key: str, row: Mapping[str, Any]) -> None:
        """Insert or replace the row for ``key`` (last write wins), keeping
        the stored verdict's artifacts a verdict row lacks
        (:func:`carry_artifacts`)."""
        ...

    def put_if_absent(self, key: str, row: Mapping[str, Any]) -> bool:
        """Atomically insert ``row`` only when ``key`` has no row yet.

        Returns True when the row was written, False when another writer
        got there first.  This is the claim primitive for fleet-wide
        in-flight dedup.
        """
        ...

    def compare_and_put(
        self, key: str, row: Mapping[str, Any], expected_created_at: float
    ) -> bool:
        """Atomically replace ``key``'s row only if its current
        ``created_at`` equals ``expected_created_at``.

        Returns True on success, False when the row is missing or was
        rewritten since the caller read it (optimistic concurrency).
        """
        ...

    def delete(self, key: str) -> bool:
        """Remove ``key``; True when a row was actually deleted."""
        ...

    def keys(self) -> List[str]:
        """All keys, sorted."""
        ...

    def count(self) -> int:
        """Number of stored rows."""
        ...

    def clear(self) -> int:
        """Delete everything; returns the number of rows removed."""
        ...

    def oldest_keys(self, limit: int) -> List[str]:
        """Up to ``limit`` keys, oldest ``created_at`` first (for eviction)."""
        ...

    def expired_keys(self, cutoff: float) -> List[str]:
        """Keys whose ``created_at`` is strictly below ``cutoff`` (for TTL)."""
        ...

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Every row, ordered by key (for export)."""
        ...

    def checkpoint(self) -> None:
        """Flush any buffered writes to durable storage (may be a no-op)."""
        ...

    def close(self) -> None:
        """Release any underlying resources."""
        ...


class MemoryBackend:
    """An in-process dictionary keyspace; thread-safe, nothing persisted."""

    name = "memory"
    #: Memory rows always carry the current row shape.
    schema_version = ROW_SCHEMA_VERSION

    def __init__(self) -> None:
        self._rows: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._rows.get(key)
            return dict(row) if row is not None else None

    def get_many(self, keys: Sequence[str]) -> List[Optional[Dict[str, Any]]]:
        with self._lock:
            rows = [self._rows.get(key) for key in keys]
        return [dict(row) if row is not None else None for row in rows]

    def put(self, key: str, row: Mapping[str, Any]) -> None:
        with self._lock:
            self._rows[key] = carry_artifacts(row, self._rows.get(key))

    def put_if_absent(self, key: str, row: Mapping[str, Any]) -> bool:
        with self._lock:
            if key in self._rows:
                return False
            self._rows[key] = dict(row)
            return True

    def compare_and_put(
        self, key: str, row: Mapping[str, Any], expected_created_at: float
    ) -> bool:
        with self._lock:
            current = self._rows.get(key)
            if current is None or current.get("created_at") != expected_created_at:
                return False
            self._rows[key] = dict(row)
            return True

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._rows.pop(key, None) is not None

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._rows)

    def count(self) -> int:
        with self._lock:
            return len(self._rows)

    def clear(self) -> int:
        with self._lock:
            removed = len(self._rows)
            self._rows.clear()
            return removed

    def oldest_keys(self, limit: int) -> List[str]:
        with self._lock:
            # Eviction asks for a handful of keys out of a large keyspace:
            # a bounded heap beats sorting everything on every store write.
            return heapq.nsmallest(
                limit, self._rows, key=lambda k: (self._rows[k]["created_at"], k)
            )

    def expired_keys(self, cutoff: float) -> List[str]:
        with self._lock:
            return sorted(k for k, row in self._rows.items() if row["created_at"] < cutoff)

    def rows(self) -> Iterator[Dict[str, Any]]:
        with self._lock:
            snapshot = [dict(self._rows[key]) for key in sorted(self._rows)]
        yield from snapshot

    def checkpoint(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Current on-disk schema version of :class:`SQLiteBackend`.
SQLITE_SCHEMA_VERSION = 5

_SQLITE_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    created_at REAL NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    nonempty INTEGER NOT NULL,
    exhausted INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    witness_size INTEGER,
    run_length INTEGER,
    statistics TEXT NOT NULL,
    job_spec TEXT NOT NULL,
    wall_seconds REAL,
    trace TEXT,
    error TEXT,
    error_code TEXT,
    cacheable INTEGER NOT NULL DEFAULT 1,
    expires_at REAL,
    certificate TEXT
)
"""


#: Keys per ``IN (...)`` list of a batch lookup; well under SQLite's bound
#: on host parameters (999 before 3.32).
_SQLITE_LOOKUP_CHUNK = 500

#: The carry-forward condition of :func:`carry_artifacts` in SQL, over the
#: written row (``excluded``) and the stored one (``results``).
_SQLITE_CARRY = (
    "COALESCE(excluded.error_code, '') = '' AND excluded.cacheable != 0 "
    "AND COALESCE(results.error_code, '') = '' AND results.cacheable != 0"
)

#: One statement, so the carry-forward rule and the write are one atomic
#: step even for writers in other processes sharing the file.
_SQLITE_PUT = (
    f"INSERT INTO results ({', '.join(ROW_FIELDS)}) "
    f"VALUES ({', '.join('?' * len(ROW_FIELDS))}) "
    "ON CONFLICT (fingerprint) DO UPDATE SET "
    + ", ".join(
        f"{field} = COALESCE(excluded.{field}, CASE WHEN {_SQLITE_CARRY} THEN results.{field} END)"
        if field in ARTIFACT_FIELDS
        else f"{field} = excluded.{field}"
        for field in ROW_FIELDS
        if field != "fingerprint"
    )
)


def _migrate_v2(connection: sqlite3.Connection) -> None:
    """v1 -> v2: index ``created_at`` so TTL/eviction scans stay O(log n)."""
    connection.execute("CREATE INDEX IF NOT EXISTS idx_results_created_at ON results (created_at)")


def _migrate_v3(connection: sqlite3.Connection) -> None:
    """v2 -> v3: worker wall clock and the opt-in solver trace per verdict."""
    columns = {name for (_, name, *_rest) in connection.execute("PRAGMA table_info(results)")}
    if "wall_seconds" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN wall_seconds REAL")
    if "trace" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN trace TEXT")


def _migrate_v4(connection: sqlite3.Connection) -> None:
    """v3 -> v4: transient-failure rows (error, error_code, cacheable, expiry)."""
    columns = {name for (_, name, *_rest) in connection.execute("PRAGMA table_info(results)")}
    if "error" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN error TEXT")
    if "error_code" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN error_code TEXT")
    if "cacheable" not in columns:
        connection.execute(
            "ALTER TABLE results ADD COLUMN cacheable INTEGER NOT NULL DEFAULT 1"
        )
    if "expires_at" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN expires_at REAL")


def _migrate_v5(connection: sqlite3.Connection) -> None:
    """v4 -> v5: the compressed replayable witness certificate per verdict."""
    columns = {name for (_, name, *_rest) in connection.execute("PRAGMA table_info(results)")}
    if "certificate" not in columns:
        connection.execute("ALTER TABLE results ADD COLUMN certificate TEXT")


#: Ordered migration hooks: target version -> migration applying the step
#: from the previous version.  Extend (never edit) when the schema evolves.
SQLITE_MIGRATIONS = {2: _migrate_v2, 3: _migrate_v3, 4: _migrate_v4, 5: _migrate_v5}


class SQLiteBackend:
    """The durable single-host keyspace: one SQLite file (or ``:memory:``).

    The schema version is tracked in ``PRAGMA user_version``.  Databases
    written before versioning existed (PR 2's stores carry ``user_version
    0`` with a ``results`` table) are treated as version 1 and migrated
    forward in place; a database from a *newer* code line raises
    :class:`~repro.errors.StoreError` rather than guessing.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self._path = str(path)
        # The HTTP server calls into the store from the event-loop thread
        # while tests drive it from the main thread; a single lock around a
        # single connection keeps SQLite happy.
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(self._path, check_same_thread=False)
        self._wal = False
        if self._path != ":memory:":
            # WAL keeps the main database file consistent under a hard kill
            # (a crash loses at most the tail of the log, never corrupts
            # committed rows) and lets readers proceed during commits.
            # synchronous=NORMAL is the standard WAL pairing: commits are
            # atomic across process kills; only an OS/power failure can drop
            # the very last commits, which for a verdict cache means
            # re-execution, not corruption.
            mode = self._connection.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            self._wal = str(mode).lower() == "wal"
            self._connection.execute("PRAGMA synchronous=NORMAL")
        self._migrate()

    @property
    def name(self) -> str:
        return f"sqlite:{self._path}"

    @property
    def path(self) -> str:
        return self._path

    @property
    def schema_version(self) -> int:
        with self._lock:
            (version,) = self._connection.execute("PRAGMA user_version").fetchone()
            return version

    def _migrate(self) -> None:
        with self._lock:
            (version,) = self._connection.execute("PRAGMA user_version").fetchone()
            if version == 0:
                has_results = self._connection.execute(
                    "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'results'"
                ).fetchone()
                if has_results is None:
                    # Fresh database: create the current schema outright.
                    self._connection.execute(_SQLITE_SCHEMA)
                    for target in sorted(SQLITE_MIGRATIONS):
                        SQLITE_MIGRATIONS[target](self._connection)
                    version = SQLITE_SCHEMA_VERSION
                else:
                    version = 1  # pre-versioning store from PR 2
            if version > SQLITE_SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self._path} has schema version {version}, newer than "
                    f"this build's {SQLITE_SCHEMA_VERSION}; refusing to touch it"
                )
            for target in sorted(SQLITE_MIGRATIONS):
                if target > version:
                    SQLITE_MIGRATIONS[target](self._connection)
            self._connection.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION}")
            self._connection.commit()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._connection.execute(
                f"SELECT {', '.join(ROW_FIELDS)} FROM results WHERE fingerprint = ?",
                (key,),
            ).fetchone()
        return dict(zip(ROW_FIELDS, row)) if row is not None else None

    def get_many(self, keys: Sequence[str]) -> List[Optional[Dict[str, Any]]]:
        keys = list(keys)
        found: Dict[str, tuple] = {}
        with self._lock:
            for start in range(0, len(keys), _SQLITE_LOOKUP_CHUNK):
                chunk = keys[start : start + _SQLITE_LOOKUP_CHUNK]
                for values in self._connection.execute(
                    f"SELECT {', '.join(ROW_FIELDS)} FROM results "
                    f"WHERE fingerprint IN ({', '.join('?' * len(chunk))})",
                    chunk,
                ):
                    found[values[0]] = values
        return [dict(zip(ROW_FIELDS, found[key])) if key in found else None for key in keys]

    @property
    def wal_enabled(self) -> bool:
        return self._wal

    @staticmethod
    def _row_values(row: Mapping[str, Any]) -> tuple:
        # Nullable late-schema fields may be absent from rows written by
        # older callers; missing keys store as NULL (or the v4 defaults).
        return tuple(row.get(field, ROW_DEFAULTS.get(field)) for field in ROW_FIELDS)

    def put(self, key: str, row: Mapping[str, Any]) -> None:
        with self._lock:
            self._connection.execute(_SQLITE_PUT, self._row_values(row))
            self._connection.commit()

    def put_if_absent(self, key: str, row: Mapping[str, Any]) -> bool:
        with self._lock:
            cursor = self._connection.execute(
                f"INSERT OR IGNORE INTO results ({', '.join(ROW_FIELDS)}) "
                f"VALUES ({', '.join('?' * len(ROW_FIELDS))})",
                self._row_values(row),
            )
            self._connection.commit()
            return cursor.rowcount > 0

    def compare_and_put(
        self, key: str, row: Mapping[str, Any], expected_created_at: float
    ) -> bool:
        assignments = ", ".join(f"{field} = ?" for field in ROW_FIELDS)
        with self._lock:
            cursor = self._connection.execute(
                f"UPDATE results SET {assignments} "
                "WHERE fingerprint = ? AND created_at = ?",
                (*self._row_values(row), key, expected_created_at),
            )
            self._connection.commit()
            return cursor.rowcount > 0

    def delete(self, key: str) -> bool:
        with self._lock:
            cursor = self._connection.execute(
                "DELETE FROM results WHERE fingerprint = ?",
                (key,),
            )
            self._connection.commit()
            return cursor.rowcount > 0

    def keys(self) -> List[str]:
        with self._lock:
            return [
                fingerprint
                for (fingerprint,) in self._connection.execute(
                    "SELECT fingerprint FROM results ORDER BY fingerprint"
                )
            ]

    def count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute("SELECT COUNT(*) FROM results").fetchone()
            return count

    def clear(self) -> int:
        with self._lock:
            removed = self.count()
            self._connection.execute("DELETE FROM results")
            self._connection.commit()
            return removed

    def oldest_keys(self, limit: int) -> List[str]:
        with self._lock:
            return [
                fingerprint
                for (fingerprint,) in self._connection.execute(
                    "SELECT fingerprint FROM results ORDER BY created_at, fingerprint LIMIT ?",
                    (limit,),
                )
            ]

    def expired_keys(self, cutoff: float) -> List[str]:
        with self._lock:
            return [
                fingerprint
                for (fingerprint,) in self._connection.execute(
                    "SELECT fingerprint FROM results WHERE created_at < ? "
                    "ORDER BY fingerprint",
                    (cutoff,),
                )
            ]

    def rows(self) -> Iterator[Dict[str, Any]]:
        with self._lock:
            fetched = self._connection.execute(
                f"SELECT {', '.join(ROW_FIELDS)} FROM results ORDER BY fingerprint"
            ).fetchall()
        for row in fetched:
            yield dict(zip(ROW_FIELDS, row))

    def checkpoint(self) -> None:
        """Flush the write-ahead log into the main database file.

        Called by the server's graceful drain so a subsequent hard kill has
        nothing left in flight; a no-op outside WAL mode.
        """
        with self._lock:
            self._connection.commit()
            if self._wal:
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            try:
                self.checkpoint()
            except sqlite3.Error:
                pass
            self._connection.close()


def backend_from_url(
    spec: Union[str, Path],
    *,
    token: Optional[str] = None,
    timeout: float = 30.0,
) -> StoreBackend:
    """Build a backend from a URL-style spec; the one addressing scheme.

    Accepted forms:

    * ``memory:`` (or plain ``memory``) -- process-local
      :class:`MemoryBackend`;
    * ``sqlite:PATH`` / ``sqlite:///PATH`` -- durable
      :class:`SQLiteBackend` at ``PATH`` (``sqlite::memory:`` works);
    * ``http://HOST:PORT`` / ``https://...`` -- networked
      :class:`~repro.service.client.HTTPBackend` against a ``repro store
      serve`` keyspace server (``token``/``timeout`` apply only here);
    * anything else -- treated as a bare SQLite path, which is what every
      pre-URL caller passed.
    """
    text = str(spec)
    if text in ("memory", "memory:", "memory://"):
        return MemoryBackend()
    if text.startswith(("http://", "https://")):
        # Deferred import: client.py imports from this module at load time.
        from repro.service.client import HTTPBackend

        return HTTPBackend(text, token=token, timeout=timeout)
    if text.startswith("sqlite:"):
        path = text[len("sqlite:"):]
        if path.startswith("//"):  # sqlite:///relative or sqlite:////abs
            path = path[2:]
        if not path:
            raise StoreError(f"sqlite backend spec {text!r} is missing a path")
        return SQLiteBackend(path)
    return SQLiteBackend(text)
