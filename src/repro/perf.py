"""Engine-wide performance switches and cache instrumentation.

The fast-path engine core introduced with the canonicalisation layer keeps a
number of memo tables (the word, tree and data-value theories' abstraction
keys, compiled guards, skeleton placement tables).
All of them are *behaviour-preserving*: with caching disabled the solvers
recompute every canonical form from scratch, exactly like the pre-refactor
engine.  The global switch exists so the benchmark runner can measure the
legacy path against the cached path on the same build, and so debugging
sessions can rule caches out with one call.

Every cache registers a :class:`CacheStats` under a stable name; the
benchmark runner and the search statistics snapshot them via
:func:`cache_stats_snapshot`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

_caches_enabled: bool = True

#: Default upper bound on entries held by any single engine cache.  The
#: abstract configuration spaces explored by the solvers are finite, but a
#: cap keeps long-running processes (servers replaying many systems) from
#: accumulating unbounded memo tables.
DEFAULT_CACHE_CAP = 1 << 16


class CacheStats:
    """Hit/miss counters for one named engine cache."""

    __slots__ = ("name", "hits", "misses", "evictions")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheStats({self.name}: {self.hits}h/{self.misses}m)"


_registry: Dict[str, CacheStats] = {}


def register_cache(name: str) -> CacheStats:
    """Create (or fetch) the stats record for a named cache."""
    if name not in _registry:
        _registry[name] = CacheStats(name)
    return _registry[name]


def cache_stats_snapshot() -> Dict[str, Dict[str, float]]:
    """A JSON-ready snapshot of every registered cache's counters."""
    return {name: stats.as_dict() for name, stats in sorted(_registry.items())}


def reset_cache_stats() -> None:
    for stats in _registry.values():
        stats.reset()


def caches_enabled() -> bool:
    """Whether the engine's canonical-form caches are active."""
    return _caches_enabled


def set_caches_enabled(enabled: bool) -> None:
    global _caches_enabled
    _caches_enabled = bool(enabled)


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Run a block on the legacy (cache-free) engine path.

    Used by ``benchmarks/run_all.py`` to measure the pre-refactor engine on
    the same build, and handy when bisecting a suspected cache bug.
    """
    global _caches_enabled
    previous = _caches_enabled
    _caches_enabled = False
    try:
        yield
    finally:
        _caches_enabled = previous


class BoundedCache:
    """A dict-backed memo table with hit/miss stats and a size cap.

    Eviction is wholesale (clear on overflow): the engine's access patterns
    are bursty per solver run, an LRU would add bookkeeping on the hot path
    for little benefit, and a full clear keeps the worst case trivially
    bounded.
    """

    __slots__ = ("_table", "_cap", "stats")

    _MISSING = object()

    def __init__(self, name: str, cap: int = DEFAULT_CACHE_CAP) -> None:
        self._table: dict = {}
        self._cap = cap
        self.stats = register_cache(name)

    def get(self, key):
        value = self._table.get(key, self._MISSING)
        if value is self._MISSING:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key, value) -> None:
        if len(self._table) >= self._cap:
            self._table.clear()
            self.stats.evictions += 1
        self._table[key] = value

    def get_or_compute(self, key, factory):
        """Memoised ``factory()``: the one-stop caching idiom of the engine.

        Bypasses the table entirely (recompute every time) when the global
        cache switch is off, so call sites gate on :func:`caches_enabled`
        for free.  Values must not be None (None marks a miss); False and
        empty containers cache fine.
        """
        if not caches_enabled():
            return factory()
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
