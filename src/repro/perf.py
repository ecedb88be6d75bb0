"""The engine's memo tables.

The engine keeps three memo tables, each scoped to one theory instance, so
to one job: compiled guards (``engine_transition_plans``), the tree theory's
node placements per skeleton (``trees_placements``) and the data-value
product's rendered databases (``datavalues_database``).  Every one is
*behaviour-preserving*: it returns exactly what the computation it fronts
would return, so it changes speed, never a verdict.

Each :class:`BoundedCache` counts its own hits, misses and evictions.  A
theory reports the counts of its tables through
:meth:`~repro.fraisse.base.DatabaseTheory.memo_counts`; the batch service
carries them in each job's result (``statistics["caches"]``), where the
``repro_engine_cache_*`` metric families and the benchmark record read
them.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: The counters every memo table keeps.
COUNT_FIELDS = ("hits", "misses", "evictions")

#: Default upper bound on entries held by any single engine cache.  The
#: abstract configuration spaces explored by the solvers are finite, but a
#: cap keeps long-running processes (servers replaying many systems) from
#: accumulating unbounded memo tables.
DEFAULT_CACHE_CAP = 1 << 16


class BoundedCache:
    """A dict-backed memo table with hit/miss counters and a size cap.

    Eviction is wholesale (clear on overflow): the engine's access patterns
    are bursty per solver run, an LRU would add bookkeeping on the hot path
    for little benefit, and a full clear keeps the worst case trivially
    bounded.
    """

    __slots__ = ("name", "_table", "_cap", "hits", "misses", "evictions")

    _MISSING = object()

    def __init__(self, name: str, cap: int = DEFAULT_CACHE_CAP) -> None:
        self.name = name
        self._table: dict = {}
        self._cap = cap
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        value = self._table.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if len(self._table) >= self._cap:
            self._table.clear()
            self.evictions += 1
        self._table[key] = value

    def get_or_compute(self, key, factory):
        """Memoised ``factory()``: the one-stop caching idiom of the engine.

        Values must not be None (None marks a miss); False and empty
        containers cache fine.
        """
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def counts(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()


def add_counts(totals: Dict[str, Dict[str, int]], tables: Mapping[str, Mapping[str, int]]) -> None:
    """Add per-table counts (``{name: {"hits": ..., ...}}``) into ``totals``."""
    for name, counts in tables.items():
        bucket = totals.setdefault(name, dict.fromkeys(COUNT_FIELDS, 0))
        for field in COUNT_FIELDS:
            bucket[field] += int(counts.get(field, 0))
