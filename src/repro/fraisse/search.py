"""Pluggable exploration strategies for the emptiness engine.

The decision procedure of Theorem 5 is agnostic to the order in which small
configurations are explored: soundness comes from witness re-validation and
completeness from the abstraction-key pruning, neither of which depends on
the frontier discipline.  The engine therefore delegates frontier management
to a :class:`SearchStrategy`:

* :class:`BreadthFirstStrategy` -- the seed engine's behaviour; finds a
  shortest accepting run and gives the most predictable memory profile;
* :class:`DepthFirstStrategy` -- commits to one witness-growth path at a
  time; often reaches an accepting state with far fewer explored
  configurations on nonempty instances;
* :class:`BestFirstStrategy` -- a priority queue scored by the size of the
  abstraction key, preferring small register-generated substructures; this
  biases the search towards configurations with few distinguishable
  elements, which is where accepting runs of the paper's example systems
  tend to live.

All strategies are exhaustive: on empty instances each eventually drains the
same abstract configuration space, so the three verdicts always agree (a
property pinned down by ``tests/test_search_strategies.py`` and re-checked
by the benchmark runner).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, Protocol, Tuple, Union

from repro.errors import SolverError


class SearchStrategy(Protocol):
    """Frontier discipline used by :class:`~repro.fraisse.engine.EmptinessSolver`.

    ``push`` receives the engine's search node together with a numeric score
    (the size of the node's abstraction key); ``pop`` returns the next node
    to expand.  ``clear`` empties the frontier (used when a goal is found).
    ``needs_scores`` tells the engine whether to compute scores at all --
    order-insensitive frontiers set it False so the hot enqueue path skips
    the key walk.

    The built-in strategies also implement ``pending_seeds``, which lets the
    engine build initial configurations on demand (see
    :class:`PendingSeeds`); a frontier the caller supplies gets every seed
    pushed before the first pop instead.
    """

    name: str
    needs_scores: bool

    def push(self, node: Any, score: int) -> None: ...

    def pop(self) -> Any: ...

    def clear(self) -> None: ...

    def __len__(self) -> int: ...


class BreadthFirstStrategy:
    """FIFO frontier: explore configurations in discovery order."""

    name = "bfs"
    needs_scores = False

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, node: Any, score: int) -> None:
        self._queue.append(node)

    def pending_seeds(self, seeds: Iterable[Tuple[int, Any]]) -> "PendingSeeds":
        # An eager search queues every seed ahead of every other node.
        return PendingSeeds(iter(seeds), lambda score: True)

    def pop(self) -> Any:
        return self._queue.popleft()

    def clear(self) -> None:
        self._queue.clear()

    def __len__(self) -> int:
        return len(self._queue)


class DepthFirstStrategy:
    """LIFO frontier: follow one growth path of the witness at a time."""

    name = "dfs"
    needs_scores = False

    def __init__(self) -> None:
        self._stack: List[Any] = []

    def push(self, node: Any, score: int) -> None:
        self._stack.append(node)

    def pending_seeds(self, seeds: Iterable[Tuple[int, Any]]) -> "PendingSeeds":
        # An eager search stacks every seed below every other node: seeds
        # leave last first, each once the stack above it has drained.
        return PendingSeeds(reversed(list(seeds)), lambda score: not self._stack)

    def pop(self) -> Any:
        return self._stack.pop()

    def clear(self) -> None:
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._stack)


class BestFirstStrategy:
    """Priority frontier ordered by abstraction-key size (small keys first).

    Ties break by insertion order, so with constant scores this degrades
    gracefully to breadth-first exploration.
    """

    name = "priority"
    needs_scores = True

    def __init__(self, score_of: Optional[Callable[[Any], int]] = None) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        self._counter = 0
        self._score_of = score_of

    def push(self, node: Any, score: int) -> None:
        if self._score_of is not None:
            score = self._score_of(node)
        heapq.heappush(self._heap, (score, self._counter, node))
        self._counter += 1

    def pending_seeds(self, seeds: Iterable[Tuple[int, Any]]) -> "PendingSeeds":
        # An eager search gives every seed a lower push counter than any
        # other node, so a seed leaves before the heap's head unless the head
        # scores lower.  Seed scores must be the scores pushes use: this
        # frontier must not have a ``score_of``.
        ordered = sorted(seeds, key=lambda pair: pair[0])
        return PendingSeeds(
            iter(ordered), lambda score: not self._heap or score <= self._heap[0][0]
        )

    def pop(self) -> Any:
        return heapq.heappop(self._heap)[2]

    def clear(self) -> None:
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)


class PendingSeeds:
    """Initial configurations a search has not taken yet, for built-in frontiers.

    An eager search pushes every seed before its first pop.  A built-in
    strategy's ``pending_seeds`` instead holds them back, as ``(score, seed)``
    pairs in the order its eager frontier would pop them, and ``due()`` says
    whether that frontier would pop the next seed before its own head.  Taking
    a seed exactly when it is due reproduces the eager pop order.
    """

    __slots__ = ("_seeds", "_next", "_before_head")

    def __init__(
        self, seeds: Iterator[Tuple[int, Any]], before_head: Callable[[int], bool]
    ) -> None:
        self._seeds = seeds
        self._next = next(seeds, None)
        self._before_head = before_head

    def due(self) -> bool:
        return self._next is not None and self._before_head(self._next[0])

    def take(self) -> Any:
        seed = self._next[1]
        self._next = next(self._seeds, None)
        return seed


#: Specs accepted by :func:`make_strategy`: a name, a ready instance, or a
#: zero-argument factory.
StrategySpec = Union[str, SearchStrategy, Callable[[], SearchStrategy]]

_BUILTIN_STRATEGIES = {
    "bfs": BreadthFirstStrategy,
    "breadth-first": BreadthFirstStrategy,
    "dfs": DepthFirstStrategy,
    "depth-first": DepthFirstStrategy,
    "priority": BestFirstStrategy,
    "best-first": BestFirstStrategy,
}

STRATEGY_NAMES: Tuple[str, ...] = ("bfs", "dfs", "priority")


def make_strategy(spec: StrategySpec) -> SearchStrategy:
    """Resolve a strategy spec into a frontier instance.

    Names and factories produce a fresh instance per call; a ready-made
    instance is returned as-is, so the engine empties whatever frontier it
    receives before starting a search.
    """
    if isinstance(spec, str):
        try:
            factory = _BUILTIN_STRATEGIES[spec.lower()]
        except KeyError:
            raise SolverError(
                f"unknown search strategy {spec!r}; "
                f"available: {', '.join(sorted(_BUILTIN_STRATEGIES))}"
            ) from None
        return factory()
    if isinstance(spec, type):
        return spec()
    if hasattr(spec, "push") and hasattr(spec, "pop"):
        return spec  # a ready-made (presumably empty) frontier
    if callable(spec):
        return spec()
    raise SolverError(f"cannot build a search strategy from {spec!r}")


def abstraction_key_score(key: Any, _depth: int = 0) -> int:
    """A cheap size estimate of an abstraction key, for best-first scoring.

    Counts the leaves of the (tuple/frozenset-shaped) key with a recursion
    cap; the exact number is irrelevant, only the relative order matters.
    """
    if _depth >= 4:
        return 1
    if isinstance(key, (tuple, frozenset, list)):
        return sum(abstraction_key_score(item, _depth + 1) for item in key) + 1
    return 1
