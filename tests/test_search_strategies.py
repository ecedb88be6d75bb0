"""The pluggable search layer: strategy agreement, statistics, cache counters.

The verdict of the emptiness procedure must not depend on the frontier
discipline (soundness comes from witness re-validation, completeness from the
abstraction-key pruning), so BFS, DFS and best-first must agree on every
example system -- this file pins that down for the e1-e3 workloads, plus the
instrumentation the fast-path engine core added: duplicate-key pruning and
abstraction-key cache counters.
"""

import pytest

from repro import AllDatabasesTheory, EmptinessSolver, HomTheory, clique_template
from repro.errors import SolverError
from repro.fraisse.search import (
    STRATEGY_NAMES,
    BestFirstStrategy,
    BreadthFirstStrategy,
    DepthFirstStrategy,
    abstraction_key_score,
    make_strategy,
)
from repro.library import (
    odd_red_cycle_system,
    self_loop_required_system,
    triangle_system,
)
from repro.relational.csp import COLORED_GRAPH_SCHEMA, GRAPH_SCHEMA

EXAMPLE_CASES = [
    pytest.param(
        odd_red_cycle_system,
        lambda: AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
        True,
        id="e1-odd-red-cycle-all",
    ),
    pytest.param(
        triangle_system,
        lambda: HomTheory(clique_template(2)),
        False,
        id="e2-triangle-hom-k2",
    ),
    pytest.param(
        triangle_system,
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        True,
        id="e3-triangle-all",
    ),
    pytest.param(
        self_loop_required_system,
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        True,
        id="e3-self-loop-all",
    ),
]


@pytest.mark.parametrize("system_builder,theory_builder,expected", EXAMPLE_CASES)
def test_all_strategies_agree_on_example_systems(
    system_builder, theory_builder, expected
):
    system = system_builder()
    for strategy in STRATEGY_NAMES:
        result = EmptinessSolver(theory_builder(), strategy=strategy).check(system)
        assert result.nonempty == expected, f"strategy {strategy} disagrees"
        assert result.exhausted
        assert result.statistics.strategy == strategy
        if expected:
            # Every positive verdict carries a replayable witness regardless
            # of exploration order (the engine re-validates it itself, but
            # assert the artefacts are present).
            assert result.run is not None
            assert result.run is not None


@pytest.mark.parametrize("system_builder,theory_builder,expected", EXAMPLE_CASES)
def test_default_solver_returns_the_expected_verdict(system_builder, theory_builder, expected):
    """A solver built with no options searches bfs to the expected verdict."""
    result = EmptinessSolver(theory_builder()).check(system_builder())
    assert result.statistics.strategy == "bfs"
    assert result.exhausted
    assert result.nonempty == expected


def test_statistics_and_cache_counters_are_populated():
    system = odd_red_cycle_system()
    result = EmptinessSolver(
        AllDatabasesTheory(COLORED_GRAPH_SCHEMA), strategy="bfs"
    ).check(system)
    stats = result.statistics
    assert stats.candidates_generated > 0
    assert stats.configurations_enqueued > 0
    assert stats.duplicate_keys_pruned > 0
    # Every abstraction key computed registers as a miss: the engine keeps
    # no key memo, so hits stay 0.
    assert stats.key_cache_misses > 0
    payload = stats.as_dict()
    for field in (
        "duplicate_keys_pruned",
        "key_cache_hits",
        "key_cache_misses",
        "strategy",
    ):
        assert field in payload


def test_repeated_check_on_one_solver_is_identical():
    """A second check on the same solver repeats the first, times apart."""
    system = triangle_system()
    solver = EmptinessSolver(AllDatabasesTheory(GRAPH_SCHEMA))
    first = solver.check(system)
    second = solver.check(system)
    assert first.nonempty == second.nonempty
    timeless = [
        {name: value for name, value in result.statistics.as_dict().items()
         if name != "elapsed_seconds"}
        for result in (first, second)
    ]
    assert timeless[0] == timeless[1]


def test_dfs_explores_at_most_as_many_configurations_on_nonempty():
    """On this workload DFS reaches an accepting state without draining BFS's
    whole frontier (a sanity check that the strategies genuinely differ)."""
    system = odd_red_cycle_system()
    bfs = EmptinessSolver(
        AllDatabasesTheory(COLORED_GRAPH_SCHEMA), strategy="bfs"
    ).check(system)
    dfs = EmptinessSolver(
        AllDatabasesTheory(COLORED_GRAPH_SCHEMA), strategy="dfs"
    ).check(system)
    assert bfs.nonempty and dfs.nonempty
    assert dfs.statistics.configurations_explored > 0
    assert bfs.statistics.configurations_explored > 0


def test_make_strategy_resolves_names_instances_and_factories():
    assert isinstance(make_strategy("bfs"), BreadthFirstStrategy)
    assert isinstance(make_strategy("depth-first"), DepthFirstStrategy)
    assert isinstance(make_strategy("priority"), BestFirstStrategy)
    assert isinstance(make_strategy(DepthFirstStrategy), DepthFirstStrategy)
    ready = BestFirstStrategy()
    assert make_strategy(ready) is ready
    with pytest.raises(SolverError):
        make_strategy("simulated-annealing")


def test_frontier_disciplines():
    bfs = BreadthFirstStrategy()
    dfs = DepthFirstStrategy()
    best = BestFirstStrategy()
    for strategy in (bfs, dfs, best):
        for score, item in ((3, "heavy"), (1, "light"), (2, "medium")):
            strategy.push(item, score)
        assert len(strategy) == 3
    assert bfs.pop() == "heavy"  # FIFO
    assert dfs.pop() == "medium"  # LIFO
    assert best.pop() == "light"  # smallest score first
    bfs.clear()
    assert len(bfs) == 0


def test_abstraction_key_score_orders_by_size():
    small = (("r", "x"),)
    large = (("r", "x"), ("s", "y"), frozenset({("E", "x", "y"), ("E", "y", "x")}))
    assert abstraction_key_score(small) < abstraction_key_score(large)


def test_reused_strategy_instance_starts_with_empty_frontier():
    """A check that hits the configuration cap leaves frontier nodes behind;
    a later check through the same strategy instance must not inherit them."""
    strategy = BreadthFirstStrategy()
    capped = EmptinessSolver(
        AllDatabasesTheory(GRAPH_SCHEMA), max_configurations=2, strategy=strategy
    ).check(self_loop_required_system())
    assert not capped.exhausted
    assert len(strategy) > 0  # stale nodes left by the interrupted search
    fresh = EmptinessSolver(
        AllDatabasesTheory(GRAPH_SCHEMA), strategy=strategy
    ).check(triangle_system())
    assert fresh.nonempty and fresh.exhausted
