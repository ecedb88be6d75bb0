"""Compiled transition plans and the incremental candidate protocol.

Covers the plan compiler (selectivity ordering, decisiveness, templates),
the engine's plan-driven fast path against the legacy cache-free path across
all five shipped theories (verdicts, witness validity, and the
``duplicate_keys_pruned + rejected`` accounting), the process-wide plan
cache, and the frontier-size sampling regression fix.
"""

import pytest

from repro.datavalues import NaturalsWithEquality, with_data_values
from repro.fraisse.engine import EmptinessSolver
from repro.fraisse.plans import (
    DeltaContext,
    PlanSet,
    compile_guard,
    compile_plans,
    prime_plans,
)
from repro.library import odd_red_cycle_system, triangle_system
from repro.logic.parser import parse_formula
from repro.logic.threevalued import UNKNOWN
from repro.perf import caches_disabled
from repro.relational import (
    COLORED_GRAPH_SCHEMA,
    GRAPH_SCHEMA,
    AllDatabasesTheory,
    HomTheory,
    clique_template,
)
from repro.systems.dds import DatabaseDrivenSystem
from repro.trees import TreeRunTheory, tree_schema, universal_automaton
from repro.words import NFA, WordRunTheory, word_schema


# -- guard compilation ------------------------------------------------------------


def _graph_guard(text: str):
    return parse_formula(text)


def test_compile_guard_decisive_for_pure_relational_guard():
    guard = _graph_guard("x_old = x_new & E(x_new, y_new)")
    compiled = compile_guard(guard, GRAPH_SCHEMA)
    assert compiled.decisive
    assert compiled.atom_templates == (("E", (("new", "x"), ("new", "y"))),)


def test_compile_guard_not_decisive_for_unknown_symbols():
    guard = _graph_guard("E(x_new, y_new)")
    # Compile against a schema without E: the atom cannot be decided.
    from repro.logic.schema import Schema

    empty_schema = Schema.relational()
    compiled = compile_guard(guard, empty_schema)
    assert not compiled.decisive

    context = DeltaContext({}, {"x": 0, "y": 1}, lambda s, t: False)
    assert compiled.evaluator(context) is UNKNOWN


def test_compiled_guard_evaluates_like_semantics():
    guard = _graph_guard("E(x_old, y_new) & !(x_old = y_new)")
    compiled = compile_guard(guard, GRAPH_SCHEMA)
    facts = {("E", (0, 1))}

    def fact(symbol, elements):
        return (symbol, elements) in facts

    context = DeltaContext({"x": 0, "y": 0}, {"x": 0, "y": 1}, fact)
    assert compiled.evaluator(context) is True
    context.value_new = {"x": 0, "y": 0}
    assert compiled.evaluator(context) is False  # equality atom now violated


def test_selectivity_ordering_rejects_on_equality_before_relation_atom():
    # The relation atom is first in source order; the compiled plan must
    # reject via the (cheaper) equality without consulting the fact oracle.
    guard = _graph_guard("E(x_new, y_new) & !(x_new = x_new)")
    compiled = compile_guard(guard, GRAPH_SCHEMA)
    assert compiled.decisive

    calls = []

    def fact(symbol, elements):
        calls.append((symbol, elements))
        return True

    context = DeltaContext({}, {"x": 0, "y": 1}, fact)
    assert compiled.evaluator(context) is False
    assert calls == []


def test_three_valued_guard_keeps_source_order():
    # With an undecidable atom the guard must NOT be reordered: UNKNOWN
    # short-circuiting has to match the legacy FormulaError semantics.
    from repro.logic.schema import Schema

    schema = Schema.relational(E=2)
    guard = parse_formula("sim(x_new, y_new) & E(x_new, y_new)")
    compiled = compile_guard(guard, schema)
    assert not compiled.decisive
    context = DeltaContext({}, {"x": 0, "y": 1}, lambda s, t: False)
    # The unknown sim atom comes first in source order and stops the And.
    assert compiled.evaluator(context) is UNKNOWN


def test_plan_set_compiles_one_plan_per_transition():
    system = triangle_system()
    theory = AllDatabasesTheory(GRAPH_SCHEMA)
    plans = compile_plans(system, theory)
    assert len(plans) == len(set(system.transitions))
    for plan in plans:
        assert plan.compiled is not None
        assert plan.decisive


def test_prime_plans_counts_compiled_guards():
    system = triangle_system()
    theory = AllDatabasesTheory(GRAPH_SCHEMA)
    assert prime_plans(system, theory) == len(set(system.transitions))
    with caches_disabled():
        assert prime_plans(system, theory) == 0


def test_compiled_guards_are_memoised_per_theory_instance():
    system = triangle_system()
    theory = HomTheory(clique_template(2))
    first = compile_plans(system, theory)
    again = compile_plans(system, theory)
    assert all(a.compiled is b.compiled for a, b in zip(first, again))
    # An equal theory, as the next job rebuilds it from its spec, compiles its
    # own guards: no compiled guard outlives the theory that compiled it.
    rebuilt = compile_plans(system, HomTheory(clique_template(2)))
    assert all(a.compiled is not b.compiled for a, b in zip(first, rebuilt))


# -- fast/legacy equivalence across all five theories ------------------------------


def _word_case():
    nfa = NFA.make(
        states=["s0", "s1"], alphabet=["a", "b"],
        transitions=[("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "a", "s1")],
        initial=["s0"], accepting=["s1"],
    )
    schema = word_schema(["a", "b"])
    system = DatabaseDrivenSystem.build(
        schema=schema, registers=["x"], states=["p", "q"], initial="p", accepting="q",
        transitions=[
            ("p", "label_a(x_old) & label_b(x_new) & before(x_old, x_new)", "q")
        ],
    )
    return system, lambda: WordRunTheory(nfa), True


def _tree_case():
    schema = tree_schema(["a", "b"])
    system = DatabaseDrivenSystem.build(
        schema=schema, registers=["x"], states=["p", "q"], initial="p", accepting="q",
        transitions=[("p", "label_a(x_old) & label_b(x_new) & "
                     "anc(x_old, x_new)", "q")],
    )
    return system, lambda: TreeRunTheory(universal_automaton(["a", "b"])), True


def _data_case():
    values = NaturalsWithEquality()
    schema = GRAPH_SCHEMA.extend(relations={values.relation_name: 2})
    system = DatabaseDrivenSystem.build(
        schema=schema, registers=["x"], states=["p", "q"], initial="p",
        accepting="q",
        transitions=[
            ("p", f"E(x_old, x_new) & !({values.relation_name}(x_old, x_new))", "q")
        ],
    )
    return (
        system,
        lambda: with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), values),
        True,
    )


def _equivalence_cases():
    return [
        pytest.param(
            triangle_system(),
            lambda: AllDatabasesTheory(GRAPH_SCHEMA),
            True,
            id="all_databases",
        ),
        pytest.param(
            triangle_system(),
            lambda: HomTheory(clique_template(2)),
            False,
            id="hom",
        ),
        pytest.param(*_word_case(), id="word"),
        pytest.param(*_tree_case(), id="tree"),
        pytest.param(*_data_case(), id="data"),
        pytest.param(
            odd_red_cycle_system(),
            lambda: AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
            True,
            id="all_databases_colored",
        ),
    ]


@pytest.mark.parametrize("system,theory_builder,expected", _equivalence_cases())
def test_fast_path_matches_legacy_verdicts_and_accounting(
    system, theory_builder, expected
):
    """Plans on vs caches_disabled(): identical verdicts, witnesses and counts.

    The candidate stream is identical on both paths; only *where* rejected
    candidates die differs (compiled pre-materialization rejection vs the
    engine's full-database evaluation), so the duplicate-plus-rejected
    accounting must balance exactly.
    """
    fast = EmptinessSolver(theory_builder()).check(system)
    with caches_disabled():
        legacy = EmptinessSolver(theory_builder()).check(system)

    assert fast.nonempty == legacy.nonempty == expected
    assert fast.exhausted and legacy.exhausted
    if expected:
        # verify_witnesses=True already replayed the run; assert artefacts.
        assert fast.run is not None and fast.run.database is not None
        assert legacy.run is not None and legacy.run.database is not None

    fs, ls = fast.statistics, legacy.statistics
    assert fs.candidates_generated == ls.candidates_generated
    assert fs.configurations_enqueued == ls.configurations_enqueued
    assert fs.configurations_explored == ls.configurations_explored
    assert fs.duplicate_keys_pruned == ls.duplicate_keys_pruned
    # Every candidate is enqueued, a duplicate, or rejected -- and rejected
    # candidates split between the plan (pre-materialization) and the
    # engine's authoritative evaluation on the fast path.
    fast_rejected = fs.plan_rejected_pre_materialization + fs.guard_rejections
    assert fs.duplicate_keys_pruned + fast_rejected == (
        ls.duplicate_keys_pruned + ls.guard_rejections
    )
    # The legacy path never consults plans.
    assert ls.plan_rejected_pre_materialization == 0
    assert ls.plan_compiled_guard_hits == 0


def test_plan_statistics_surface_in_search_statistics():
    system = triangle_system()
    result = EmptinessSolver(HomTheory(clique_template(2))).check(system)
    stats = result.statistics
    payload = stats.as_dict()
    for field in (
        "plan_rejected_pre_materialization",
        "plan_compiled_guard_hits",
        "plan_fallback_evaluations",
        "plan_enumeration_pruned",
        "plans",
    ):
        assert field in payload
    # The register-shuffle candidates of the triangle system are rejected
    # before materialization, and surviving guards are decided compiled.
    assert stats.plan_rejected_pre_materialization > 0
    assert stats.guard_evaluations == 0
    assert payload["plans"], "per-plan breakdown missing"
    for per_plan in payload["plans"].values():
        assert "rejected_pre_materialization" in per_plan
        assert "compiled_guard_hits" in per_plan


def test_unknown_guard_atoms_fall_back_to_authoritative_evaluation():
    system, theory_builder, expected = _data_case()
    result = EmptinessSolver(theory_builder()).check(system)
    assert result.nonempty == expected
    # Data-value atoms cannot be decided on the delta, so the engine must
    # have evaluated at least some guards on the materialized database.
    assert result.statistics.guard_evaluations > 0


def test_successor_configurations_identical_fast_vs_legacy():
    """Direct enumeration callers see the same stream on both paths."""
    system = triangle_system()
    theory_fast = HomTheory(clique_template(2))
    theory_legacy = HomTheory(clique_template(2))
    transition = system.transitions[0]
    configs = list(theory_fast.initial_configurations(system))[:5]
    for config in configs:
        fast = list(
            theory_fast.successor_configurations(system, config, transition)
        )
        with caches_disabled():
            legacy = list(
                theory_legacy.successor_configurations(system, config, transition)
            )
        assert fast == legacy


# -- frontier sampling regression (max_frontier_size) ------------------------------


def test_max_frontier_size_counts_final_enqueues():
    """The frontier peak must include pushes after the last pop.

    The old engine sampled the frontier only at pop time, so a goal found
    right after a burst of enqueues under-reported the peak.  This system
    enqueues many successors from the first explored node and only then
    takes the accepting transition, so the true peak is reached between the
    first pop and the goal.
    """
    system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA,
        registers=["x", "y"],
        states=["p", "r", "acc"],
        initial="p",
        accepting="acc",
        # The first transition floods the frontier with fresh (state r) keys
        # from the first popped node; the second then reaches the goal from
        # the same node, ending the search before anything else is popped.
        transitions=[
            ("p", "true", "r"),
            ("p", "x_old = x_new & y_old = y_new", "acc"),
        ],
    )
    theory = AllDatabasesTheory(GRAPH_SCHEMA)
    result = EmptinessSolver(theory).check(system)
    assert result.nonempty
    stats = result.statistics
    # Exactly one node was popped before the goal, and the goal itself is
    # counted as enqueued but never pushed, so the true peak is everything
    # enqueued minus the goal minus the one pop.
    assert stats.configurations_explored == 1
    # Regression guard: seeds are built on demand, so at the only pop the
    # frontier is empty, and pop-time sampling alone would report 0.
    assert stats.max_frontier_size == stats.configurations_enqueued - 2 > 0


def test_max_frontier_size_consistent_between_paths():
    system = triangle_system()
    fast = EmptinessSolver(AllDatabasesTheory(GRAPH_SCHEMA)).check(system)
    with caches_disabled():
        legacy = EmptinessSolver(AllDatabasesTheory(GRAPH_SCHEMA)).check(system)
    assert fast.statistics.max_frontier_size == legacy.statistics.max_frontier_size


# -- plan-driven engine on strategies ---------------------------------------------


@pytest.mark.parametrize("strategy", ["bfs", "dfs", "priority"])
def test_plan_fast_path_strategy_agreement(strategy):
    system = triangle_system()
    fast = EmptinessSolver(HomTheory(clique_template(2)), strategy=strategy).check(
        system
    )
    with caches_disabled():
        legacy = EmptinessSolver(
            HomTheory(clique_template(2)), strategy=strategy
        ).check(system)
    assert fast.nonempty == legacy.nonempty is False


def test_plan_set_handles_foreign_transition():
    system = triangle_system()
    other = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA, registers=["x"], states=["p"], initial="p",
        accepting="p", transitions=[("p", "true", "p")],
    )
    plans = PlanSet(system, AllDatabasesTheory(GRAPH_SCHEMA))
    foreign = other.transitions[0]
    plan = plans.plan_for(foreign)
    assert plan.transition is foreign
