"""Compiled transition plans and the incremental candidate protocol.

Covers the plan compiler (selectivity ordering, decisiveness, templates),
the per-theory memo of compiled guards, the engine's verdicts and candidate
accounting across all five shipped theories, the frontier-size sampling
regression fix, and the stream oracle: on every configuration a bounded
reference exploration reaches, applying a theory's deltas
(``enumerate_deltas``) gives exactly its reference enumeration
(``successor_configurations``), a decided guard status agrees with
``guard_holds``, and a delta key agrees with ``abstraction_key``.
"""

import json
import sys
from pathlib import Path

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
from repro.workloads import generate_jobs

# The golden record's jobs and the reference exploration live in their own
# test modules; make them importable under every pytest import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden_verdicts import golden_jobs  # noqa: E402
from test_seed_coverage import reference_walk  # noqa: E402


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
    # short-circuiting has to match the reference pre-filters' FormulaError semantics.
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


# -- verdicts and accounting across all five theories ------------------------------


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


def _negation_case():
    # Negated relation atoms on old and new registers: the old-register ones
    # are decided by the witness, not forced.
    system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA, registers=["x", "y"], states=["p", "q"], initial="p",
        accepting="q",
        transitions=[
            ("p", "!E(x_old, x_new) & E(x_new, y_new) & !E(y_new, y_old)", "p"),
            ("p", "E(x_old, y_old) & !E(y_old, x_old) & !E(x_old, x_old) & "
             "x_old = x_new & y_old = y_new", "q"),
        ],
    )
    return system, lambda: AllDatabasesTheory(GRAPH_SCHEMA), True


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
        pytest.param(*_negation_case(), id="negations"),
        pytest.param(
            odd_red_cycle_system(),
            lambda: AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
            True,
            id="all_databases_colored",
        ),
    ]


@pytest.mark.parametrize("system,theory_builder,expected", _equivalence_cases())
def test_verdicts_and_candidate_accounting(system, theory_builder, expected):
    """Every counted candidate ends in exactly one place.

    A candidate is rejected by its compiled guard before it is built, rejected
    by the authoritative evaluation, pruned as a duplicate key (or a landing
    on an initial state), or enqueued.
    """
    result = EmptinessSolver(theory_builder()).check(system)
    assert result.nonempty == expected
    assert result.exhausted
    if expected:
        # verify_witnesses=True already replayed the run; assert artefacts.
        assert result.run is not None and result.run.database is not None
    stats = result.statistics
    assert stats.candidates_generated == (
        stats.plan_rejected_pre_materialization
        + stats.guard_rejections
        + stats.duplicate_keys_pruned
        + stats.configurations_enqueued
    )


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


# -- plan-driven engine on strategies ---------------------------------------------


@pytest.mark.parametrize("strategy", ["bfs", "dfs", "priority"])
def test_plan_fast_path_strategy_agreement(strategy):
    system = triangle_system()
    result = EmptinessSolver(HomTheory(clique_template(2)), strategy=strategy).check(system)
    assert result.nonempty is False


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


# -- the stream oracle: delta streams against the reference enumerations ----------

#: Configurations the stream oracle explores per golden case; ``tree_wide``
#: systems enumerate thousands of candidates per configuration.
GOLDEN_EXPLORATION_LIMIT = 20
TREE_WIDE_EXPLORATION_LIMIT = 2


def _check_streams(system, theory, limit) -> int:
    """Check the delta stream of every step of :func:`reference_walk`.

    On each explored configuration and transition out of it, applying the
    deltas of the engine's plan gives the reference candidates in order; a
    delta whose compiled guard decided True (False) has a guard that holds
    (fails) on the built candidate's database; and a candidate whose guard
    holds has the delta key the reference keys it with.  Returns the number
    of candidates checked.
    """
    plans = compile_plans(system, theory)
    checked = 0
    for config, transition, successors in reference_walk(system, theory, limit):
        deltas = list(
            theory.enumerate_deltas(system, config, transition, plans.plan_for(transition))
        )
        built = [theory.apply_delta(config, delta) for delta in deltas]
        assert built == [candidate for candidate, _ in successors], transition
        for delta, (_, key) in zip(deltas, successors):
            if delta.guard_status is True or delta.guard_status is False:
                assert delta.guard_status is (key is not None), transition
            if key is not None:
                assert theory.delta_key(config, delta)[0] == key, transition
        checked += len(built)
    return checked


def _golden_stream_cases():
    """The distinct (system, theory) pairs of the golden record, with limits."""
    cases = {}
    for job in golden_jobs():
        pair = (
            json.dumps(job.system.to_spec(), sort_keys=True),
            json.dumps(job.theory.to_spec(), sort_keys=True),
        )
        if pair not in cases:
            wide = job.label.startswith("tree_wide")
            limit = TREE_WIDE_EXPLORATION_LIMIT if wide else GOLDEN_EXPLORATION_LIMIT
            cases[pair] = (job.label or "golden", job.system, job.theory, limit)
    return list(cases.values())


def test_delta_streams_match_the_reference_on_golden_jobs():
    cases = _golden_stream_cases()
    kinds = {type(theory).__name__ for _, _, theory, _ in cases}
    assert kinds == {
        "AllDatabasesTheory",
        "HomTheory",
        "WordRunTheory",
        "TreeRunTheory",
        "DataValuedTheory",
    }
    checked = sum(_check_streams(system, theory, limit) for _, system, theory, limit in cases)
    assert checked > 10_000


@pytest.mark.parametrize("system,theory_builder,expected", _equivalence_cases())
def test_delta_streams_match_the_reference(system, theory_builder, expected):
    assert _check_streams(system, theory_builder(), limit=150) > 0


def test_delta_stream_matches_the_reference_on_a_hom_deep_job():
    job = generate_jobs(1, seed=5, families=["hom_deep"])[0]
    assert _check_streams(job.system, job.theory, GOLDEN_EXPLORATION_LIMIT) > 0
