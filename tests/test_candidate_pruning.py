"""Pruning relational candidates before building them.

The relational theories key a candidate from its delta
(:meth:`~repro.relational.theory.RelationalTheory.delta_key`) and force the
top-level literals of a decisive guard instead of testing every tuple subset;
the engine builds a candidate only when its key is new.  Each test checks one
of these against code that does not share it:

* a delta key equals :func:`~repro.fraisse.base.generic_abstraction_key` of
  the built configuration, on every candidate the plan path enumerates;
* the enumeration with forced literals yields the same deltas, in the same
  order and with the same statuses, as generate-and-test over the same
  deduplicated tuples (the plan with its literals removed), and the same
  configurations as the reference enumeration (``successor_configurations``);
* a tuple that two guard atoms name is one choice;
* no candidate that lands on an initial state, or repeats a visited key,
  is built.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import List

import pytest

from repro import EmptinessSolver
from repro.datavalues import NaturalsWithEquality
from repro.fraisse.base import Seed, generic_abstraction_key
from repro.fraisse.plans import CompiledGuard, TransitionPlan, compiled_guard_for
from repro.library import register_swap_system
from repro.relational import GRAPH_SCHEMA, AllDatabasesTheory, HomTheory, clique_template
from repro.systems.dds import DatabaseDrivenSystem

# The golden record's jobs are built by its own test module; make it
# importable under every pytest import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden_verdicts import enters_initial_state, golden_jobs  # noqa: E402

#: Seeds per system whose keys are checked as built (heavy jobs have ~1,000).
SEEDS_CHECKED = 200


def _relational_golden_jobs():
    return [
        job for job in golden_jobs() if isinstance(job.theory, (AllDatabasesTheory, HomTheory))
    ]


# -- keys from the delta -----------------------------------------------------------


def _check_delta_keys(theory) -> List[int]:
    """Make ``theory``'s plan enumeration check every delta's key as it goes."""
    checked: List[int] = []
    enumerate_deltas = theory.enumerate_deltas

    def checking(system, config, transition, plan=None):
        for delta in enumerate_deltas(system, config, transition, plan):
            built = theory.apply_delta(config, delta)
            expected = generic_abstraction_key(built.witness, built.valuation)
            key, prebuilt = theory.delta_key(config, delta)
            assert prebuilt is None
            assert key == expected
            assert theory.abstraction_key(built) == expected
            checked.append(1)
            yield delta

    theory.enumerate_deltas = checking
    return checked


def _check_seed_keys(system, theory) -> None:
    for config in itertools.islice(theory.initial_configurations(system), SEEDS_CHECKED):
        assert theory.abstraction_key(config) == generic_abstraction_key(
            config.witness, config.valuation
        )


def test_delta_keys_equal_the_generic_key_on_golden_relational_jobs():
    jobs = _relational_golden_jobs()
    assert {type(job.theory) for job in jobs} == {AllDatabasesTheory, HomTheory}
    checked = 0
    for job in jobs:
        checked_here = _check_delta_keys(job.theory)
        EmptinessSolver(
            job.theory, max_configurations=job.max_configurations, strategy=job.strategy
        ).check(job.system)
        checked += len(checked_here)
        if job.strategy == "bfs":
            _check_seed_keys(job.system, job.theory)
    assert checked > 10_000


@pytest.mark.parametrize(
    "template",
    [clique_template(2), clique_template(3), clique_template(2, with_loops=True)],
    ids=["k2", "k3", "k2-loops"],
)
def test_delta_keys_equal_the_generic_key_on_register_swap(template):
    system = register_swap_system()
    theory = HomTheory(template)
    checked = _check_delta_keys(theory)
    EmptinessSolver(theory, strategy="bfs").check(system)
    _check_seed_keys(system, theory)
    assert checked


# -- forced literals ------------------------------------------------------------


def _graph_system(guard: str, schema=GRAPH_SCHEMA, target: str = "q") -> DatabaseDrivenSystem:
    """One transition from ``p``; with ``target="p"`` the accepting ``q`` is unreachable."""
    return DatabaseDrivenSystem.build(
        schema=schema,
        registers=["x", "y"],
        states=["p", "q"],
        initial="p",
        accepting="q",
        transitions=[("p", guard, target)],
    )


def _stream(theory, system, config, compiled):
    transition = system.transitions[0]
    plan = TransitionPlan(transition, compiled)
    deltas = list(theory.enumerate_deltas(system, config, transition, plan))
    rows = [(d.valuation_items, d.fresh_elements, d.new_tuples, d.guard_status) for d in deltas]
    return deltas, rows, plan.stats.enumeration_pruned


def _forcing_run(theory, system):
    """Forced vs generate-and-test streams from every seed; returns pruned counts."""
    transition = system.transitions[0]
    compiled = compiled_guard_for(theory, transition.guard)
    plain = CompiledGuard(
        compiled.formula, compiled.evaluator, compiled.decisive, compiled.atom_templates
    )
    pruned_forced = pruned_plain = 0
    for config in theory.initial_configurations(system):
        deltas, forced_rows, forced_pruned = _stream(theory, system, config, compiled)
        _, plain_rows, plain_pruned = _stream(theory, system, config, plain)
        assert forced_rows == plain_rows
        reference = list(theory.successor_configurations(system, config, transition))
        assert [theory.apply_delta(config, delta) for delta in deltas] == reference
        pruned_forced += forced_pruned
        pruned_plain += plain_pruned
    return compiled, pruned_forced, pruned_plain


FORCING_CASES = [
    pytest.param(
        "E(x_old, y_new) & E(x_old, y_new) & E(y_new, y_new)",
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        id="tuple-named-twice",
    ),
    pytest.param(
        "!E(x_new, y_new) & E(y_new, x_new) & !E(x_old, x_new)",
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        id="negated-atoms",
    ),
    pytest.param(
        # Forced both in and out whenever x_new = y_new.
        "E(x_new, y_new) & !E(y_new, x_new)",
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        id="forced-both-ways",
    ),
    pytest.param(
        "(E(x_new, y_old) & !(x_old = y_new)) & !E(y_new, x_new)",
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        id="nested-conjunction",
    ),
    pytest.param(
        # K2 has no loop: a decoration colouring x_new and y_new alike does
        # not allow the forced-in tuple E(x_new, y_new).
        "E(x_new, y_new) & E(y_new, x_old)",
        lambda: HomTheory(clique_template(2)),
        id="hom-disallows-forced-tuple",
    ),
    pytest.param(
        "E(x_new, y_new) & !E(y_new, y_new) & E(x_old, x_new)",
        lambda: HomTheory(clique_template(3)),
        id="hom-k3",
    ),
    pytest.param(
        # The forced tuple E(x_new, x_new) comes first in the tuple list and
        # the disjunction's tuples are chosen freely after it.
        "E(x_new, x_new) & (E(x_new, y_new) | E(y_new, x_old))",
        lambda: AllDatabasesTheory(GRAPH_SCHEMA),
        id="forced-and-chosen-tuples",
    ),
    pytest.param(
        "E(x_new, x_new) & (E(x_new, y_new) | E(y_new, x_old)) & !E(y_new, y_new)",
        lambda: HomTheory(clique_template(2, with_loops=True)),
        id="hom-forced-and-chosen-tuples",
    ),
]


@pytest.mark.parametrize("guard,make_theory", FORCING_CASES)
def test_forced_literals_yield_the_generate_and_test_stream(guard, make_theory):
    theory = make_theory()
    compiled, pruned_forced, pruned_plain = _forcing_run(theory, _graph_system(guard))
    assert compiled.decisive and compiled.literal_templates
    # Forcing skipped subsets that generate-and-test evaluated and pruned.
    assert pruned_forced < pruned_plain


def test_a_disjunction_forces_nothing():
    theory = AllDatabasesTheory(GRAPH_SCHEMA)
    system = _graph_system("E(x_new, y_new) | !E(y_new, x_old)")
    compiled, pruned_forced, pruned_plain = _forcing_run(theory, system)
    assert compiled.decisive and compiled.literal_templates == ()
    assert pruned_forced == pruned_plain


def test_an_undecidable_atom_forces_nothing():
    # A data-value relation is outside the witness schema: the plan cannot
    # decide it, so the guard is not decisive and no literal is forced.
    relation = NaturalsWithEquality().relation_name
    schema = GRAPH_SCHEMA.extend(relations={relation: 2})
    system = _graph_system(f"E(x_new, y_new) & !{relation}(x_new, y_new)", schema)
    compiled, pruned_forced, pruned_plain = _forcing_run(AllDatabasesTheory(GRAPH_SCHEMA), system)
    assert not compiled.decisive and compiled.literal_templates == ()
    assert pruned_forced == pruned_plain


# -- a tuple named twice is one choice ------------------------------------------


@pytest.mark.parametrize(
    "make_theory",
    [lambda: AllDatabasesTheory(GRAPH_SCHEMA), lambda: HomTheory(clique_template(3))],
    ids=["all_databases", "hom-k3"],
)
def test_a_tuple_named_twice_is_one_choice(make_theory):
    # Loops on p, so the search explores everything.  The reference side is
    # the ``tuple-named-twice`` forcing case above.
    once = _graph_system("E(x_old, y_new) & !(y_old = y_new)", target="p")
    twice = _graph_system("E(x_old, y_new) & !(y_old = y_new) & E(x_old, y_new)", target="p")
    stats_once = EmptinessSolver(make_theory()).check(once).statistics
    stats = EmptinessSolver(make_theory()).check(twice).statistics
    assert stats_once.configurations_explored > 1
    assert stats.candidates_generated == stats_once.candidates_generated
    assert stats.duplicate_keys_pruned == stats_once.duplicate_keys_pruned
    assert stats.configurations_explored == stats_once.configurations_explored


# -- landings and duplicates are never built ------------------------------------


class _Recorder:
    """Wraps a relational theory's protocol to see which candidates get built."""

    def __init__(self, theory, system: DatabaseDrivenSystem) -> None:
        self.initial = system.initial_states
        self.targets = {}
        self.built = []
        self.seeds_built = 0
        self.landings = 0
        enumerate_deltas, apply_delta, seeds = (
            theory.enumerate_deltas,
            theory.apply_delta,
            theory.seeds,
        )

        def recording_deltas(system, config, transition, plan=None):
            for delta in enumerate_deltas(system, config, transition, plan):
                self.targets[id(delta)] = transition.target
                if transition.target in self.initial and delta.guard_status is True:
                    self.landings += 1
                yield delta

        def recording_apply(config, delta):
            self.built.append((self.targets[id(delta)], theory.delta_key(config, delta)[0]))
            return apply_delta(config, delta)

        def recording_seeds(system):
            for seed in seeds(system):
                yield Seed(self._counted(seed.build), seed.score)

        theory.enumerate_deltas = recording_deltas
        theory.apply_delta = recording_apply
        theory.seeds = recording_seeds

    def _counted(self, build):
        def counted():
            self.seeds_built += 1
            return build()

        return counted


def _back_edge_cases():
    """(system, theory, cap) of the golden back-edge jobs and register swap."""
    cases = [
        (job.system, job.theory, job.max_configurations)
        for job in _relational_golden_jobs()
        if enters_initial_state(job.system) and job.strategy == "bfs"
    ]
    system = register_swap_system()
    cases += [(system, HomTheory(clique_template(k)), 400) for k in (2, 3)]
    return cases


def test_landings_and_duplicates_are_never_built():
    landings = duplicates = 0
    cases = _back_edge_cases()
    assert len(cases) >= 10
    for system, theory, cap in cases:
        recorder = _Recorder(theory, system)
        stats = EmptinessSolver(theory, max_configurations=cap).check(system).statistics
        assert all(target not in system.initial_states for target, _ in recorder.built)
        assert len(set(recorder.built)) == len(recorder.built)
        assert len(recorder.built) == stats.configurations_enqueued - recorder.seeds_built
        # Landings and duplicates were still enumerated and guard-checked.
        assert stats.plan_compiled_guard_hits == len(recorder.built) + stats.duplicate_keys_pruned
        landings += recorder.landings
        duplicates += stats.duplicate_keys_pruned - recorder.landings
    assert landings > 0 and duplicates > 0
