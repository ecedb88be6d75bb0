"""Seeds cover keys: the soundness of building seeds on demand.

For a theory with ``seeds_cover_keys`` the engine builds an initial
configuration only when its search would pop it, and prunes a candidate that
lands on an initial state as a duplicate without keying it.  That matches an
eager search, which has every seed key in ``visited`` before it explores,
exactly when (a) every configuration reachable in an initial state has the
key of a seed, (b) seeds have pairwise distinct keys, so no seed is pruned
in one order and kept in another, and (c) each seed's predicted score is the
score of its key, so best-first takes it where the eager heap would.

The reference exploration below checks (a) without the engine: it drives
``successor_configurations`` and ``guard_holds`` from every seed and keys
configurations with ``abstraction_key`` itself.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Tuple

import pytest

from repro import EmptinessSolver
from repro.fraisse.base import DatabaseTheory, Seed, guard_holds
from repro.fraisse.search import BreadthFirstStrategy, abstraction_key_score
from repro.library import register_swap_system, triangle_system
from repro.relational import GRAPH_SCHEMA, AllDatabasesTheory, HomTheory, clique_template
from repro.systems.dds import DatabaseDrivenSystem
from repro.words import WordRunTheory
from repro.workloads import generate_jobs

#: Configurations the reference exploration expands per system.
EXPLORATION_LIMIT = 150


def enters_initial_state(system: DatabaseDrivenSystem) -> bool:
    return any(t.target in system.initial_states for t in system.transitions)


def back_edge_jobs(families: List[str], count: int, seed: int):
    jobs = generate_jobs(20 * count, seed=seed, families=families)
    picked = [job for job in jobs if enters_initial_state(job.system)][:count]
    assert len(picked) == count
    return picked


def seed_keys(system: DatabaseDrivenSystem, theory: DatabaseTheory) -> List[Hashable]:
    return [theory.abstraction_key(config) for config in theory.initial_configurations(system)]


def landing_keys(
    system: DatabaseDrivenSystem, theory: DatabaseTheory, limit: int = EXPLORATION_LIMIT
) -> List[Hashable]:
    """Keys of the configurations a bounded bfs reaches in an initial state.

    Every reachable (state, key) is explored once, landings included, so
    nothing reachable is skipped on the strength of the claim under test.
    """
    frontier: deque = deque()
    seen = set()
    for state in sorted(system.initial_states):
        for config in theory.initial_configurations(system):
            seen.add((state, theory.abstraction_key(config)))
            frontier.append((state, config))
    landed: List[Hashable] = []
    explored = 0
    while frontier and explored < limit:
        state, config = frontier.popleft()
        explored += 1
        for transition in system.transitions_from(state):
            for candidate in theory.successor_configurations(system, config, transition):
                if not guard_holds(
                    theory.database(candidate),
                    system.registers,
                    transition.guard,
                    config.valuation,
                    candidate.valuation,
                ):
                    continue
                key = theory.abstraction_key(candidate)
                if transition.target in system.initial_states:
                    landed.append(key)
                if (transition.target, key) not in seen:
                    seen.add((transition.target, key))
                    frontier.append((transition.target, candidate))
    return landed


def covering_cases() -> List[Tuple[str, DatabaseDrivenSystem, DatabaseTheory]]:
    cases = [
        (job.label, job.system, job.theory)
        for job in back_edge_jobs(["relational", "hom"], 60, seed=1901)
    ]
    swap = register_swap_system()
    cases += [
        ("register-swap-hom-k2", swap, HomTheory(clique_template(2))),
        ("register-swap-hom-k3", swap, HomTheory(clique_template(3))),
        ("register-swap-hom-k2-loops", swap, HomTheory(clique_template(2, with_loops=True))),
        ("register-swap-all", swap, AllDatabasesTheory(GRAPH_SCHEMA)),
    ]
    return cases


def test_back_edge_cases_cover_both_relational_theories():
    kinds = [type(theory) for _, _, theory in covering_cases()]
    assert kinds.count(AllDatabasesTheory) >= 20 and kinds.count(HomTheory) >= 20


def test_seeds_cover_every_key_reached_in_an_initial_state():
    failures = []
    landings = 0
    for label, system, theory in covering_cases():
        assert theory.seeds_cover_keys, label
        keys = seed_keys(system, theory)
        key_set = set(keys)
        if len(key_set) != len(keys):
            failures.append((label, "two seeds share a key"))
        landed = landing_keys(system, theory)
        landings += len(landed)
        if any(key not in key_set for key in landed):
            failures.append((label, "a landing on an initial state has no seed"))
    assert failures == []
    assert landings > 0


def test_register_swap_lands_on_initial_state_under_hom():
    system = register_swap_system()
    assert landing_keys(system, HomTheory(clique_template(2)))


def test_predicted_seed_score_is_the_key_score():
    for label, system, theory in covering_cases():
        for state in sorted(system.initial_states):
            for seed in theory.seeds(system):
                key = theory.abstraction_key(seed.build())
                assert seed.score == abstraction_key_score((state, key)), label


def test_word_run_stays_off_the_lazy_path():
    """A word key can take in function-generated positions no seed has."""
    assert not WordRunTheory.seeds_cover_keys
    uncovered = 0
    for job in back_edge_jobs(["word"], 30, seed=1902):
        keys = set(seed_keys(job.system, job.theory))
        uncovered += sum(key not in keys for key in landing_keys(job.system, job.theory))
    assert uncovered > 0


# -- which searches build seeds on demand ---------------------------------------


class _CountedHom(HomTheory):
    """A HOM theory that counts the seeds the engine builds."""

    built = 0

    def seeds(self, system):
        for seed in super().seeds(system):
            yield Seed(self._counted(seed.build), seed.score)

    def _counted(self, build):
        def counted():
            self.built += 1
            return build()

        return counted


@pytest.mark.parametrize("strategy", ["bfs", "dfs", "priority"])
def test_a_search_builds_only_the_seeds_it_takes(strategy):
    theory = _CountedHom(clique_template(2))
    result = EmptinessSolver(theory, max_configurations=3, strategy=strategy).check(
        triangle_system()
    )
    assert not result.exhausted
    assert theory.built <= 4


def test_a_caller_supplied_frontier_gets_every_seed_first():
    theory = _CountedHom(clique_template(2))
    system = triangle_system()
    EmptinessSolver(theory, max_configurations=1, strategy=BreadthFirstStrategy()).check(system)
    assert theory.built == sum(1 for _ in theory.seeds(system))


def test_an_accepting_initial_state_gets_every_seed_first():
    theory = _CountedHom(clique_template(2))
    system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA,
        registers=["x", "y"],
        states=["a", "b"],
        initial=["a", "b"],
        accepting="b",
        transitions=[("a", "E(x_old, y_old)", "b")],
    )
    result = EmptinessSolver(theory, strategy="bfs").check(system)
    assert result.nonempty and result.statistics.configurations_explored == 0
    # Every seed of ``a`` is pushed before the first seed of ``b`` is the goal.
    assert theory.built == sum(1 for _ in theory.seeds(system)) + 1
