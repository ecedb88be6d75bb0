"""The generic emptiness decision procedure (Theorem 5).

The engine explores the graph whose nodes are pairs ``(control state,
abstraction key)`` -- the paper's *small configurations* -- and whose edges
are the sub-transitions enumerated by a :class:`~repro.fraisse.base.DatabaseTheory`.
It differs from the paper's presentation in one (behaviour-preserving) way:
instead of a nondeterministic space-bounded walker it performs a
deterministic memoised search, carrying along a *cumulative concrete
witness* so that every positive answer comes with an actual database and an
actual accepting run that are re-validated against the semantics of
:mod:`repro.systems`.

The exploration order is pluggable (:mod:`repro.fraisse.search`): breadth
first, depth first, or best first by abstraction-key size.  Order never
affects the verdict -- soundness rests on witness re-validation and
completeness is exactly the paper's argument: closure under embeddings and
amalgamation of the underlying class guarantees that pruning revisited
abstraction keys never loses reachable accepting states, whichever frontier
discipline drains the (finite) abstract space.

Keys before witnesses
---------------------
Theorem 5 identifies a configuration by the substructure its registers
generate, so a candidate's key is fixed by its delta -- the new valuation,
the fresh elements and the new tuples -- before its witness exists.  Once a
candidate's guard holds, the engine applies the landing rule below, then
asks the theory for the key (:meth:`~repro.fraisse.base.DatabaseTheory.delta_key`)
and checks ``visited``; only a candidate with a new key is built
(:meth:`~repro.fraisse.base.DatabaseTheory.apply_delta`).  Every theory goes
through this one admission path: the relational family reads the key off the
delta, the default builds the configuration once and keys it.  A candidate
whose compiled guard is UNKNOWN is built and evaluated first, and keyed as
built.  No key is memoised: each is computed once per candidate that reaches
it (``key_cache_misses``; ``key_cache_hits`` stays 0).

One path
--------
Every search compiles its system's transition plans
(:func:`~repro.fraisse.plans.compile_plans`) and drives each transition's plan
over the theory's delta stream (:meth:`~repro.fraisse.base.DatabaseTheory.enumerate_deltas`).
A theory's :meth:`~repro.fraisse.base.DatabaseTheory.successor_configurations`
is its reference enumeration: it builds every candidate the plain way, and the
tests check each delta stream against it, candidate for candidate.  A theory
without a delta stream of its own (the word theory) is driven through its
reference, which the default ``enumerate_deltas`` wraps.

Seeds on demand
---------------
Theorem 5's procedure guesses one initial small configuration and walks
sub-transitions from it; an eager search instead builds, keys and pushes every
seed before its first pop, while a capped search explores a few dozen of
them.  When the theory's seeds cover its keys
(:attr:`~repro.fraisse.base.DatabaseTheory.seeds_cover_keys`), the strategy
is a built-in one named by the caller, and no initial state is accepting, the
engine takes the theory's seed stream (:meth:`~repro.fraisse.base.DatabaseTheory.seeds`)
lazily instead: a seed is built and keyed only when the frontier would pop
it, in exactly the eager pop order
(:class:`~repro.fraisse.search.PendingSeeds`):

* bfs takes the next seed while any are left, then pops its queue;
* dfs takes seeds in reverse enumeration order, one whenever its stack is
  empty;
* priority merges the seeds, sorted by predicted score, with its heap by
  (score, push order), so a seed wins a score tie.

An eager search has every seed key in ``visited`` before it explores, so it
prunes a candidate that lands on an initial state whenever its key is a
seed's.  The relational classes are closed under substructures and their
seeds are every register-generated structure of the class, once each, so
every such landing has a seed's key: the lazy search prunes it as a duplicate
without computing the key.  Everything else (theories whose seeds do not
cover their keys, caller-supplied strategies, systems with an accepting
initial state) drains the same stream before the first pop, which is the
eager search.  Verdicts, ``exhausted``, ``configurations_explored`` and
witnesses are identical either way.

A deadline
----------
``check(..., deadline=...)`` raises :class:`~repro.errors.SearchTimeout` once
an absolute :func:`time.monotonic` instant has passed.  The search reads the
clock once per pop, once per seed taken and once every 64th candidate of a
drive (never once per candidate), and a search that finishes in time is the
same search without a deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.errors import SearchTimeout, SolverError
from repro.fraisse.base import (
    CandidateDelta,
    DatabaseTheory,
    Seed,
    TheoryConfiguration,
    guard_holds,
)
from repro.fraisse.plans import PlanSet, compile_plans
from repro.fraisse.search import PendingSeeds, StrategySpec, abstraction_key_score, make_strategy
from repro.logic.structures import Structure
from repro.systems.dds import DatabaseDrivenSystem, Run, Transition
from repro.telemetry import TraceRecorder


@dataclass
class SearchStatistics:
    """Instrumentation collected during a solver invocation.

    When the engine builds seeds on demand (see the module docstring),
    ``candidates_generated``, ``configurations_enqueued`` and
    ``max_frontier_size`` count only the seeds the search took; seeds it never
    reached are neither built nor counted, and a taken seed leaves the
    frontier as soon as it is taken.  ``configurations_explored`` counts the
    same pops as an eager search.

    The engine keeps no key memo: ``key_cache_misses`` counts the abstraction
    keys computed (one per seed taken and per candidate that passes its guard
    and does not land on an initial state), and ``key_cache_hits`` stays 0;
    both names are kept for stored statistics.  ``plan_enumeration_pruned``
    counts only the enumeration branches a theory evaluated: tuple subsets a
    forced literal excludes are never generated.

    Every candidate the engine counts ends in exactly one place, so
    ``candidates_generated == plan_rejected_pre_materialization +
    guard_rejections + duplicate_keys_pruned + configurations_enqueued``.
    """

    configurations_explored: int = 0
    configurations_enqueued: int = 0
    candidates_generated: int = 0
    guard_evaluations: int = 0
    guard_rejections: int = 0
    duplicate_keys_pruned: int = 0
    max_frontier_size: int = 0
    elapsed_seconds: float = 0.0
    largest_witness_size: int = 0
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    strategy: str = "bfs"
    # Compiled-plan counters.  ``plan_rejected_pre_materialization`` counts
    # candidates dropped before their successor database was built;
    # ``plan_compiled_guard_hits`` counts candidates whose compiled guard
    # made the authoritative full-database evaluation unnecessary.
    plan_rejected_pre_materialization: int = 0
    plan_compiled_guard_hits: int = 0
    plan_fallback_evaluations: int = 0
    plan_enumeration_pruned: int = 0
    plan_details: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "configurations_explored": self.configurations_explored,
            "configurations_enqueued": self.configurations_enqueued,
            "candidates_generated": self.candidates_generated,
            "guard_evaluations": self.guard_evaluations,
            "guard_rejections": self.guard_rejections,
            "duplicate_keys_pruned": self.duplicate_keys_pruned,
            "max_frontier_size": self.max_frontier_size,
            "elapsed_seconds": self.elapsed_seconds,
            "largest_witness_size": self.largest_witness_size,
            "key_cache_hits": self.key_cache_hits,
            "key_cache_misses": self.key_cache_misses,
            "strategy": self.strategy,
            "plan_rejected_pre_materialization": self.plan_rejected_pre_materialization,
            "plan_compiled_guard_hits": self.plan_compiled_guard_hits,
            "plan_fallback_evaluations": self.plan_fallback_evaluations,
            "plan_enumeration_pruned": self.plan_enumeration_pruned,
            "plans": dict(self.plan_details),
        }


@dataclass
class EmptinessResult:
    """Outcome of an emptiness check.

    ``nonempty`` is True when an accepting run exists; in that case ``run``
    describes a concrete database of the class (``run.database``) and an
    accepting run driven by it, and ``evidence`` carries the theory's
    accepting evidence (see :meth:`~repro.fraisse.base.DatabaseTheory.certify`)
    from which :func:`repro.certify.build_certificate` assembles a replayable,
    engine-independent certificate.  ``exhausted`` is True when the whole
    abstract configuration space was explored (so a negative answer is
    definitive); it is False only if a resource limit interrupted the search.
    """

    nonempty: bool
    run: Optional[Run] = None
    exhausted: bool = True
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    evidence: Optional[Dict[str, Any]] = None

    @property
    def empty(self) -> bool:
        return not self.nonempty

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.nonempty


@dataclass
class _SearchNode:
    state: str
    config: TheoryConfiguration
    parent: Optional["_SearchNode"]
    transition: Optional[Transition]
    depth: int


class EmptinessSolver:
    """Decides emptiness of database-driven systems over a database theory.

    Parameters
    ----------
    theory:
        The class of databases runs may be driven by.
    max_configurations:
        Safety cap on the number of abstract configurations explored.  The
        abstract space is finite for the decidable theories shipped with the
        library, so the default is simply a guard against pathological inputs;
        if the cap is hit the result is returned with ``exhausted=False``.
    verify_witnesses:
        When True (the default), every positive answer is re-validated by
        replaying the reconstructed run on the reconstructed database through
        :meth:`repro.systems.dds.DatabaseDrivenSystem.validate_run`.
    strategy:
        Exploration order: ``"bfs"`` (default, the seed engine's behaviour),
        ``"dfs"``, ``"priority"``, or any
        :class:`~repro.fraisse.search.SearchStrategy` factory.  The verdict
        is strategy-independent; only the discovered witness and the explored
        portion of the space vary.  Only a strategy given by name lets the
        engine build seeds on demand (see the module docstring).
    """

    def __init__(
        self,
        theory: DatabaseTheory,
        max_configurations: int = 200_000,
        verify_witnesses: bool = True,
        strategy: StrategySpec = "bfs",
    ) -> None:
        if max_configurations <= 0:
            raise SolverError("max_configurations must be positive")
        self._theory = theory
        self._max_configurations = max_configurations
        self._verify_witnesses = verify_witnesses
        self._strategy_spec = strategy

    @property
    def theory(self) -> DatabaseTheory:
        return self._theory

    # -- main entry point ------------------------------------------------------

    def check(
        self,
        system: DatabaseDrivenSystem,
        trace: Optional[TraceRecorder] = None,
        deadline: Optional[float] = None,
    ) -> EmptinessResult:
        """Is there a database in the theory's class driving an accepting run?

        ``trace``, when given, records timed spans for the solver phases
        (plan compilation, per-transition drives, witness reconstruction)
        and frontier milestones; untraced runs only pay ``trace is None``
        predicates.  ``deadline``, when given, is a :func:`time.monotonic`
        instant past which the search raises
        :class:`~repro.errors.SearchTimeout` (see the module docstring).
        """
        if not system.schema.is_subschema_of(self._theory.schema):
            raise SolverError(
                "the system's schema is not contained in the theory's schema: "
                f"{system.schema!r} vs {self._theory.schema!r}"
            )
        frontier = make_strategy(self._strategy_spec)
        # A spec may resolve to a caller-supplied instance; a previous check
        # that hit the configuration cap (or found a goal among the seeds)
        # can have left nodes behind, so always start from an empty frontier.
        frontier.clear()
        # bfs/dfs ignore scores; skip the per-node key walk for them.
        needs_scores = getattr(frontier, "needs_scores", True)
        stats = SearchStatistics(strategy=frontier.name)
        start_time = time.perf_counter()
        visited: Dict[Tuple[str, Hashable], int] = {}
        if trace is None:
            plan_set = compile_plans(system, self._theory)
        else:
            with trace.span("compile_plans", "plan") as span_args:
                plan_set = compile_plans(system, self._theory)
                span_args["plans"] = len(plan_set)

        goal: Optional[_SearchNode] = None
        seeds = (
            (seed.score, (state, seed))
            for state in sorted(system.initial_states)
            for seed in self._theory.seeds(system)
        )
        pending: Optional[PendingSeeds] = None
        # Seeds on demand (module docstring); a strategy named by the caller is
        # a fresh built-in frontier.
        if (
            self._theory.seeds_cover_keys
            and isinstance(self._strategy_spec, str)
            and not system.initial_states & system.accepting_states
        ):
            pending = frontier.pending_seeds(seeds)
            seeded_states = system.initial_states
        else:
            seeded_states = frozenset()
            for _, (state, seed) in seeds:
                if deadline is not None and time.monotonic() > deadline:
                    raise SearchTimeout(stats)
                taken = self._take_seed(state, seed, visited, stats)
                if taken is None:
                    continue
                node, key = taken
                if system.is_accepting(state):
                    goal = node
                    break
                frontier.push(node, abstraction_key_score(key) if needs_scores else 0)
                stats.max_frontier_size = max(stats.max_frontier_size, len(frontier))

        while goal is None:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout(stats)
            stats.max_frontier_size = max(stats.max_frontier_size, len(frontier))
            if pending is not None and pending.due():
                taken = self._take_seed(*pending.take(), visited, stats)
                if taken is None:
                    continue
                node = taken[0]
            elif len(frontier):
                node = frontier.pop()
            else:
                break
            stats.configurations_explored += 1
            if trace is not None:
                explored = stats.configurations_explored
                # Power-of-two milestones: O(log n) instants however long
                # the search runs, each carrying the live frontier size.
                if explored & (explored - 1) == 0:
                    trace.instant(
                        "frontier_milestone",
                        "search",
                        explored=explored,
                        frontier=len(frontier),
                        depth=node.depth,
                    )
            if stats.configurations_explored > self._max_configurations:
                stats.elapsed_seconds = time.perf_counter() - start_time
                self._snapshot_plan_statistics(plan_set, stats)
                return EmptinessResult(nonempty=False, exhausted=False, statistics=stats)
            for transition in system.transitions_from(node.state):
                if trace is not None:
                    drive_start = trace.now()
                    candidates_before = stats.candidates_generated
                    enqueued_before = stats.configurations_enqueued
                goal = self._drive_plan(
                    system,
                    node,
                    transition,
                    plan_set,
                    frontier,
                    needs_scores,
                    visited,
                    seeded_states,
                    stats,
                    deadline,
                )
                if trace is not None:
                    trace.add_span(
                        "drive",
                        "plan",
                        drive_start,
                        trace.now(),
                        {
                            "state": node.state,
                            "transition": str(transition),
                            "candidates": stats.candidates_generated - candidates_before,
                            "enqueued": stats.configurations_enqueued - enqueued_before,
                        },
                    )
                if goal is not None:
                    break

        stats.elapsed_seconds = time.perf_counter() - start_time
        self._snapshot_plan_statistics(plan_set, stats)
        if goal is None:
            return EmptinessResult(nonempty=False, exhausted=True, statistics=stats)

        if trace is None:
            run, evidence = self._reconstruct_run(system, goal)
            if self._verify_witnesses:
                system.validate_run(run)
        else:
            with trace.span("reconstruct_run", "witness") as span_args:
                run, evidence = self._reconstruct_run(system, goal)
                span_args["steps"] = len(run.steps)
            if self._verify_witnesses:
                with trace.span("validate_run", "witness"):
                    system.validate_run(run)
        return EmptinessResult(
            nonempty=True,
            run=run,
            exhausted=True,
            statistics=stats,
            evidence=evidence,
        )

    # -- inner candidate loops ---------------------------------------------------

    def _drive_plan(
        self,
        system: DatabaseDrivenSystem,
        node: _SearchNode,
        transition: Transition,
        plan_set: PlanSet,
        frontier,
        needs_scores: bool,
        visited: Dict[Tuple[str, Hashable], int],
        seeded_states: FrozenSet[str],
        stats: SearchStatistics,
        deadline: Optional[float],
    ) -> Optional[_SearchNode]:
        """Drive one transition's compiled plan over the theory's deltas.

        Guards are checked against each candidate's delta before the
        successor database exists, and only undecided (UNKNOWN) guards build
        the candidate for the authoritative evaluation on the full database;
        every other candidate is built only once its key is new (see
        :meth:`_admit_candidate`).  ``deadline`` is checked every 64th candidate.
        """
        theory = self._theory
        plan = plan_set.plan_for(transition)
        plan_stats = plan.stats
        for delta in theory.enumerate_deltas(system, node.config, transition, plan):
            stats.candidates_generated += 1
            plan_stats.deltas_enumerated += 1
            if (
                deadline is not None
                and not stats.candidates_generated & 63
                and time.monotonic() > deadline
            ):
                raise SearchTimeout(stats)
            status = delta.guard_status
            if status is False:
                plan_stats.rejected_pre_materialization += 1
                continue
            candidate: Optional[TheoryConfiguration] = None
            database: Optional[Structure] = None
            if status is True:
                plan_stats.compiled_guard_hits += 1
            else:
                plan_stats.fallback_evaluations += 1
                candidate = theory.apply_delta(node.config, delta)
                database = theory.database(candidate)
                stats.guard_evaluations += 1
                if not guard_holds(
                    database,
                    system.registers,
                    transition.guard,
                    node.config.valuation,
                    candidate.valuation,
                ):
                    stats.guard_rejections += 1
                    continue
            goal = self._admit_candidate(
                system,
                node,
                transition,
                delta,
                candidate,
                database,
                frontier,
                needs_scores,
                visited,
                seeded_states,
                stats,
            )
            if goal is not None:
                return goal
        return None

    def _admit_candidate(
        self,
        system: DatabaseDrivenSystem,
        node: _SearchNode,
        transition: Transition,
        delta: CandidateDelta,
        candidate: Optional[TheoryConfiguration],
        database: Optional[Structure],
        frontier,
        needs_scores: bool,
        visited: Dict[Tuple[str, Hashable], int],
        seeded_states: FrozenSet[str],
        stats: SearchStatistics,
    ) -> Optional[_SearchNode]:
        """Post-guard tail: landing rule, key, dedup, build, enqueue, push.

        The candidate comes built (``candidate``, when its guard was
        evaluated on the full database) or as a ``delta`` of ``node``'s
        configuration, which the theory keys before anything is built
        (:meth:`~repro.fraisse.base.DatabaseTheory.delta_key`); it is built
        only when its key is new.  Returns the goal node when
        ``transition`` reaches an accepting state, None otherwise.
        ``database`` is the already-materialized successor database if the
        caller built one for guard evaluation; otherwise the witness size
        comes from the theory's cheap accessor.  A candidate in one of
        ``seeded_states`` (the initial states of a search that builds its
        seeds on demand) has a seed's key, so it is a duplicate without
        being keyed.
        """
        if transition.target in seeded_states:
            stats.duplicate_keys_pruned += 1
            return None
        stats.key_cache_misses += 1
        if candidate is None:
            key, candidate = self._theory.delta_key(node.config, delta)
        else:
            key = self._theory.abstraction_key(candidate)
        key = (transition.target, key)
        if key in visited:
            stats.duplicate_keys_pruned += 1
            return None
        if candidate is None:
            candidate = self._theory.apply_delta(node.config, delta)
        visited[key] = len(visited)
        stats.configurations_enqueued += 1
        stats.largest_witness_size = max(
            stats.largest_witness_size,
            database.size if database is not None else self._theory.witness_size(candidate),
        )
        successor = _SearchNode(
            transition.target,
            candidate,
            parent=node,
            transition=transition,
            depth=node.depth + 1,
        )
        if system.is_accepting(transition.target):
            frontier.clear()
            return successor
        frontier.push(successor, abstraction_key_score(key) if needs_scores else 0)
        stats.max_frontier_size = max(stats.max_frontier_size, len(frontier))
        return None

    def _take_seed(
        self,
        state: str,
        seed: Seed,
        visited: Dict[Tuple[str, Hashable], int],
        stats: SearchStatistics,
    ) -> Optional[Tuple[_SearchNode, Tuple[str, Hashable]]]:
        """Build and key one seed; None if its key was already visited."""
        config = seed.build()
        stats.candidates_generated += 1
        stats.key_cache_misses += 1
        key = (state, self._theory.abstraction_key(config))
        if key in visited:
            stats.duplicate_keys_pruned += 1
            return None
        visited[key] = len(visited)
        stats.configurations_enqueued += 1
        return _SearchNode(state, config, parent=None, transition=None, depth=0), key

    @staticmethod
    def _snapshot_plan_statistics(plan_set: PlanSet, stats: SearchStatistics) -> None:
        for plan in plan_set:
            plan_stats = plan.stats
            stats.plan_rejected_pre_materialization += plan_stats.rejected_pre_materialization
            stats.plan_compiled_guard_hits += plan_stats.compiled_guard_hits
            stats.plan_fallback_evaluations += plan_stats.fallback_evaluations
            stats.plan_enumeration_pruned += plan_stats.enumeration_pruned
        stats.plan_details = plan_set.statistics()

    # -- witness reconstruction -------------------------------------------------

    def _reconstruct_run(
        self, system: DatabaseDrivenSystem, goal: _SearchNode
    ) -> Tuple[Run, Dict[str, Any]]:
        """Rebuild a concrete run (plus certify evidence) from the search chain.

        Because every theory extends its witness monotonically (each step's
        witness embeds into the next by construction), the valuations recorded
        along the path remain valid in the final witness and the guards keep
        holding -- this is the concrete counterpart of the paper's
        amalgamation-based soundness proof (Appendix C).
        """
        chain: List[_SearchNode] = []
        node: Optional[_SearchNode] = goal
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        final_database, mapping, evidence = self._theory.certify(chain[-1].config)
        steps = [
            (
                n.state,
                {
                    register: mapping.get(value, value)
                    for register, value in n.config.valuation.items()
                },
            )
            for n in chain
        ]
        transitions_taken = [n.transition for n in chain[1:] if n.transition is not None]
        run = Run(database=final_database, steps=steps, transitions_taken=transitions_taken)
        return run, evidence


def decide_emptiness(
    system: DatabaseDrivenSystem,
    theory: DatabaseTheory,
    max_configurations: int = 200_000,
    strategy: StrategySpec = "bfs",
) -> EmptinessResult:
    """One-shot convenience wrapper around :class:`EmptinessSolver`."""
    return EmptinessSolver(
        theory, max_configurations=max_configurations, strategy=strategy
    ).check(system)
