"""The database-theory interface behind the generic emptiness engine.

Theorem 5 of the paper gives one algorithm for every Fraïssé class: walk over
*small configurations* (structures generated by the register contents)
connected by *sub-transitions* (joint embeddings into a larger member of the
class on which a guard holds).  This module defines the interface a class of
databases must implement to plug into that algorithm
(:class:`DatabaseTheory`), the value objects exchanged with the engine
(:class:`TheoryConfiguration`), and the canonical abstraction key shared by
all theories.

Concrete theories:

* :class:`repro.relational.AllDatabasesTheory` -- all finite databases over a
  relational schema,
* :class:`repro.relational.HomTheory` -- HOM(H) via the semi-Fraïssé lift of
  Lemma 7,
* :class:`repro.words.WordRunTheory` -- Worddb(L) for a regular language
  (Theorem 10),
* :class:`repro.trees.TreeRunTheory` -- Treedb(L) for a regular tree language
  (Theorem 3),
* :func:`repro.datavalues.with_data_values` -- the data-value products of
  Proposition 1.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterator, Mapping, Optional, Tuple

from repro.errors import StructureError
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure, sorted_key_list
from repro.logic.threevalued import UNKNOWN
from repro.perf import BoundedCache, add_counts
from repro.systems.dds import DatabaseDrivenSystem, Transition


@dataclass(frozen=True)
class TheoryConfiguration:
    """A theory-level configuration: an opaque witness plus a register valuation.

    ``witness`` is whatever concrete representation the theory uses for its
    cumulative database under construction (a :class:`Structure`, a
    state-annotated word, a tree skeleton, ...).  ``valuation`` maps every
    register of the system to an element of that witness.
    ``fresh_elements`` lists the elements introduced by the step that created
    this configuration (used by wrapping theories such as the data-value
    product to decorate exactly the new elements).
    """

    witness: Any
    valuation_items: Tuple[Tuple[str, Element], ...]
    fresh_elements: Tuple[Element, ...] = ()

    @classmethod
    def make(
        cls,
        witness: Any,
        valuation: Mapping[str, Element],
        fresh_elements: Tuple[Element, ...] = (),
    ) -> "TheoryConfiguration":
        return cls(witness, tuple(sorted(valuation.items())), tuple(fresh_elements))

    @property
    def valuation(self) -> Dict[str, Element]:
        return dict(self.valuation_items)


class CandidateDelta:
    """An unmaterialized successor candidate: just the step's delta.

    The incremental candidate protocol
    (:meth:`DatabaseTheory.enumerate_deltas` /
    :meth:`DatabaseTheory.delta_key` / :meth:`DatabaseTheory.apply_delta`)
    lets the engine check a transition's compiled guard against this object
    -- the new valuation, the fresh elements and the new tuples -- and key
    the candidate *before* paying for the successor database.  ``guard_status``
    is the theory's verdict from the compiled plan guard: ``True`` (holds,
    the engine skips the authoritative evaluation), ``False`` (cannot hold,
    the engine rejects without materializing) or
    :data:`~repro.logic.threevalued.UNKNOWN` (the engine materializes the
    candidate and evaluates the raw guard on its database).  ``payload`` carries
    theory-private data :meth:`~DatabaseTheory.apply_delta` needs to build
    the configuration (the default fallback stores the already-materialized
    configuration there).
    """

    __slots__ = (
        "valuation_items",
        "fresh_elements",
        "new_tuples",
        "guard_status",
        "payload",
    )

    def __init__(
        self,
        valuation_items: Tuple[Tuple[str, Element], ...],
        fresh_elements: Tuple[Element, ...] = (),
        new_tuples: Tuple[Tuple[str, Tuple[Element, ...]], ...] = (),
        guard_status: Any = UNKNOWN,
        payload: Any = None,
    ) -> None:
        self.valuation_items = valuation_items
        self.fresh_elements = fresh_elements
        self.new_tuples = new_tuples
        self.guard_status = guard_status
        self.payload = payload

    @property
    def valuation(self) -> Dict[str, Element]:
        return dict(self.valuation_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateDelta(valuation={dict(self.valuation_items)!r}, "
            f"fresh={self.fresh_elements!r}, tuples={len(self.new_tuples)}, "
            f"guard={self.guard_status!r})"
        )


class Seed:
    """An initial configuration, described but not yet built.

    ``build()`` makes the configuration.  ``score``, when not None, is the
    best-first score :func:`~repro.fraisse.search.abstraction_key_score` of
    ``(state, abstraction_key(build()))`` for any control state, predicted
    from the description alone, so a search can order seeds without building
    them.
    """

    __slots__ = ("build", "score")

    def __init__(
        self, build: Callable[[], TheoryConfiguration], score: Optional[int] = None
    ) -> None:
        self.build = build
        self.score = score


class DatabaseTheory(ABC):
    """A class of databases (typically a semi-Fraïssé class) usable by the engine.

    The contract mirrors the ingredients of Theorem 5:

    * *closure under embeddings* and *amalgamation* are what make the
      abstraction key sound; implementations are expected (and property-tested)
      to satisfy them;
    * :meth:`successor_configurations` enumerates, up to abstraction
      equivalence, every way of extending the current witness so that the new
      register values can satisfy the given transition's guard (the caller
      performs the actual guard evaluation); it is the reference the engine's
      delta stream (:meth:`enumerate_deltas`) is checked against;
    * :meth:`abstraction_key` canonically identifies the register-generated
      substructure -- the paper's *small configuration*.
    """

    # -- schema ---------------------------------------------------------------

    @property
    @abstractmethod
    def schema(self) -> Schema:
        """The schema guards of a system over this theory may use."""

    # -- search primitives ----------------------------------------------------

    #: Whether the seeds' keys are exactly the keys a configuration can have:
    #: every configuration the successor enumeration reaches has the key of
    #: exactly one seed, and every seed predicts its ``score``.  True for the
    #: relational classes (:class:`~repro.relational.AllDatabasesTheory`,
    #: :class:`~repro.relational.HomTheory`): they are closed under
    #: substructures and their seeds are every register-generated structure of
    #: the class, once each.  The engine then builds seeds only when its
    #: search reaches them and prunes a candidate in an initial state without
    #: keying it (see :mod:`repro.fraisse.engine`).
    seeds_cover_keys: bool = False

    @abstractmethod
    def initial_configurations(self, system: DatabaseDrivenSystem) -> Iterator[TheoryConfiguration]:
        """Seed configurations: every small configuration, up to abstraction.

        The engine relies on the order: an eager search pushes the seeds in
        exactly this order, and a search that builds seeds on demand takes
        them in the order the eager frontier would pop them.  The seeds of
        :class:`~repro.relational.AllDatabasesTheory` and
        :class:`~repro.relational.HomTheory` cover their keys
        (:attr:`seeds_cover_keys`); those of the word, tree and data-value
        theories do not (a word key can take in function-generated positions
        no seed has), so the engine builds all of their seeds before
        exploring.
        """

    def seeds(self, system: DatabaseDrivenSystem) -> Iterator[Seed]:
        """:meth:`initial_configurations` as a stream of :class:`Seed`\\ s.

        The default wraps each configuration, already built, without a
        predicted score.  Theories whose seeds cover their keys override it
        to describe each seed without building it; their
        :meth:`initial_configurations` then builds these seeds, so the two
        share one enumeration.
        """
        for config in self.initial_configurations(system):
            yield Seed(lambda config=config: config)

    @abstractmethod
    def successor_configurations(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
    ) -> Iterator[TheoryConfiguration]:
        """Candidate successor configurations for one transition rule.

        Implementations must be *complete up to abstraction*: if the paper's
        nondeterministic algorithm admits a sub-transition from the
        abstraction of ``config`` to some small configuration ``B``, then some
        yielded candidate has abstraction ``B`` and satisfies the guard.
        Implementations need not evaluate the guard (the caller does), but may
        use it to prune.

        This is the theory's *reference enumeration*: it builds every
        candidate and shares no code with compiled plans.  The engine drives
        :meth:`enumerate_deltas` instead, and the tests check that applying
        its deltas gives exactly this stream, in this order.  Theories
        without a delta stream of their own are driven through this method
        by the default :meth:`enumerate_deltas`.
        """

    @abstractmethod
    def database(self, config: TheoryConfiguration) -> Structure:
        """The concrete database (over at least :attr:`schema`) of a configuration."""

    # -- incremental candidate protocol (compiled transition plans) -------------

    def plan_guard_schema(self) -> Optional[Schema]:
        """The schema plan guards may be compiled against, or None to opt out.

        Theories returning a schema promise that the fact oracle of the
        contexts they hand to compiled plan guards is *exact* for relation
        symbols of that schema (and conservatively :data:`UNKNOWN`
        otherwise).  The default opts out: the engine then materializes and
        evaluates raw guards exactly as before.
        """
        return None

    def plan_function_symbols(self) -> FrozenSet[str]:
        """Function symbols the theory's delta contexts can resolve."""
        return frozenset()

    def enumerate_deltas(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
        plan=None,
    ) -> Iterator[CandidateDelta]:
        """Candidate successors of one transition, as unmaterialized deltas.

        ``[apply_delta(config, d) for d in enumerate_deltas(...)]`` must equal
        ``list(successor_configurations(...))``.  The default wraps
        :meth:`successor_configurations`, stores the materialized
        configuration in the delta payload and leaves the guard status
        :data:`UNKNOWN` so the engine performs the authoritative evaluation
        on the full database.  Theories implementing the protocol natively
        (the relational family, trees) enumerate deltas before building
        databases and pre-decide guards via ``plan``'s compiled evaluator;
        the data-value product wraps its base's deltas.
        """
        for candidate in self.successor_configurations(system, config, transition):
            yield CandidateDelta(
                candidate.valuation_items,
                candidate.fresh_elements,
                guard_status=UNKNOWN,
                payload=candidate,
            )

    def apply_delta(
        self, config: TheoryConfiguration, delta: CandidateDelta
    ) -> TheoryConfiguration:
        """Materialize the successor configuration of a surviving delta."""
        return delta.payload

    def delta_key(
        self, config: TheoryConfiguration, delta: CandidateDelta
    ) -> Tuple[Hashable, Optional[TheoryConfiguration]]:
        """The abstraction key of ``apply_delta(config, delta)``.

        Returns the key together with the configuration when computing the
        key built it, or None when the key came from the delta alone; the
        engine then calls :meth:`apply_delta` only if the key is new.  It
        must equal ``abstraction_key(apply_delta(config, delta))``.  The
        default builds the configuration and keys it; the relational family
        reads the key off the delta (:meth:`~repro.relational.theory.RelationalTheory.delta_key`).
        """
        candidate = self.apply_delta(config, delta)
        return self.abstraction_key(candidate), candidate

    def witness_size(self, config: TheoryConfiguration) -> int:
        """Size of the configuration's witness, without forcing a database.

        Used by the engine for statistics when the compiled plan guard made
        materializing the database unnecessary.  The default renders the
        database; theories with cheap size accessors override it.
        """
        return self.database(config).size

    def _transition_plan(self, transition: Transition):
        """A per-instance plan for callers that drive this theory's deltas.

        The engine builds and drives its own :class:`~repro.fraisse.plans.PlanSet`;
        this lazy per-guard memo serves a wrapping theory that enumerates
        this one's deltas itself (the data-value product's
        :meth:`~repro.datavalues.theory.DataValuedTheory.enumerate_deltas`).
        """
        from repro.fraisse.plans import TransitionPlan, compiled_guard_for

        plans = getattr(self, "_instance_plans", None)
        if plans is None:
            plans = {}
            self._instance_plans = plans
        plan = plans.get(transition.guard)
        if plan is None:
            plan = TransitionPlan(transition, compiled_guard_for(self, transition.guard))
            plans[transition.guard] = plan
        return plan

    def memo_counts(self) -> Dict[str, Dict[str, int]]:
        """Hits, misses and evictions of this instance's memo tables, by table name.

        Covers every :class:`~repro.perf.BoundedCache` the instance holds,
        the compiled guards :func:`~repro.fraisse.plans.compiled_guard_for`
        hangs on it included, and those of a theory it wraps; tables of one
        name add up.  The counts cover every search on the instance so far.
        """
        totals: Dict[str, Dict[str, int]] = {}
        for value in vars(self).values():
            if isinstance(value, BoundedCache):
                add_counts(totals, {value.name: value.counts()})
            elif isinstance(value, DatabaseTheory):
                add_counts(totals, value.memo_counts())
        return totals

    # -- abstraction ----------------------------------------------------------

    def abstraction_key(self, config: TheoryConfiguration) -> Hashable:
        """Canonical form of the register-generated substructure.

        The default implementation works for any theory whose witness can be
        rendered as a :class:`Structure` by :meth:`database`; theories with
        richer invisible state (e.g. automaton states on word positions)
        override it to fold that state in.
        """
        return generic_abstraction_key(self.database(config), config.valuation)

    def certify(
        self, config: TheoryConfiguration
    ) -> Tuple[Structure, Dict[Element, Element], Dict[str, Any]]:
        """Turn the final witness into a class member plus *accepting evidence*.

        Returns ``(database, mapping, evidence)``: the concrete member of the
        class, the element mapping from fragment elements to final elements
        (the engine remaps the reconstructed run through it), and a JSON-safe
        evidence payload that lets an engine-independent validator
        (:mod:`repro.certify`) re-check class membership without rerunning the
        search.  For relational theories the cumulative witness already *is*
        the member and membership is checkable from the database alone, so the
        default returns it unchanged with an identity mapping and empty
        evidence.  Theories whose witnesses are fragments (word and tree run
        fragments) or that carry invisible state (data values) override this
        to expand the fragment and report the evidence (the accepted word, the
        accepting tree run, the element-to-value assignment).
        """
        database = self.database(config)
        return database, {element: element for element in database.domain}, {}

    def finalize(self, config: TheoryConfiguration) -> Tuple[Structure, Dict[Element, Element]]:
        """Turn the final witness into an actual member of the class.

        Thin wrapper over :meth:`certify` that drops the evidence payload;
        kept for callers that only need the database and element mapping.
        """
        database, mapping, _ = self.certify(config)
        return database, mapping

    # -- metadata for the analysis / benchmark layer ---------------------------

    def blowup(self, n: int) -> int:
        """The blowup function of the class (Section 4.1); default: identity."""
        return n

    def membership(self, database: Structure) -> bool:
        """Whether a finite database belongs to the class (used by tests)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a standalone membership test"
        )

    def describe(self) -> str:
        return type(self).__name__

    # -- serialization ---------------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """A JSON-safe description of the theory, tagged with a ``"kind"`` key.

        Every shipped theory implements this together with a ``from_spec``
        classmethod; :mod:`repro.service.specs` dispatches on the kind tag to
        rebuild theories in worker processes.  Theories without a spec cannot
        be submitted to the batch verification service.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support spec serialization")


# -- generic canonical abstraction key ----------------------------------------


def generic_abstraction_key(database: Structure, valuation: Mapping[str, Element]) -> Hashable:
    """Canonically describe the substructure generated by the register values.

    Every element of the generated substructure is reachable from a register
    value by applying function symbols, hence is denoted by a term over the
    registers; we name each element by the smallest such term (ordered first
    by term depth, then lexicographically).  The key then lists, in terms of
    these canonical names, the register assignment, all relation tuples and
    all function values of the generated substructure.  Two configurations
    get the same key exactly when their register-generated substructures are
    isomorphic via a register-preserving isomorphism -- the identification
    used by the algorithm of Theorem 5.
    """
    generated = database.closure(valuation.values())
    names: Dict[Element, Tuple[int, str]] = {}

    # Registers provide the depth-0 names.
    by_element: Dict[Element, list] = {}
    for register, value in sorted(valuation.items()):
        by_element.setdefault(value, []).append(register)
    for value, registers in by_element.items():
        names[value] = (0, "|".join(sorted(registers)))

    # Close under function applications, always keeping the smallest name.
    # Purely relational schemas skip the fixpoint: every generated element is
    # a register value and already named.
    changed = bool(database.schema.function_names)
    while changed:
        changed = False
        named_now = [e for e in generated if e in names]
        named_now.sort(key=lambda e: names[e])
        for symbol in database.schema.function_names:
            arity = database.schema.function(symbol).arity
            for args in itertools.product(named_now, repeat=arity):
                value = database.apply(symbol, *args)
                if value not in generated:
                    continue
                depth = 1 + max((names[a][0] for a in args), default=0)
                label = f"{symbol}({','.join(names[a][1] for a in args)})"
                candidate = (depth, label)
                if value not in names or candidate < names[value]:
                    if names.get(value) != candidate:
                        names[value] = candidate
                        changed = True

    def name_of(element: Element) -> str:
        return names[element][1]

    register_part = tuple(
        (register, name_of(value)) for register, value in sorted(valuation.items())
    )
    relation_part = []
    for symbol in database.schema.relation_names:
        for t in database.relation(symbol):
            if all(e in generated for e in t):
                relation_part.append((symbol,) + tuple(name_of(e) for e in t))
    function_part = []
    if database.schema.function_names:
        generated_list = sorted_key_list(generated)
        for symbol in database.schema.function_names:
            arity = database.schema.function(symbol).arity
            for args in itertools.product(generated_list, repeat=arity):
                try:
                    value = database.apply(symbol, *args)
                except StructureError:
                    continue
                if value in generated:
                    function_part.append(
                        (symbol,) + tuple(name_of(e) for e in args) + (name_of(value),),
                    )
    return (
        register_part,
        frozenset(relation_part),
        frozenset(function_part),
    )


def combined_guard_valuation(
    registers: Tuple[str, ...],
    valuation_old: Mapping[str, Element],
    valuation_new: Mapping[str, Element],
) -> Dict[str, Element]:
    """Merge old/new register valuations into a guard valuation."""
    from repro.systems.dds import new, old

    combined: Dict[str, Element] = {}
    for register in registers:
        combined[old(register)] = valuation_old[register]
        combined[new(register)] = valuation_new[register]
    return combined


def guard_holds(
    database: Structure,
    registers: Tuple[str, ...],
    guard,
    valuation_old: Mapping[str, Element],
    valuation_new: Mapping[str, Element],
) -> bool:
    """Evaluate a guard over a concrete database with old/new valuations."""
    return guard.evaluate(
        database, combined_guard_valuation(registers, valuation_old, valuation_new)
    )


def set_partitions(items: list) -> Iterator[list]:
    """Enumerate the partitions of ``items`` into non-empty blocks.

    Used by theories to enumerate identification patterns of register values
    (which registers share an element).  The order of blocks follows the
    first occurrence of their least member, making the enumeration
    deterministic.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        # first joins an existing block
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1:]
        # first forms its own block
        yield [[first]] + partition
