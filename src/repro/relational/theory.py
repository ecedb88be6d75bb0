"""Shared machinery for relational database theories.

Both :class:`~repro.relational.all_databases.AllDatabasesTheory` and
:class:`~repro.relational.hom.HomTheory` plug into the generic engine the
same way: witnesses are plain :class:`~repro.logic.structures.Structure`
objects that only ever grow by *embeddings* (fresh elements plus tuples
touching at least one fresh element), so every run prefix found by the engine
keeps holding as the witness grows -- quantifier-free guards are invariant
under embeddings (the observation behind Lemma 6).

The successor enumeration implements the sub-transition guess of Theorem 5 in
a factored form:

* which new register shares an element with which (identification pattern),
* which new registers point at existing elements of the *old* register-
  generated part and which at fresh elements,
* the full relational structure among the new register values that involves a
  fresh element (these tuples may matter to later guards, so all subsets are
  enumerated),
* tuples linking fresh elements to old-only elements are only enumerated when
  the current guard mentions them (they can never matter later because later
  configurations only see elements through registers).

The factoring is complete for classes that are closed under removing tuples
that involve a discarded element -- true for all finite databases and for
HOM classes -- and keeps the per-step work bounded by a function of the
number of registers only, exactly as Theorem 5 requires.

Reference and delta stream
--------------------------
:meth:`RelationalTheory.successor_configurations` is the reference
enumeration: it builds a structure per candidate, and per choice of
guard-relevant tuples a small structure on which it walks the guard.  The
engine drives the *incremental candidate* protocol instead, which the
relational family implements natively (:meth:`RelationalTheory.enumerate_deltas`):
transition guards are compiled once per ``(theory, transition)`` pair into
selectivity-ordered closures (:mod:`repro.fraisse.plans`) and evaluated
against candidate *deltas* -- the register-valuation change plus the new
tuples -- before any successor :class:`Structure` exists.  The evaluation
happens at three stages of the factored enumeration:

* **assignment stage** -- with the new register targets fixed but no tuples
  chosen yet, tuples touching a fresh element are still *choosable* and
  evaluate to UNKNOWN; if the guard is already ``False`` (a violated
  equality, a missing tuple among existing elements), the entire
  decoration-and-subset enumeration under this assignment is skipped --
  exactly the branches whose every candidate the reference pre-filter
  rejects;
* **subset stage** -- with a decoration and the guard-relevant tuples
  chosen, every compilable atom is decided by set lookups, and the
  guard-irrelevant subset enumeration below runs only for surviving
  choices;
* **register-shuffle candidates** (no fresh elements) are emitted with
  their guard pre-decided, so the engine rejects them without
  materializing or canonicalizing anything.

Two further steps keep the enumeration from generating work it would
discard:

* **forced literals** -- a top-level conjunct of a decisive guard that is a
  register atom, or its negation, and names a tuple touching a fresh element
  fixes whether that tuple is in every satisfying candidate; the subset
  enumeration puts it in (or leaves it out) instead of testing every subset
  (:meth:`RelationalTheory._relevant_subsets`);
* **keys from the delta** -- every element of the register-generated
  substructure is a register value, so a candidate's abstraction key is a
  function of its new valuation, the facts of the parent witness among the
  old register values and the new tuples (:meth:`RelationalTheory.delta_key`);
  the engine builds the successor witness only for a key it has not seen.

Guards that cannot be compiled (symbols outside the witness schema such as
data-value relations, non-variable terms, quantifiers) evaluate to UNKNOWN
and are kept conservatively; the engine's authoritative evaluation on the
full database is unchanged either way.  Applying the deltas gives exactly the
reference stream, in the same order; the tests check this candidate for
candidate.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import FormulaError
from repro.fraisse.base import (
    CandidateDelta,
    DatabaseTheory,
    Seed,
    TheoryConfiguration,
    combined_guard_valuation,
    set_partitions,
)
from repro.fraisse.plans import AtomTemplate, DeltaContext, LiteralTemplate, TemplateSlot
from repro.logic.formulas import Formula, RelationAtom
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure, sorted_key_list
from repro.logic.terms import Term, Var
from repro.logic.threevalued import UNKNOWN
from repro.systems.dds import DatabaseDrivenSystem, Transition, new, old

Decoration = Tuple[Tuple[str, Tuple[Element, ...]], ...]
"""A decoration is a tuple of relation facts attached to a fresh element
(for example its colour predicate in a HOM theory)."""

Fact = Tuple[str, Tuple[Element, ...]]
"""One relation tuple: the relation name and its elements."""


class RelationalTheory(DatabaseTheory):
    """Base class of theories whose members are relational structures."""

    def __init__(self, schema: Schema) -> None:
        if not schema.is_relational:
            raise ValueError("relational theories require purely relational schemas")
        self._schema = schema
        # The facts among the register values of the last configuration
        # delta_key saw: the engine keys every candidate of one node in a row.
        self._parent_facts: Optional[Tuple[TheoryConfiguration, Tuple[Fact, ...]]] = None

    # -- DatabaseTheory interface ----------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def database(self, config: TheoryConfiguration) -> Structure:
        return config.witness

    def witness_size(self, config: TheoryConfiguration) -> int:
        return config.witness.size

    def plan_guard_schema(self) -> Schema:
        return self.witness_schema()

    def blowup(self, n: int) -> int:
        # No function symbols: an n-generated database has exactly n elements.
        return n

    # -- hooks overridden by subclasses -----------------------------------------

    def witness_schema(self) -> Schema:
        """The schema of witness structures (may extend :attr:`schema`)."""
        return self._schema

    def free_relation_names(self) -> Tuple[str, ...]:
        """Relations whose tuples are enumerated freely (default: all of them)."""
        return self.witness_schema().relation_names

    def element_decorations(self) -> Sequence[Decoration]:
        """Possible decorations of a fresh element (default: none)."""
        return ((),)

    def tuple_allowed(
        self,
        witness_relations: Dict[str, Set[Tuple[Element, ...]]],
        relation: str,
        elements: Tuple[Element, ...],
    ) -> bool:
        """Whether a candidate tuple may be added (given current unary facts)."""
        return True

    def tuple_filter(
        self, witness_relations: Dict[str, Set[Tuple[Element, ...]]]
    ) -> Callable[[str, Tuple[Element, ...]], bool]:
        """A tuple-admissibility predicate specialised to fixed unary facts.

        ``witness_relations`` is constant across one subset enumeration, so
        subclasses may precompute lookups once (e.g. :class:`HomTheory`
        extracts the element colouring) instead of re-deriving them per
        candidate tuple.  The default simply closes over
        :meth:`tuple_allowed`.
        """
        return lambda relation, elements: self.tuple_allowed(witness_relations, relation, elements)

    def membership(self, database: Structure) -> bool:
        """Membership of an arbitrary finite database in the (projected) class."""
        return True

    # -- seeds -------------------------------------------------------------------

    def initial_configurations(self, system: DatabaseDrivenSystem) -> Iterator[TheoryConfiguration]:
        for seed in self.seeds(system):
            yield seed.build()

    def seeds(self, system: DatabaseDrivenSystem) -> Iterator[Seed]:
        """Every register-generated structure, described by its facts.

        The walk runs over register partitions x element decorations x tuple
        subsets and builds nothing.  Every element of a seed is a register
        value, so the generic key lists each fact once, and its score is
        ``6 + 3 * |registers| + sum(arity + 2)`` over the facts, decorations
        included (see :func:`~repro.fraisse.search.abstraction_key_score`).
        """
        registers = list(system.registers)
        schema = self.witness_schema()
        weight = {name: schema.relation(name).arity + 2 for name in schema.relation_names}
        register_score = 6 + 3 * len(registers)
        for partition in set_partitions(registers):
            elements = list(range(len(partition)))
            valuation = {}
            for element, block in zip(elements, partition):
                for register in block:
                    valuation[register] = element
            decoration_choices = itertools.product(self.element_decorations(), repeat=len(elements))
            for decorations in decoration_choices:
                decoration_facts: Dict[str, Set[Tuple[Element, ...]]] = {
                    name: set() for name in schema.relation_names
                }
                for element, decoration in zip(elements, decorations):
                    for relation, args in decoration:
                        decoration_facts[relation].add(
                            tuple(element if a is FRESH_SELF else a for a in args)
                        )
                base_score = register_score
                for relation, facts in decoration_facts.items():
                    base_score += weight[relation] * len(facts)
                candidate_tuples = self._all_tuples(elements, elements)
                allowed = self.tuple_filter(decoration_facts)
                build = partial(self._build_seed, schema, elements, valuation, decoration_facts)
                for chosen in self._tuple_subsets(candidate_tuples, allowed):
                    score = base_score
                    for relation, t in chosen:
                        if t not in decoration_facts[relation]:
                            score += weight[relation]
                    yield Seed(partial(build, chosen), score)

    def _build_seed(
        self,
        schema: Schema,
        elements: List[Element],
        valuation: Dict[str, Element],
        decoration_facts: Dict[str, Set[Tuple[Element, ...]]],
        chosen: Tuple[Tuple[str, Tuple[Element, ...]], ...],
    ) -> TheoryConfiguration:
        relations = {name: set(facts) for name, facts in decoration_facts.items()}
        for relation, t in chosen:
            relations[relation].add(t)
        witness = Structure(schema, elements, relations=relations, validate=False)
        return TheoryConfiguration.make(witness, valuation, fresh_elements=tuple(elements))

    # -- successors ----------------------------------------------------------------

    def successor_configurations(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
    ) -> Iterator[TheoryConfiguration]:
        registers = list(system.registers)
        witness: Structure = config.witness
        valuation_old = config.valuation
        old_values = sorted_key_list(set(valuation_old.values()))
        next_id = self._next_element_id(witness)

        for assignment, fresh_count in _register_targets(registers, old_values):
            fresh_elements = [next_id + i for i in range(fresh_count)]
            valuation_new: Dict[str, Element] = {}
            for register, target in assignment.items():
                if isinstance(target, _FreshSlot):
                    valuation_new[register] = fresh_elements[target.index]
                else:
                    valuation_new[register] = target
            if not fresh_elements:
                # No new elements: the witness is unchanged, only registers move.
                yield TheoryConfiguration.make(witness, valuation_new, ())
                continue
            yield from self._extended_witnesses(
                witness,
                transition.guard,
                registers,
                valuation_old,
                valuation_new,
                fresh_elements,
            )

    # -- incremental candidate protocol -----------------------------------------

    def enumerate_deltas(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
        plan=None,
    ) -> Iterator[CandidateDelta]:
        """Enumerate successor deltas with staged compiled-guard pruning.

        Applying the deltas gives the reference stream of
        :meth:`successor_configurations`, in the same order: register
        shuffles carry a pre-decided guard status, witness extensions are
        pruned at the assignment stage (before decorations and tuple subsets
        are even enumerated) whenever no choice of new tuples can satisfy the
        guard, and at the subset stage exactly where the reference
        structure-based pre-filter prunes.
        """
        if plan is None or plan.compiled is None:
            yield from super().enumerate_deltas(system, config, transition, plan)
            return
        registers = list(system.registers)
        witness: Structure = config.witness
        valuation_old = config.valuation
        old_values = sorted_key_list(set(valuation_old.values()))
        next_id = self._next_element_id(witness)
        schema = self.witness_schema()
        compiled = plan.compiled
        evaluator = compiled.evaluator
        stats = plan.stats
        free_names = set(self.free_relation_names())
        # A literal fixes its tuple only if no decoration can add that tuple.
        forcible_names = free_names - {
            relation for decoration in self.element_decorations() for relation, _ in decoration
        }
        relation_of = {name: witness.relation(name) for name in schema.relation_names}

        # One closure set per call; the mutable cells below are updated in
        # place per assignment / per candidate.
        fresh_membership: Set[Element] = set()
        added_facts: Set[Tuple[str, Tuple[Element, ...]]] = set()

        def fact_fixed(symbol: str, elements: Tuple[Element, ...]):
            rel = relation_of.get(symbol)
            if rel is None:
                return UNKNOWN
            return elements in rel

        def fact_optimistic(symbol: str, elements: Tuple[Element, ...]):
            rel = relation_of.get(symbol)
            if rel is None:
                return UNKNOWN
            for element in elements:
                if element in fresh_membership:
                    return UNKNOWN  # choosable: some subset may add it
            return elements in rel

        def fact_candidate(symbol: str, elements: Tuple[Element, ...]):
            rel = relation_of.get(symbol)
            if rel is None:
                return UNKNOWN
            if elements in rel:
                return True
            return (symbol, elements) in added_facts

        context = DeltaContext(valuation_old, None, fact_fixed)

        for assignment, fresh_count in _register_targets(registers, old_values):
            fresh_elements = [next_id + i for i in range(fresh_count)]
            valuation_new: Dict[str, Element] = {}
            for register, target in assignment.items():
                if isinstance(target, _FreshSlot):
                    valuation_new[register] = fresh_elements[target.index]
                else:
                    valuation_new[register] = target
            context.value_new = valuation_new
            if not fresh_elements:
                context.fact = fact_fixed
                status = evaluator(context)
                yield CandidateDelta(tuple(sorted(valuation_new.items())), (), (), status, None)
                continue
            fresh_membership.clear()
            fresh_membership.update(fresh_elements)
            context.fact = fact_optimistic
            if evaluator(context) is False:
                # Decided atoms are choice-independent, so a False here means
                # no decoration/subset choice can satisfy the guard -- the
                # reference pre-filter rejects every candidate of this branch.
                stats.enumeration_pruned += 1
                continue
            yield from self._extension_deltas(
                compiled,
                context,
                stats,
                schema,
                free_names,
                forcible_names,
                relation_of,
                added_facts,
                fact_candidate,
                old_values,
                valuation_old,
                valuation_new,
                fresh_elements,
            )

    def _extension_deltas(
        self,
        compiled,
        context: DeltaContext,
        stats,
        schema: Schema,
        free_names: Set[str],
        forcible_names: Set[str],
        relation_of: Dict[str, Iterable[Tuple[Element, ...]]],
        added_facts: Set[Fact],
        fact_candidate,
        old_values: List[Element],
        valuation_old: Dict[str, Element],
        valuation_new: Dict[str, Element],
        fresh_elements: List[Element],
    ) -> Iterator[CandidateDelta]:
        """Deltas extending the witness by ``fresh_elements`` (factored form).

        Yields exactly the surviving candidates of the reference
        :meth:`_extended_witnesses` enumeration, in the same order
        (decorations x guard-relevant subsets x guard-irrelevant subsets),
        but evaluates the compiled guard on the delta facts instead of
        building a small structure, and defers building the extended witness
        to :meth:`apply_delta`.  The guard-relevant subsets come from
        :meth:`_relevant_subsets`: a tuple the guard's forced literals put in
        or leave out of every satisfying candidate is fixed rather than
        chosen, so only the remaining tuples' subsets are evaluated, and a
        decoration (or the whole assignment) whose forced literals cannot all
        hold yields nothing.  The guard-relevant tuples are deduplicated in
        first-occurrence order, so a tuple two guard atoms name is one
        choice.
        """
        evaluator = compiled.evaluator
        new_values = sorted_key_list(set(valuation_new.values()))
        new_value_set = set(new_values)
        old_only_set = {e for e in old_values if e not in new_value_set}
        fresh_set = set(fresh_elements)
        forced_in, forced_out = _forced_tuples(
            compiled.literal_templates, valuation_old, valuation_new, forcible_names, fresh_set
        )
        if not forced_in.isdisjoint(forced_out):
            return  # a tuple forced both in and out: no candidate satisfies the guard
        future_tuples = self._all_tuples(new_values, fresh_elements)
        guard_tuples = _instantiate_templates(
            compiled.atom_templates, valuation_old, valuation_new, free_names
        )
        # Tuples connecting a fresh element with an old-only element: only the
        # ones the current guard mentions can matter (as in the reference).
        mixed_tuples = [
            (relation, t)
            for relation, t in guard_tuples
            if any(e in fresh_set for e in t)
            and any(e in old_only_set for e in t)
            and not all(e in new_value_set for e in t)
        ]
        guard_atom_set = set(guard_tuples)
        relevant = [ft for ft in future_tuples if ft in guard_atom_set] + mixed_tuples
        irrelevant_future = [ft for ft in future_tuples if ft not in guard_atom_set]
        valuation_items = tuple(sorted(valuation_new.items()))
        fresh_tuple = tuple(fresh_elements)
        context.fact = fact_candidate

        for decorations in itertools.product(
            self.element_decorations(), repeat=len(fresh_elements)
        ):
            decoration_pairs: List[Tuple[str, Tuple[Element, ...]]] = []
            for element, decoration in zip(fresh_elements, decorations):
                for relation, args in decoration:
                    decoration_pairs.append(
                        (relation, tuple(element if a is FRESH_SELF else a for a in args)),
                    )
            # Unary facts for the admissibility filter: witness relations by
            # reference, decorated relations merged copy-on-write.
            unary_facts = dict(relation_of)
            if decoration_pairs:
                overlay: Dict[str, Set[Tuple[Element, ...]]] = {}
                for relation, t in decoration_pairs:
                    overlay.setdefault(relation, set()).add(t)
                for relation, facts in overlay.items():
                    unary_facts[relation] = set(relation_of[relation]) | facts
            allowed = self.tuple_filter(unary_facts)
            for chosen_relevant in self._relevant_subsets(relevant, allowed, forced_in, forced_out):
                added_facts.clear()
                added_facts.update(decoration_pairs)
                added_facts.update(chosen_relevant)
                status = evaluator(context)
                if status is False:
                    stats.enumeration_pruned += 1
                    continue
                base_new = tuple(decoration_pairs) + chosen_relevant
                for chosen_irrelevant in self._tuple_subsets(irrelevant_future, allowed):
                    yield CandidateDelta(
                        valuation_items,
                        fresh_tuple,
                        base_new + chosen_irrelevant,
                        status,
                        None,
                    )

    def _relevant_subsets(
        self,
        candidates: List[Fact],
        allowed_fn: Callable[[str, Tuple[Element, ...]], bool],
        forced_in: Set[Fact],
        forced_out: Set[Fact],
    ) -> Iterator[Tuple[Fact, ...]]:
        """The subsets of the allowed ``candidates`` that keep the forced literals.

        The same subsets, in the same order, as :meth:`_tuple_subsets`
        filtered to those containing every tuple of ``forced_in`` and none
        of ``forced_out``.  Each is a subset of the remaining tuples with the
        forced-in tuples merged in by their position in the list; merging a
        fixed set keeps both the size order and, within a size, the
        lexicographic order of :func:`itertools.combinations`.  Nothing is
        yielded when a forced-in tuple is not allowed.
        """
        if not forced_in and not forced_out:
            yield from self._tuple_subsets(candidates, allowed_fn)
            return
        allowed = [(relation, t) for relation, t in candidates if allowed_fn(relation, t)]
        forced = [fact for fact in allowed if fact in forced_in]
        if len(forced) < len(forced_in):
            return
        rest = [fact for fact in allowed if fact not in forced_in and fact not in forced_out]
        position = {fact: index for index, fact in enumerate(allowed)}
        for size in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, size):
                yield tuple(sorted(forced + list(chosen), key=position.__getitem__))

    def apply_delta(
        self, config: TheoryConfiguration, delta: CandidateDelta
    ) -> TheoryConfiguration:
        payload = delta.payload
        if payload is not None:
            return payload
        witness: Structure = config.witness
        if not delta.fresh_elements:
            return TheoryConfiguration(witness, delta.valuation_items, ())
        schema = self.witness_schema()
        relations: Dict[str, Iterable[Tuple[Element, ...]]] = {
            name: witness.relation(name) for name in schema.relation_names
        }
        if delta.new_tuples:
            overlay: Dict[str, Set[Tuple[Element, ...]]] = {}
            for relation, t in delta.new_tuples:
                overlay.setdefault(relation, set()).add(t)
            for relation, facts in overlay.items():
                relations[relation] = set(relations[relation]) | facts
        extended = Structure(
            schema,
            set(witness.domain) | set(delta.fresh_elements),
            relations=relations,
            validate=False,
        )
        return TheoryConfiguration(extended, delta.valuation_items, delta.fresh_elements)

    # -- abstraction keys ---------------------------------------------------------

    def abstraction_key(self, config: TheoryConfiguration) -> Hashable:
        """The :func:`~repro.fraisse.base.generic_abstraction_key` of ``config``.

        A relational witness has no function symbols, so its
        register-generated substructure is the register values with the
        facts among them; :func:`relational_key` reads the key off those
        facts without the generic closure walk.
        """
        return relational_key(config.valuation_items, _facts(config.witness))

    def delta_key(
        self, config: TheoryConfiguration, delta: CandidateDelta
    ) -> Tuple[Hashable, Optional[TheoryConfiguration]]:
        """The key of ``apply_delta(config, delta)``, without building it.

        The new register values are old register values or fresh elements,
        so the facts among them are the parent's facts among its register
        values plus the delta's new tuples.  A delta that already carries
        its configuration (the default enumeration) is keyed as built.
        """
        if delta.payload is not None:
            return super().delta_key(config, delta)
        parent = self._parent_facts
        if parent is None or parent[0] is not config:
            values = {value for _, value in config.valuation_items}
            facts = tuple(
                (name, t) for name, t in _facts(config.witness) if all(e in values for e in t)
            )
            parent = self._parent_facts = (config, facts)
        facts = itertools.chain(parent[1], delta.new_tuples)
        return relational_key(delta.valuation_items, facts), None

    # -- internal helpers -------------------------------------------------------

    def _extended_witnesses(
        self,
        witness: Structure,
        guard: Formula,
        registers: List[str],
        valuation_old: Dict[str, Element],
        valuation_new: Dict[str, Element],
        fresh_elements: List[Element],
    ) -> Iterator[TheoryConfiguration]:
        """The reference extension enumeration: build per-candidate small
        structures for the pre-filter and full structures per yield.

        The engine's delta stream is :meth:`_extension_deltas`, which must
        yield the same candidates in the same order.
        """
        schema = self.witness_schema()
        new_values = sorted_key_list(set(valuation_new.values()))
        old_values = sorted_key_list(set(valuation_old.values()))
        old_only = [e for e in old_values if e not in set(new_values)]

        decoration_choices = itertools.product(
            self.element_decorations(), repeat=len(fresh_elements)
        )
        # Tuples entirely among the new register values that involve a fresh
        # element: enumerated exhaustively (they may matter to later guards).
        future_tuples = [
            (relation, t) for relation, t in self._all_tuples(new_values, fresh_elements)
        ]
        # Tuples connecting a fresh element with an old-only element: only the
        # ones the current guard mentions can matter.
        guard_tuples = self._guard_instantiated_tuples(
            guard, registers, valuation_old, valuation_new
        )
        mixed_tuples = [
            (relation, t)
            for relation, t in guard_tuples
            if any(e in fresh_elements for e in t)
            and any(e in old_only for e in t)
            and not all(e in new_values for e in t)
        ]

        # Guards only mention register values, so their truth value depends on
        # the tuples of the small "delta" over the old/new register values
        # only; among the freely-enumerated tuples, only the ones that
        # instantiate a guard atom can change it.  The subset enumeration is
        # therefore factored into guard-relevant tuples (guard evaluated once
        # per choice) and guard-irrelevant tuples (no re-evaluation).
        small_domain = set(old_values) | set(new_values) | set(fresh_elements)
        base_small = {
            name: {
                t
                for t in witness.relation(name)
                if all(e in small_domain for e in t)
            }
            for name in schema.relation_names
        }
        base_relations = {name: set(witness.relation(name)) for name in schema.relation_names}
        guard_atom_set = set(guard_tuples)
        relevant_future = [ft for ft in future_tuples if ft in guard_atom_set]
        irrelevant_future = [ft for ft in future_tuples if ft not in guard_atom_set]

        combined = combined_guard_valuation(tuple(registers), valuation_old, valuation_new)

        for decorations in decoration_choices:
            decoration_facts: Dict[str, Set[Tuple[Element, ...]]] = {
                name: set() for name in schema.relation_names
            }
            for element, decoration in zip(fresh_elements, decorations):
                for relation, args in decoration:
                    decoration_facts[relation].add(
                        tuple(element if a is FRESH_SELF else a for a in args)
                    )
            unary_facts = {
                name: base_relations[name] | decoration_facts[name]
                for name in schema.relation_names
            }
            allowed = self.tuple_filter(unary_facts)
            for chosen_relevant in self._tuple_subsets(relevant_future + mixed_tuples, allowed):
                if not self._guard_holds_small_structure(
                    schema,
                    small_domain,
                    base_small,
                    decoration_facts,
                    chosen_relevant,
                    guard,
                    combined,
                ):
                    continue
                relevant_added: Dict[str, Set[Tuple[Element, ...]]] = {
                    name: set(decoration_facts[name]) for name in schema.relation_names
                }
                for relation, t in chosen_relevant:
                    relevant_added[relation].add(t)
                for chosen_irrelevant in self._tuple_subsets(irrelevant_future, allowed):
                    added = {name: set(relevant_added[name]) for name in schema.relation_names}
                    for relation, t in chosen_irrelevant:
                        added[relation].add(t)
                    extended = Structure(
                        schema,
                        set(witness.domain) | set(fresh_elements),
                        relations={
                            name: base_relations[name] | added[name]
                            for name in schema.relation_names
                        },
                        validate=False,
                    )
                    yield TheoryConfiguration.make(extended, valuation_new, tuple(fresh_elements))

    def _guard_holds_small_structure(
        self,
        schema: Schema,
        small_domain: Set[Element],
        base_small: Dict[str, Set[Tuple[Element, ...]]],
        decoration_facts: Dict[str, Set[Tuple[Element, ...]]],
        chosen_relevant: Sequence[Tuple[str, Tuple[Element, ...]]],
        guard: Formula,
        combined: Dict[str, Element],
    ) -> bool:
        """The reference pre-filter: build the delta, walk the guard.

        Guards mentioning symbols outside the witness schema (e.g. the data
        value relations of :mod:`repro.datavalues`) cannot be decided here;
        such candidates are conservatively kept and the engine performs the
        authoritative evaluation on the full (expanded) database.
        """
        relations = {
            name: base_small[name] | decoration_facts[name] for name in schema.relation_names
        }
        for relation, t in chosen_relevant:
            relations[relation].add(t)
        small = Structure(schema, small_domain, relations=relations, validate=False)
        try:
            return guard.evaluate(small, combined)
        except FormulaError:
            return True

    def _tuple_subsets(
        self,
        candidates: List[Tuple[str, Tuple[Element, ...]]],
        allowed_fn: Callable[[str, Tuple[Element, ...]], bool],
    ) -> Iterator[Tuple[Tuple[str, Tuple[Element, ...]], ...]]:
        allowed = [(relation, t) for relation, t in candidates if allowed_fn(relation, t)]
        for size in range(len(allowed) + 1):
            yield from itertools.combinations(allowed, size)

    def _all_tuples(
        self, elements: Iterable[Element], must_touch: Iterable[Element]
    ) -> List[Tuple[str, Tuple[Element, ...]]]:
        """All free-relation tuples over ``elements`` touching ``must_touch``."""
        elements = sorted_key_list(set(elements))
        touch = set(must_touch)
        result: List[Tuple[str, Tuple[Element, ...]]] = []
        schema = self.witness_schema()
        for relation in self.free_relation_names():
            arity = schema.relation(relation).arity
            for t in itertools.product(elements, repeat=arity):
                if touch and not any(e in touch for e in t):
                    continue
                result.append((relation, t))
        return result

    def _guard_instantiated_tuples(
        self,
        guard: Formula,
        registers: List[str],
        valuation_old: Dict[str, Element],
        valuation_new: Dict[str, Element],
    ) -> List[Tuple[str, Tuple[Element, ...]]]:
        combined: Dict[str, Element] = {}
        for register in registers:
            combined[old(register)] = valuation_old[register]
            combined[new(register)] = valuation_new[register]
        tuples: Dict[Fact, None] = {}
        for atom in guard.atoms():
            if not isinstance(atom, RelationAtom):
                continue
            if atom.symbol not in self.free_relation_names():
                continue
            instantiated: List[Element] = []
            resolvable = True
            for term in atom.args:
                value = _resolve_variable_term(term, combined)
                if value is None:
                    resolvable = False
                    break
                instantiated.append(value)
            if resolvable:
                tuples[(atom.symbol, tuple(instantiated))] = None
        return list(tuples)

    @staticmethod
    def _next_element_id(witness: Structure) -> int:
        numeric = [e for e in witness.domain if isinstance(e, int)]
        return (max(numeric) + 1) if numeric else 0


class _FreshSlot:
    """A placeholder for 'the i-th fresh element' in register target assignments."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


FRESH_SELF = object()
"""Sentinel used inside decorations to refer to the fresh element itself."""


def decoration(relation: str, *args: object) -> Tuple[str, Tuple[object, ...]]:
    """Build one decoration fact; use :data:`FRESH_SELF` for the fresh element."""
    return (relation, tuple(args))


def _register_targets(
    registers: List[str], old_values: List[Element]
) -> Iterator[Tuple[Dict[str, object], int]]:
    """Enumerate new-register target assignments in canonical form.

    Every register is mapped either to an existing old register value or to a
    fresh slot; fresh slots are introduced in increasing order (register r may
    use fresh slot j only if slots 0..j-1 are already used by earlier
    registers), which enumerates identification patterns without duplicates.
    """

    def recurse(index: int, assignment: Dict[str, object], fresh_used: int):
        if index == len(registers):
            yield dict(assignment), fresh_used
            return
        register = registers[index]
        for value in old_values:
            assignment[register] = value
            yield from recurse(index + 1, assignment, fresh_used)
        for slot in range(fresh_used + 1):
            assignment[register] = _FreshSlot(slot)
            yield from recurse(index + 1, assignment, max(fresh_used, slot + 1))
        del assignment[register]

    yield from recurse(0, {}, 0)


def _resolve_variable_term(term: Term, combined: Dict[str, Element]) -> Optional[Element]:
    """Resolve a variable term to its element, or None for non-variable terms."""
    if isinstance(term, Var):
        return combined.get(term.name)
    return None


def _instantiate_templates(
    atom_templates: Tuple[AtomTemplate, ...],
    valuation_old: Dict[str, Element],
    valuation_new: Dict[str, Element],
    free_names: Set[str],
) -> List[Tuple[str, Tuple[Element, ...]]]:
    """Resolve a plan's guard-atom templates into distinct concrete tuples.

    The compiled-plan counterpart of the reference per-assignment formula
    walk (:meth:`RelationalTheory._guard_instantiated_tuples`): the plan extracted
    the register slots once at compilation, so per assignment this is a few
    dictionary lookups per guard atom.  Both keep the first occurrence of a
    tuple that several atoms name (the same atom written twice, or atoms
    that collapse under the register values), so it is one choice in the
    subset enumeration.
    """
    tuples: Dict[Fact, None] = {}
    for symbol, slots in atom_templates:
        if symbol in free_names:
            resolved = _resolve_slots(slots, valuation_old, valuation_new)
            if resolved is not None:
                tuples[(symbol, resolved)] = None
    return list(tuples)


def _resolve_slots(
    slots: Tuple[TemplateSlot, ...],
    valuation_old: Dict[str, Element],
    valuation_new: Dict[str, Element],
) -> Optional[Tuple[Element, ...]]:
    """The elements a template's register slots name, or None if one is unset."""
    resolved: List[Element] = []
    for which, register in slots:
        value = (valuation_old if which == "old" else valuation_new).get(register)
        if value is None:
            return None
        resolved.append(value)
    return tuple(resolved)


def _forced_tuples(
    literal_templates: Tuple[LiteralTemplate, ...],
    valuation_old: Dict[str, Element],
    valuation_new: Dict[str, Element],
    names: Set[str],
    fresh: Set[Element],
) -> Tuple[Set[Fact], Set[Fact]]:
    """The tuples a step's forced literals put in and leave out of every candidate.

    A literal (a top-level guard conjunct that is a register atom or its
    negation) whose tuple touches a fresh element holds only if the chosen
    new tuples contain that tuple (positive) or do not (negative): a fresh
    element has no fact in the witness, and ``names`` excludes relations a
    decoration could add.  Literals on old elements only are decided by the
    witness and are not forced.
    """
    forced_in: Set[Fact] = set()
    forced_out: Set[Fact] = set()
    for symbol, slots, positive in literal_templates:
        if symbol not in names:
            continue
        resolved = _resolve_slots(slots, valuation_old, valuation_new)
        if resolved is not None and any(e in fresh for e in resolved):
            (forced_in if positive else forced_out).add((symbol, resolved))
    return forced_in, forced_out


def relational_key(
    valuation_items: Iterable[Tuple[str, Element]], facts: Iterable[Fact]
) -> Hashable:
    """:func:`~repro.fraisse.base.generic_abstraction_key` of a relational configuration.

    ``facts`` must contain every fact among the register values; facts on
    other elements are skipped.  Each register value is named by its
    registers joined with ``|`` in sorted order, as the generic key names
    depth-0 elements, so the result is the very value the generic key gives
    the configuration's witness and valuation: the search's ``visited``
    order and best-first scores depend on that value, not just on the
    equivalence it induces.
    """
    items = sorted(valuation_items)
    names: Dict[Element, str] = {}
    for register, value in items:
        name = names.get(value)
        names[value] = register if name is None else f"{name}|{register}"
    relation_part: List[Tuple[str, ...]] = []
    for symbol, t in facts:
        named = [symbol]
        for element in t:
            name = names.get(element)
            if name is None:
                break
            named.append(name)
        else:
            relation_part.append(tuple(named))
    register_part = tuple((register, names[value]) for register, value in items)
    return (register_part, frozenset(relation_part), frozenset())


def _facts(witness: Structure) -> Iterator[Fact]:
    """Every relation tuple of ``witness``."""
    for name in witness.schema.relation_names:
        for t in witness.relation(name):
            yield name, t
