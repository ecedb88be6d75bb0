"""The data-value products C ⊗ F and C ⊙ F (Section 4.4, Proposition 1).

Given a database theory (a semi-Fraïssé class ``C``) and a homogeneous
relational structure ``F``, the product class consists of the databases of
``C`` whose elements additionally carry data values from ``F``; the guards of
a system may then compare data values using the relations of ``F``.  The
paper's two variants are both supported:

* ``C ⊗ F`` -- arbitrary labellings (several elements may share a value), the
  XML-attribute reading of Example 5;
* ``C ⊙ F`` -- injective labellings (every element has its own value), the
  relational-database reading of Example 6; select it with ``injective=True``.

Proposition 1 shows the product is again a Fraïssé class with the *same
blowup function*; accordingly :class:`DataValuedTheory` simply wraps the base
theory: it forwards the structural search to the base theory and decorates
every fresh element with a data value, enumerating value patterns up to
isomorphism over the values already present (equality pattern for ⟨N, ~⟩,
order/equality pattern for ⟨Q, <⟩).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

from repro.datavalues.homogeneous import HomogeneousStructure, homogeneous_from_spec
from repro.errors import TheoryError
from repro.fraisse.base import (
    CandidateDelta,
    DatabaseTheory,
    TheoryConfiguration,
    generic_abstraction_key,
)
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure, sorted_key_list
from repro.perf import BoundedCache
from repro.systems.dds import DatabaseDrivenSystem, Transition


@dataclass(frozen=True)
class _DataWitness:
    """The wrapped witness: the base configuration plus the value labelling."""

    base_config: TheoryConfiguration
    value_items: Tuple[Tuple[Element, object], ...]

    @property
    def values(self) -> Dict[Element, object]:
        return dict(self.value_items)


class DataValuedTheory(DatabaseTheory):
    """The product of a base database theory with a homogeneous value structure."""

    def __init__(
        self,
        base: DatabaseTheory,
        values: HomogeneousStructure,
        injective: bool = False,
    ) -> None:
        for name in values.schema.relation_names:
            if base.schema.has_symbol(name):
                raise TheoryError(
                    f"value relation {name!r} clashes with a symbol of the base schema"
                )
        self._base = base
        self._values = values
        self._injective = injective
        self._schema = base.schema.union(values.schema)
        # The engine renders the expanded product database once for the guard
        # and once for the abstraction key of every candidate; the render is
        # a pure function of the (immutable) wrapped witness, so it is
        # memoised per witness (see repro.perf).
        self._database_cache = BoundedCache("datavalues_database")

    # -- accessors -----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def base(self) -> DatabaseTheory:
        return self._base

    @property
    def value_structure(self) -> HomogeneousStructure:
        return self._values

    @property
    def injective(self) -> bool:
        return self._injective

    def blowup(self, n: int) -> int:
        # Proposition 1: the product has the same blowup function as the base.
        return self._base.blowup(n)

    # -- serialization --------------------------------------------------------------

    SPEC_KIND = "data_valued"

    def to_spec(self) -> Dict[str, object]:
        return {
            "kind": self.SPEC_KIND,
            "base": self._base.to_spec(),
            "values": self._values.to_spec(),
            "injective": self._injective,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "DataValuedTheory":
        # Imported here to avoid a cycle: the specs module imports every theory.
        from repro.service.specs import theory_from_spec

        return cls(
            base=theory_from_spec(spec["base"]),
            values=homogeneous_from_spec(spec["values"]),
            injective=bool(spec.get("injective", False)),
        )

    # -- seeds ----------------------------------------------------------------------

    def initial_configurations(self, system: DatabaseDrivenSystem) -> Iterator[TheoryConfiguration]:
        base_system = self._base_system(system)
        for base_config in self._base.initial_configurations(base_system):
            elements = self._ordered_elements(base_config, base_config.fresh_elements)
            for values in self._value_assignments({}, elements):
                yield self._wrap(base_config, values)

    # -- successors --------------------------------------------------------------------

    def successor_configurations(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
    ) -> Iterator[TheoryConfiguration]:
        """The reference enumeration: the base's reference candidates, each
        under every value labelling of its fresh elements."""
        witness: _DataWitness = config.witness
        base_candidates = self._base.successor_configurations(
            self._base_system(system), witness.base_config, transition
        )
        return self._labelled(witness, base_candidates)

    def enumerate_deltas(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
        plan=None,
    ) -> Iterator[CandidateDelta]:
        """The base's delta stream, built and labelled as the reference is.

        The base decides the base atoms of the guard through its own plan
        (:meth:`~repro.fraisse.base.DatabaseTheory._transition_plan`); it
        cannot decide the value atoms.  So every base delta is built, whatever
        its status, and every labelled candidate carries status UNKNOWN: the
        engine evaluates the whole guard on the product database.  Applying
        these deltas gives exactly the stream of :meth:`successor_configurations`.
        """
        witness: _DataWitness = config.witness
        base = self._base
        base_config = witness.base_config
        base_deltas = base.enumerate_deltas(
            self._base_system(system), base_config, transition, base._transition_plan(transition)
        )
        base_candidates = (base.apply_delta(base_config, delta) for delta in base_deltas)
        for candidate in self._labelled(witness, base_candidates):
            yield CandidateDelta(
                candidate.valuation_items, candidate.fresh_elements, payload=candidate
            )

    def _labelled(
        self, witness: _DataWitness, base_candidates: Iterable[TheoryConfiguration]
    ) -> Iterator[TheoryConfiguration]:
        """Each base candidate under every value labelling of its fresh elements."""
        for base_candidate in base_candidates:
            fresh = self._ordered_elements(base_candidate, base_candidate.fresh_elements)
            for values in self._value_assignments(witness.values, fresh):
                yield self._wrap(base_candidate, values)

    # -- rendering -----------------------------------------------------------------------

    def database(self, config: TheoryConfiguration) -> Structure:
        witness: _DataWitness = config.witness
        return self._database_cache.get_or_compute(witness, lambda: self._render_database(witness))

    def _render_database(self, witness: _DataWitness) -> Structure:
        base_database = self._base.database(witness.base_config)
        values = witness.values
        relations: Dict[str, set] = {}
        for name in self._values.schema.relation_names:
            arity = self._values.schema.relation(name).arity
            facts = set()
            for t in itertools.product(sorted_key_list(base_database.domain), repeat=arity):
                if any(e not in values for e in t):
                    continue
                if self._values.holds(name, *[values[e] for e in t]):
                    facts.add(t)
            relations[name] = facts
        return base_database.expand(
            base_database.schema.union(self._values.schema), relations=relations
        )

    def certify(
        self, config: TheoryConfiguration
    ) -> Tuple[Structure, Dict[Element, Element], Dict[str, object]]:
        """Finalize the base witness and record the element-to-value assignment.

        The evidence payload nests the base theory's evidence under ``"base"``
        and adds the final element-to-value map (values rendered as strings,
        so :class:`~fractions.Fraction` survives JSON), letting a validator
        re-derive every value relation of the product without the engine.
        """
        witness: _DataWitness = config.witness
        base_database, mapping, base_evidence = self._base.certify(witness.base_config)
        values = witness.values
        # Carry the recorded values across the mapping; elements introduced by
        # the base theory's expansion (e.g. connector word positions) receive
        # fresh pairwise-distinct values, which is safe for both products.
        final_values: Dict[Element, object] = {}
        for element, value in values.items():
            final_values[mapping.get(element, element)] = value
        for element in sorted_key_list(base_database.domain):
            if element not in final_values:
                existing = list(final_values.values())
                choice = None
                for candidate in self._values.fresh_value_choices(existing, True):
                    choice = candidate
                final_values[element] = choice
        relations: Dict[str, set] = {}
        for name in self._values.schema.relation_names:
            arity = self._values.schema.relation(name).arity
            facts = set()
            for t in itertools.product(sorted_key_list(base_database.domain), repeat=arity):
                if self._values.holds(name, *[final_values[e] for e in t]):
                    facts.add(t)
            relations[name] = facts
        expanded = base_database.expand(
            base_database.schema.union(self._values.schema), relations=relations
        )
        evidence = {
            "base": base_evidence,
            "values": {
                str(element): str(value)
                for element, value in sorted(
                    final_values.items(), key=lambda item: str(item[0])
                )
            },
        }
        return expanded, mapping, evidence

    def abstraction_key(self, config: TheoryConfiguration) -> Hashable:
        witness: _DataWitness = config.witness
        base_key = self._base.abstraction_key(witness.base_config)
        # The value pattern only matters on the register-generated part; the
        # generic key over the expanded database captures exactly the relations
        # of F among those elements.
        value_key = generic_abstraction_key(self.database(config), config.valuation)
        return (base_key, value_key)

    def membership(self, database: Structure) -> bool:
        """Membership of a database over the union schema in the product class."""
        base_part = database.project(self._base.schema)
        value_part = database.project(self._values.schema)
        if not self._values.embeds(value_part):
            return False
        try:
            return self._base.membership(base_part)
        except NotImplementedError:
            return True

    def describe(self) -> str:
        product = "⊙" if self._injective else "⊗"
        return f"{self._base.describe()} {product} {self._values.name}"

    # -- internals ----------------------------------------------------------------------

    def _base_system(self, system: DatabaseDrivenSystem) -> DatabaseDrivenSystem:
        """The system as seen by the base theory (schema restricted guards untouched).

        The base theory only uses the guard to *prune*; its pruning helpers
        ignore atoms over symbols they do not know, so the system can be
        passed through unchanged apart from the schema annotation.
        """
        if system.schema == self._base.schema:
            return system
        return system

    def _ordered_elements(
        self, config: TheoryConfiguration, elements: Sequence[Element]
    ) -> List[Element]:
        return sorted_key_list(set(elements))

    def _value_assignments(
        self, existing: Dict[Element, object], fresh: Sequence[Element]
    ) -> Iterator[Dict[Element, object]]:
        """All value labellings of the fresh elements, up to isomorphism over F."""

        def recurse(index: int, current: Dict[Element, object]) -> Iterator[Dict[Element, object]]:
            if index == len(fresh):
                yield dict(current)
                return
            element = fresh[index]
            present = list(current.values())
            for value in self._values.fresh_value_choices(present, self._injective):
                current[element] = value
                yield from recurse(index + 1, current)
                del current[element]

        yield from recurse(0, dict(existing))

    def _wrap(
        self, base_config: TheoryConfiguration, values: Dict[Element, object]
    ) -> TheoryConfiguration:
        witness = _DataWitness(base_config, tuple(sorted(values.items(), key=repr)))
        return TheoryConfiguration(witness, base_config.valuation_items, base_config.fresh_elements)


def with_data_values(
    base: DatabaseTheory,
    values: HomogeneousStructure,
    injective: bool = False,
) -> DataValuedTheory:
    """Build ``base ⊗ values`` (or ``base ⊙ values`` with ``injective=True``)."""
    return DataValuedTheory(base, values, injective=injective)
