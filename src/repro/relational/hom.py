"""HOM(H) classes and their semi-Fraïssé lift (Section 3.2, Lemma 7, Theorem 4).

``HOM(H)`` is the class of databases that map homomorphically into a fixed
template ``H``.  It is generally *not* closed under amalgamation (Example 4:
2-colourable graphs), but its lift ``HOM(~H)`` -- where every element carries
the colour of its image in ``H`` -- is a Fraïssé class (Lemma 7), and its
projection back to the original schema sits between ``HOM(H)`` and its
closure under substructures, so Lemma 6 applies.

:class:`HomTheory` implements the lifted class: witness elements always carry
exactly one colour (a unary predicate per template element), membership is
the purely local condition "every tuple's colours form a tuple of H", and the
free amalgam preserves it -- which is what makes the PSpace procedure of
Theorem 4 work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import TheoryError
from repro.logic.morphisms import find_homomorphism
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure, sorted_key_list
from repro.relational.theory import FRESH_SELF, Decoration, RelationalTheory

COLOR_PREFIX = "hom_color_"


class HomTheory(RelationalTheory):
    """The class HOM(H) of databases mapping homomorphically into ``H``."""

    # The lifted class is closed under substructures and every witness element
    # carries exactly one colour: each register-generated substructure is one
    # of the seeds (a colouring of the register values plus allowed tuples).
    seeds_cover_keys = True

    def __init__(self, template: Structure) -> None:
        if not template.schema.is_relational:
            raise TheoryError("HOM templates must be over relational schemas")
        if not template.domain:
            raise TheoryError("HOM templates must be non-empty")
        super().__init__(template.schema)
        self._template = template
        self._template_elements: List[Element] = sorted_key_list(template.domain)
        self._color_names: Dict[Element, str] = {
            element: f"{COLOR_PREFIX}{index}"
            for index, element in enumerate(self._template_elements)
        }
        colors = {name: 1 for name in self._color_names.values()}
        self._witness_schema = template.schema.extend(relations=colors)

    # -- template accessors -----------------------------------------------------

    @property
    def template(self) -> Structure:
        return self._template

    @property
    def color_names(self) -> Dict[Element, str]:
        """Mapping from template elements to their colour predicate names."""
        return dict(self._color_names)

    def color_of(
        self, unary_facts: Dict[str, Set[Tuple[Element, ...]]], element: Element
    ) -> Optional[Element]:
        """The template element an element is coloured by (None if uncoloured)."""
        for template_element, name in self._color_names.items():
            if (element,) in unary_facts.get(name, set()):
                return template_element
        return None

    def witness_coloring(self, witness: Structure) -> Dict[Element, Element]:
        """Extract the colouring of a (lifted) witness structure."""
        coloring: Dict[Element, Element] = {}
        for template_element, name in self._color_names.items():
            for (element,) in witness.relation(name):
                coloring[element] = template_element
        return coloring

    # -- RelationalTheory hooks ---------------------------------------------------

    def witness_schema(self) -> Schema:
        return self._witness_schema

    def free_relation_names(self) -> Tuple[str, ...]:
        return self.schema.relation_names

    def element_decorations(self) -> Sequence[Decoration]:
        return tuple(
            ((self._color_names[element], (FRESH_SELF,)),) for element in self._template_elements
        )

    def tuple_allowed(
        self,
        witness_relations: Dict[str, Set[Tuple[Element, ...]]],
        relation: str,
        elements: Tuple[Element, ...],
    ) -> bool:
        colors = []
        for element in elements:
            color = self.color_of(witness_relations, element)
            if color is None:
                return False
            colors.append(color)
        return self._template.holds(relation, *colors)

    def tuple_filter(
        self, witness_relations: Dict[str, Set[Tuple[Element, ...]]]
    ) -> Callable[[str, Tuple[Element, ...]], bool]:
        """Specialised admissibility check with the colouring extracted once.

        The unary colour facts are fixed for the whole subset enumeration, so
        the element-to-colour map is computed a single time up front; the
        per-tuple check is then a pair of dictionary lookups instead of a
        scan over every colour predicate per element (the pre-refactor cost).
        """
        coloring: Dict[Element, Element] = {}
        for template_element, name in self._color_names.items():
            for (element,) in witness_relations.get(name, ()):
                # setdefault: on a (malformed) multi-coloured element the first
                # colour in _color_names order wins, matching color_of.
                coloring.setdefault(element, template_element)
        template_holds = self._template.holds

        def allowed(relation: str, elements: Tuple[Element, ...]) -> bool:
            colors = []
            for element in elements:
                color = coloring.get(element)
                if color is None:
                    return False
                colors.append(color)
            return template_holds(relation, *colors)

        return allowed

    # -- membership of the projected class (used by tests and baselines) -----------

    def membership(self, database: Structure) -> bool:
        """Is ``database`` (over the base schema) in HOM(H)?"""
        if database.schema != self.schema:
            database = database.project(self.schema)
        return find_homomorphism(database, self._template) is not None

    def lifted_membership(self, witness: Structure) -> bool:
        """Is a fully coloured witness in the lifted class HOM(~H)?"""
        coloring = self.witness_coloring(witness)
        if set(coloring) != set(witness.domain):
            return False
        for relation in self.schema.relation_names:
            for t in witness.relation(relation):
                image = tuple(coloring[e] for e in t)
                if not self._template.holds(relation, *image):
                    return False
        return True

    def lift(self, database: Structure) -> Optional[Structure]:
        """Colour a database by some homomorphism into H (None if not in HOM(H))."""
        if database.schema != self.schema:
            database = database.project(self.schema)
        homomorphism = find_homomorphism(database, self._template)
        if homomorphism is None:
            return None
        relations = {name: set(database.relation(name)) for name in self.schema.relation_names}
        for name in self._color_names.values():
            relations[name] = set()
        for element, image in homomorphism.items():
            relations[self._color_names[image]].add((element,))
        return Structure(self._witness_schema, database.domain, relations=relations, validate=False)

    def project(self, witness: Structure) -> Structure:
        """Forget the colour predicates (the sigma-projection of Lemma 6)."""
        return witness.project(self.schema)

    def describe(self) -> str:
        return (
            f"HOM(H) for a template with {len(self._template.domain)} elements "
            f"over {self.schema!r}"
        )

    # -- serialization -------------------------------------------------------------

    SPEC_KIND = "hom"

    def to_spec(self) -> Dict[str, object]:
        return {"kind": self.SPEC_KIND, "template": self._template.to_spec()}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "HomTheory":
        return cls(Structure.from_spec(spec["template"]))
