"""Finite structures (databases) over a schema.

A :class:`Structure` interprets every relation symbol of its schema as a set
of tuples over its domain and every function symbol as a total function from
tuples to domain elements.  Following Section 2 of the paper, a *database* is
simply a finite structure over a finite schema.

Design notes
------------
* Structures are value objects: the mutating-looking helpers (``with_element``,
  ``with_tuple`` ...) return new structures and never modify the receiver.
  This keeps solver code free of aliasing surprises at the price of copies,
  which is fine at the sizes we manipulate (register-generated substructures
  have a handful of elements).
* Because structures are immutable, every per-structure cache (hash, digest,
  closure results, the element-to-tuples index) is valid for the lifetime of
  the object; the ``with_*`` helpers return *new* structures whose caches
  start empty, which is what "invalidated on mutation" means here.
* Domain elements may be arbitrary hashable Python values.  The library uses
  integers, strings and small tuples (for tree nodes and data-valued
  elements).
* ``substructure`` always means *induced* substructure closed under the
  function symbols, exactly as in the paper.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import StructureError
from repro.logic.schema import Schema

Element = Any
TupleOfElements = Tuple[Element, ...]


class Structure:
    """A finite structure (database) over a :class:`Schema`."""

    __slots__ = (
        "_schema",
        "_domain",
        "_relations",
        "_functions",
        "_hash",
        "_canonical_key",
        "_closure_cache",
        "_touching",
    )

    def __init__(
        self,
        schema: Schema,
        domain: Iterable[Element],
        relations: Mapping[str, Iterable[Sequence[Element]]] = (),
        functions: Mapping[str, Mapping[Sequence[Element], Element]] = (),
        validate: bool = True,
    ) -> None:
        self._schema = schema
        self._domain: FrozenSet[Element] = frozenset(domain)
        rels: Dict[str, FrozenSet[TupleOfElements]] = {}
        for name in schema.relation_names:
            rels[name] = frozenset()
        for name, tuples in dict(relations).items():
            if not schema.has_relation(name):
                raise StructureError(f"relation {name!r} not in schema {schema!r}")
            rels[name] = frozenset(tuple(t) for t in tuples)
        funcs: Dict[str, Dict[TupleOfElements, Element]] = {}
        for name in schema.function_names:
            funcs[name] = {}
        for name, table in dict(functions).items():
            if not schema.has_function(name):
                raise StructureError(f"function {name!r} not in schema {schema!r}")
            funcs[name] = {tuple(k): v for k, v in dict(table).items()}
        self._relations = rels
        self._functions = funcs
        self._hash: Optional[int] = None
        self._canonical_key: Optional[tuple] = None
        self._closure_cache: Optional[Dict[FrozenSet[Element], FrozenSet[Element]]] = None
        self._touching: Optional[Dict[Element, tuple]] = None
        if validate:
            self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        for name, tuples in self._relations.items():
            arity = self._schema.relation(name).arity
            for t in tuples:
                if len(t) != arity:
                    raise StructureError(f"tuple {t!r} has wrong arity for relation {name!r}")
                for e in t:
                    if e not in self._domain:
                        raise StructureError(
                            f"tuple {t!r} of relation {name!r} mentions "
                            f"element {e!r} outside the domain"
                        )
        for name, table in self._functions.items():
            arity = self._schema.function(name).arity
            expected = set(itertools.product(sorted_key_list(self._domain), repeat=arity))
            seen = set(table)
            if seen != expected:
                missing = expected - seen
                extra = seen - expected
                raise StructureError(
                    f"function {name!r} must be total over the domain; "
                    f"missing {len(missing)} entries, {len(extra)} spurious entries"
                )
            for args, value in table.items():
                if value not in self._domain:
                    raise StructureError(
                        f"function {name!r} maps {args!r} to {value!r} outside the domain"
                    )

    # -- basic accessors ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def domain(self) -> FrozenSet[Element]:
        return self._domain

    @property
    def size(self) -> int:
        return len(self._domain)

    def relation(self, name: str) -> FrozenSet[TupleOfElements]:
        """The set of tuples interpreting a relation symbol."""
        try:
            return self._relations[name]
        except KeyError:
            raise StructureError(f"relation {name!r} not in schema") from None

    def function(self, name: str) -> Mapping[TupleOfElements, Element]:
        """The (total) graph of a function symbol."""
        try:
            return self._functions[name]
        except KeyError:
            raise StructureError(f"function {name!r} not in schema") from None

    def holds(self, name: str, *args: Element) -> bool:
        """True if the relation ``name`` holds of ``args``."""
        return tuple(args) in self.relation(name)

    def apply(self, name: str, *args: Element) -> Element:
        """Apply the function ``name`` to ``args``."""
        table = self.function(name)
        try:
            return table[tuple(args)]
        except KeyError:
            raise StructureError(
                f"function {name!r} undefined on {args!r} (not a total table?)"
            ) from None

    def __contains__(self, element: object) -> bool:
        return element in self._domain

    def __len__(self) -> int:
        return len(self._domain)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._domain)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._domain == other._domain
            and self._relations == other._relations
            and self._functions == other._functions
        )

    def __hash__(self) -> int:
        if self._hash is None:
            rel_part = tuple(
                (name, frozenset(tuples)) for name, tuples in sorted(self._relations.items())
            )
            fun_part = tuple(
                (name, frozenset(table.items())) for name, table in sorted(self._functions.items())
            )
            self._hash = hash((self._schema, self._domain, rel_part, fun_part))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Structure(|dom|={len(self._domain)}, "
            "relations={"
            + ", ".join(f"{n}:{len(t)}" for n, t in sorted(self._relations.items()))
            + "}, "
            f"functions={sorted(self._functions)})"
        )

    # -- serialization -------------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """A JSON-safe, canonically ordered description of the structure.

        Only structures whose elements are ints or strings can be serialized
        (which covers every structure the workload generator and the HOM
        templates produce).  The rendering is canonical -- domain and tuples
        in :func:`sorted_key_list` order -- so equal structures always render
        to the same spec, which is what makes job fingerprints stable across
        processes.  Round-trips through :meth:`from_spec`.
        """
        for element in self._domain:
            if not isinstance(element, (int, str)):
                raise StructureError(
                    f"element {element!r} is not JSON-serializable; "
                    "specs support int and str elements only"
                )
        relations = {
            name: [list(t) for t in sorted_key_list(self._relations[name])]
            for name in self._schema.relation_names
        }
        def args_key(item):
            args, _ = item
            return tuple((isinstance(e, str), e) for e in args)

        functions = {
            name: [
                [list(args), value]
                for args, value in sorted(self._functions[name].items(), key=args_key)
            ]
            for name in self._schema.function_names
        }
        return {
            "schema": self._schema.to_spec(),
            "domain": sorted_key_list(self._domain),
            "relations": relations,
            "functions": functions,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Structure":
        """Rebuild a structure from :meth:`to_spec` output."""
        schema = Schema.from_spec(spec["schema"])
        relations = {
            name: [tuple(t) for t in tuples] for name, tuples in spec.get("relations", {}).items()
        }
        functions = {
            name: {tuple(args): value for args, value in table}
            for name, table in spec.get("functions", {}).items()
        }
        return cls(
            schema,
            spec["domain"],
            relations=relations,
            functions=functions,
        )

    # -- construction helpers ------------------------------------------------

    def with_element(self, element: Element) -> "Structure":
        """Add an element to the domain (functions must then be re-totalised).

        Only valid for relational schemas, or when the caller subsequently
        provides function values through :meth:`with_function_value` before
        the structure is validated again.  For relational schemas this is
        always safe.
        """
        if not self._schema.is_relational:
            raise StructureError(
                "with_element is only supported on relational schemas; "
                "use Structure(...) with full function tables instead"
            )
        if element in self._domain:
            return self
        return Structure(
            self._schema,
            set(self._domain) | {element},
            relations={n: set(t) for n, t in self._relations.items()},
            validate=False,
        )

    def with_elements(self, elements: Iterable[Element]) -> "Structure":
        result = self
        for element in elements:
            result = result.with_element(element)
        return result

    def with_tuple(self, relation: str, *args: Element) -> "Structure":
        """Add one tuple to a relation (elements must already be in the domain)."""
        arity = self._schema.relation(relation).arity
        if len(args) != arity:
            raise StructureError(
                f"relation {relation!r} expects {arity} arguments, got {len(args)}"
            )
        for e in args:
            if e not in self._domain:
                raise StructureError(f"element {e!r} not in the domain")
        rels = {n: set(t) for n, t in self._relations.items()}
        rels[relation].add(tuple(args))
        return Structure(
            self._schema,
            self._domain,
            relations=rels,
            functions={n: dict(t) for n, t in self._functions.items()},
            validate=False,
        )

    def without_tuple(self, relation: str, *args: Element) -> "Structure":
        """Remove one tuple from a relation (missing tuples are ignored)."""
        rels = {n: set(t) for n, t in self._relations.items()}
        rels[relation].discard(tuple(args))
        return Structure(
            self._schema,
            self._domain,
            relations=rels,
            functions={n: dict(t) for n, t in self._functions.items()},
            validate=False,
        )

    def with_relation(self, relation: str, tuples: Iterable[Sequence[Element]]) -> "Structure":
        """Replace the whole interpretation of one relation symbol."""
        rels = {n: set(t) for n, t in self._relations.items()}
        rels[relation] = {tuple(t) for t in tuples}
        return Structure(
            self._schema,
            self._domain,
            relations=rels,
            functions={n: dict(t) for n, t in self._functions.items()},
            validate=True,
        )

    # -- substructures -------------------------------------------------------

    def is_closed(self, subset: Iterable[Element]) -> bool:
        """True if ``subset`` is closed under all function symbols."""
        sub = set(subset)
        for name in self._schema.function_names:
            arity = self._schema.function(name).arity
            for args in itertools.product(sorted_key_list(sub), repeat=arity):
                if self.apply(name, *args) not in sub:
                    return False
        return True

    def closure(self, subset: Iterable[Element]) -> FrozenSet[Element]:
        """The least superset of ``subset`` closed under the function symbols.

        This is the set generated by ``subset`` in the sense of Section 4.1.
        Results are memoised per structure (structures are immutable, so the
        cache can never go stale); for purely relational schemas the closure
        is the subset itself and is returned without touching the cache.
        """
        closed: Set[Element] = set(subset)
        for e in closed:
            if e not in self._domain:
                raise StructureError(f"element {e!r} not in the domain")
        if not self._functions:
            return frozenset(closed)
        generators = frozenset(closed)
        if self._closure_cache is None:
            self._closure_cache = {}
        cached = self._closure_cache.get(generators)
        if cached is not None:
            return cached
        changed = True
        while changed:
            changed = False
            for name in self._schema.function_names:
                arity = self._schema.function(name).arity
                for args in itertools.product(sorted_key_list(closed), repeat=arity):
                    value = self.apply(name, *args)
                    if value not in closed:
                        closed.add(value)
                        changed = True
        result = frozenset(closed)
        self._closure_cache[generators] = result
        return result

    def restrict(self, subset: Iterable[Element]) -> "Structure":
        """The induced substructure on ``subset`` (must be function-closed)."""
        sub = frozenset(subset)
        for e in sub:
            if e not in self._domain:
                raise StructureError(f"element {e!r} not in the domain")
        if not self.is_closed(sub):
            raise StructureError(
                "subset is not closed under the function symbols; "
                "use generated_substructure to close it first"
            )
        relations = {
            name: {t for t in tuples if all(e in sub for e in t)}
            for name, tuples in self._relations.items()
        }
        functions = {
            name: {
                args: value
                for args, value in table.items()
                if all(e in sub for e in args)
            }
            for name, table in self._functions.items()
        }
        return Structure(
            self._schema, sub, relations=relations, functions=functions, validate=False
        )

    def generated_substructure(self, generators: Iterable[Element]) -> "Structure":
        """The substructure generated by ``generators`` (Section 4.1)."""
        return self.restrict(self.closure(generators))

    def is_substructure_of(self, other: "Structure") -> bool:
        """True if ``self`` is an induced substructure of ``other``.

        Both structures must share a schema and the inclusion map of the
        domains must be an embedding (relations and functions agree on the
        common elements, and the relations of ``self`` are exactly the
        restriction of those of ``other``).
        """
        if self._schema != other._schema:
            return False
        if not self._domain <= other._domain:
            return False
        for name, tuples in self._relations.items():
            other_restricted = {
                t for t in other.relation(name) if all(e in self._domain for e in t)
            }
            if tuples != other_restricted:
                return False
        for name, table in self._functions.items():
            for args, value in table.items():
                if other.apply(name, *args) != value:
                    return False
        return True

    # -- projections and unions ----------------------------------------------

    def project(self, schema: Schema) -> "Structure":
        """The sigma-projection of Section 4.2: forget symbols outside ``schema``."""
        if not schema.is_subschema_of(self._schema):
            raise StructureError("projection target is not a subschema")
        return Structure(
            schema,
            self._domain,
            relations={n: self._relations[n] for n in schema.relation_names},
            functions={n: dict(self._functions[n]) for n in schema.function_names},
            validate=False,
        )

    def expand(
        self,
        schema: Schema,
        relations: Mapping[str, Iterable[Sequence[Element]]] = (),
        functions: Mapping[str, Mapping[Sequence[Element], Element]] = (),
    ) -> "Structure":
        """Expand to a larger schema, supplying interpretations for new symbols."""
        if not self._schema.is_subschema_of(schema):
            raise StructureError("expansion target must contain the current schema")
        rels: Dict[str, Iterable[Sequence[Element]]] = {
            n: self._relations[n] for n in self._schema.relation_names
        }
        funcs: Dict[str, Mapping[Sequence[Element], Element]] = {
            n: self._functions[n] for n in self._schema.function_names
        }
        rels.update({n: list(t) for n, t in dict(relations).items()})
        funcs.update({n: dict(t) for n, t in dict(functions).items()})
        return Structure(schema, self._domain, relations=rels, functions=funcs)

    def rename(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Rename domain elements via an injective mapping."""
        def conv(e: Element) -> Element:
            return mapping.get(e, e)

        new_domain = [conv(e) for e in self._domain]
        if len(set(new_domain)) != len(self._domain):
            raise StructureError("renaming must be injective on the domain")
        relations = {
            name: {tuple(conv(e) for e in t) for t in tuples}
            for name, tuples in self._relations.items()
        }
        functions = {
            name: {tuple(conv(e) for e in args): conv(v) for args, v in table.items()}
            for name, table in self._functions.items()
        }
        return Structure(
            self._schema,
            new_domain,
            relations=relations,
            functions=functions,
            validate=False,
        )

    def disjoint_union(self, other: "Structure") -> "Structure":
        """Disjoint union, tagging elements with 0 / 1 to keep them apart.

        Only supported for relational schemas (the paper only takes disjoint
        unions of purely relational run databases after dropping functions, or
        handles the function case separately inside the word/tree theories).
        """
        if self._schema != other._schema:
            raise StructureError("disjoint union requires identical schemas")
        if not self._schema.is_relational:
            raise StructureError("disjoint union is only supported on relational schemas")
        left = self.rename({e: (0, e) for e in self._domain})
        right = other.rename({e: (1, e) for e in other._domain})
        relations = {
            name: set(left.relation(name)) | set(right.relation(name))
            for name in self._schema.relation_names
        }
        return Structure(
            self._schema,
            set(left.domain) | set(right.domain),
            relations=relations,
            validate=False,
        )

    # -- canonical forms and indexes ------------------------------------------

    def canonical_key(self) -> tuple:
        """A stable, hashable canonical description of this structure.

        Two structures get the same key iff they are equal (same schema, same
        domain, same interpretations) -- the key is the content of the
        structure rendered in a deterministic order, independent of the
        insertion order of tuples or the identity of the containers, and a
        convenient dictionary key for per-structure memo tables.  Computed
        once and cached (structures are immutable).
        """
        if self._canonical_key is None:
            relation_part = tuple(
                (name, tuple(sorted(self._relations[name], key=repr)))
                for name in self._schema.relation_names
            )
            function_part = tuple(
                (name, tuple(sorted(self._functions[name].items(), key=repr)))
                for name in self._schema.function_names
            )
            self._canonical_key = (
                hash(self._schema),
                tuple(sorted_key_list(self._domain)),
                relation_part,
                function_part,
            )
        return self._canonical_key

    def tuples_touching(self, element: Element) -> Tuple[Tuple[str, TupleOfElements], ...]:
        """All ``(relation, tuple)`` facts mentioning ``element``.

        Backed by a per-structure index built on the first call.
        """
        if self._touching is None:
            index: Dict[Element, List[Tuple[str, TupleOfElements]]] = {}
            for name, tuples in self._relations.items():
                for t in tuples:
                    for e in set(t):
                        index.setdefault(e, []).append((name, t))
            self._touching = {e: tuple(facts) for e, facts in index.items()}
        return self._touching.get(element, ())

    # -- statistics -----------------------------------------------------------

    def tuple_count(self) -> int:
        """Total number of relation tuples (a cheap size proxy for reports)."""
        return sum(len(t) for t in self._relations.values())

    def describe(self) -> str:
        """A human-readable multi-line description (used by examples)."""
        lines = [f"domain ({len(self._domain)}): {sorted_key_list(self._domain)}"]
        for name in self._schema.relation_names:
            tuples = sorted(self._relations[name], key=repr)
            lines.append(f"{name}: {tuples}")
        for name in self._schema.function_names:
            table = self._functions[name]
            entries = ", ".join(
                f"{args}->{value!r}" for args, value in sorted(table.items(), key=repr)
            )
            lines.append(f"{name}(): {entries}")
        return "\n".join(lines)


def sorted_key_list(elements: Iterable[Element]) -> list:
    """Sort arbitrary hashable elements deterministically (by repr fallback)."""
    try:
        return sorted(elements)
    except TypeError:
        return sorted(elements, key=repr)


def empty_structure(schema: Schema) -> Structure:
    """The empty structure over a schema with no constants."""
    if any(schema.function(n).arity == 0 for n in schema.function_names):
        raise StructureError("schemas with constants have no empty structure")
    return Structure(schema, ())


def singleton_structure(schema: Schema, element: Element = 0) -> Structure:
    """A one-element structure; all functions map to the single element."""
    functions = {}
    for name in schema.function_names:
        arity = schema.function(name).arity
        functions[name] = {(element,) * arity: element}
    return Structure(schema, [element], functions=functions)


# -- isomorphism-canonical forms --------------------------------------------------


def _invariant_signature(structure: Structure, element: Element) -> tuple:
    """An isomorphism-invariant local signature of one element.

    Records, per relation symbol and argument position, how many tuples the
    element appears in, plus the function symbols it participates in.  Used
    to cut the permutation search of :func:`isomorphism_key` down to
    signature-preserving bijections.
    """
    parts: List[tuple] = []
    for name in structure.schema.relation_names:
        counts = [0] * structure.schema.relation(name).arity
        for t in structure.relation(name):
            for position, e in enumerate(t):
                if e == element:
                    counts[position] += 1
        parts.append((name, tuple(counts)))
    for name in structure.schema.function_names:
        in_args = 0
        as_value = 0
        for args, value in structure.function(name).items():
            if element in args:
                in_args += 1
            if value == element:
                as_value += 1
        parts.append((name, (in_args, as_value)))
    return tuple(parts)


def isomorphism_key(structure: Structure, max_size: int = 8) -> tuple:
    """A canonical key equal for isomorphic structures (small structures).

    Elements are renamed to ``0..n-1``; among all signature-preserving
    renamings the lexicographically least encoding is returned, so two
    isomorphic structures always produce the same key.  The search is
    exponential in the worst case, which is fine for register-generated
    substructures (their size is bounded by the register count and the
    class blowup); beyond ``max_size`` elements the key falls
    back to the labelled :meth:`Structure.canonical_key` (still deterministic,
    but only equal for *equal* structures), tagged so the two regimes can
    never collide.
    """
    elements = sorted_key_list(structure.domain)
    if len(elements) > max_size:
        return ("labelled", structure.canonical_key())

    groups: Dict[tuple, List[Element]] = {}
    for element in elements:
        groups.setdefault(_invariant_signature(structure, element), []).append(element)
    ordered_groups = [groups[s] for s in sorted(groups)]

    def encode(index_of: Dict[Element, int]) -> tuple:
        relation_part = tuple(
            tuple(sorted(tuple(index_of[e] for e in t) for t in structure.relation(name)))
            for name in structure.schema.relation_names
        )
        function_part = tuple(
            tuple(
                sorted(
                    (tuple(index_of[e] for e in args), index_of[value])
                    for args, value in structure.function(name).items()
                )
            )
            for name in structure.schema.function_names
        )
        return (relation_part, function_part)

    best: Optional[tuple] = None
    for group_orders in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        index_of: Dict[Element, int] = {}
        for group in group_orders:
            for element in group:
                index_of[element] = len(index_of)
        candidate = encode(index_of)
        if best is None or candidate < best:
            best = candidate
    signature_part = tuple(sorted((s, len(g)) for s, g in groups.items()))
    return ("canonical", hash(structure.schema), signature_part, best)
