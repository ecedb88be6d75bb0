"""Unit tests for finite structures (repro.logic.structures)."""

import pytest

from repro.errors import StructureError
from repro.logic.schema import Schema
from repro.logic.structures import Structure, empty_structure, singleton_structure

GRAPH = Schema.relational(E=2, red=1)
TREEISH = Schema(relations={"anc": 2}, functions={"cca": 2})


def triangle():
    return Structure(
        GRAPH, [0, 1, 2], relations={"E": {(0, 1), (1, 2), (2, 0)}, "red": {(0,)}}
    )


def test_basic_accessors():
    g = triangle()
    assert g.size == 3
    assert g.holds("E", 0, 1)
    assert not g.holds("E", 1, 0)
    assert g.holds("red", 0)
    assert 2 in g
    assert len(g) == 3


def test_validation_rejects_bad_arity_and_foreign_elements():
    with pytest.raises(StructureError):
        Structure(GRAPH, [0], relations={"E": {(0,)}})
    with pytest.raises(StructureError):
        Structure(GRAPH, [0], relations={"E": {(0, 5)}})
    with pytest.raises(StructureError):
        Structure(GRAPH, [0], relations={"missing": {(0,)}})


def test_functions_must_be_total():
    with pytest.raises(StructureError):
        Structure(TREEISH, [0, 1], functions={"cca": {(0, 0): 0}})
    ok = Structure(
        TREEISH,
        [0, 1],
        relations={"anc": {(0, 0), (0, 1), (1, 1)}},
        functions={"cca": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}},
    )
    assert ok.apply("cca", 0, 1) == 0


def test_with_tuple_and_without_tuple_are_functional():
    g = triangle()
    g2 = g.with_tuple("red", 1)
    assert g2.holds("red", 1)
    assert not g.holds("red", 1)
    g3 = g2.without_tuple("red", 1)
    assert not g3.holds("red", 1)


def test_with_element_only_for_relational():
    g = triangle().with_element(7)
    assert 7 in g
    t = singleton_structure(TREEISH)
    with pytest.raises(StructureError):
        t.with_element(3)


def test_closure_and_generated_substructure():
    t = Structure(
        TREEISH,
        [0, 1, 2],
        relations={"anc": {(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)}},
        functions={
            "cca": {
                (a, b): (a if a == b else 0) for a in range(3) for b in range(3)
            }
        },
    )
    closure = t.closure([1, 2])
    assert closure == frozenset({0, 1, 2})
    generated = t.generated_substructure([1, 2])
    assert generated.domain == frozenset({0, 1, 2})
    assert t.closure([1]) == frozenset({1})


def test_restrict_requires_closure():
    unary = Schema(functions={"f": 1})
    t = Structure(unary, [0, 1], functions={"f": {(0,): 0, (1,): 0}})
    # {1} is not closed under f (f(1) = 0), so restricting to it must fail.
    with pytest.raises(StructureError):
        t.restrict([1])
    assert t.generated_substructure([1]).domain == frozenset({0, 1})
    restricted = t.restrict([0, 1])
    assert restricted.domain == frozenset({0, 1})


def test_induced_substructure_relations():
    g = triangle()
    sub = g.restrict([0, 1])
    assert sub.relation("E") == frozenset({(0, 1)})
    assert sub.is_substructure_of(g)
    assert not g.is_substructure_of(sub)


def test_project_and_expand():
    g = triangle()
    projected = g.project(Schema.relational(E=2))
    assert not projected.schema.has_relation("red")
    expanded = projected.expand(GRAPH, relations={"red": {(1,)}})
    assert expanded.holds("red", 1)
    with pytest.raises(StructureError):
        g.project(Schema.relational(blue=1))


def test_rename_injective():
    g = triangle()
    renamed = g.rename({0: "a", 1: "b", 2: "c"})
    assert renamed.holds("E", "a", "b")
    with pytest.raises(StructureError):
        g.rename({0: 1})


def test_disjoint_union():
    g = triangle()
    union = g.disjoint_union(g)
    assert union.size == 6
    assert union.holds("E", (0, 0), (0, 1))
    assert union.holds("E", (1, 0), (1, 1))
    assert not union.holds("E", (0, 0), (1, 1))


def test_equality_and_hash():
    assert triangle() == triangle()
    assert hash(triangle()) == hash(triangle())
    assert triangle() != triangle().with_tuple("red", 2)


def test_empty_and_singleton():
    e = empty_structure(Schema.relational(E=2))
    assert e.size == 0
    s = singleton_structure(TREEISH, "x")
    assert s.apply("cca", "x", "x") == "x"


def test_describe_and_tuple_count():
    g = triangle()
    assert g.tuple_count() == 4
    text = g.describe()
    assert "E" in text and "red" in text


# -- canonicalisation / interning layer ----------------------------------------


def test_canonical_key_is_content_canonical():
    a = Structure(GRAPH, [0, 1], relations={"E": [(0, 1), (1, 0)], "red": [(0,)]})
    b = Structure(GRAPH, [1, 0], relations={"E": [(1, 0), (0, 1)], "red": [(0,)]})
    assert a.canonical_key() == b.canonical_key()
    c = a.with_tuple("red", 1)
    assert a.canonical_key() != c.canonical_key()


def test_tuples_touching_index_matches_relations():
    g = triangle()
    facts = set(g.tuples_touching(0))
    assert facts == {("E", (0, 1)), ("E", (2, 0)), ("red", (0,))}
    assert g.tuples_touching("not-an-element") == ()


def test_closure_memo_returns_same_result():
    s = singleton_structure(TREEISH, "x")
    first = s.closure(["x"])
    second = s.closure(["x"])
    assert first == second == frozenset({"x"})


def test_isomorphism_key_identifies_isomorphic_structures():
    from repro.logic.structures import isomorphism_key

    a = Structure(GRAPH, [0, 1, 2], relations={"E": [(0, 1), (1, 2)], "red": [(0,)]})
    b = Structure(
        GRAPH, ["p", "q", "r"], relations={"E": [("q", "r"), ("r", "p")], "red": [("q",)]}
    )
    assert isomorphism_key(a) == isomorphism_key(b)
    # Breaking the isomorphism (recolouring) must change the key.
    c = Structure(GRAPH, [0, 1, 2], relations={"E": [(0, 1), (1, 2)], "red": [(1,)]})
    assert isomorphism_key(a) != isomorphism_key(c)
    # Beyond the size cap the key falls back to the labelled regime.
    big = Structure(GRAPH, range(10), relations={"E": [(i, i + 1) for i in range(9)]})
    assert isomorphism_key(big, max_size=4)[0] == "labelled"
