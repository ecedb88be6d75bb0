"""Tests for homogeneous structures and the data-value products (Section 4.4)."""

import pytest
from fractions import Fraction

from repro.datavalues import (
    NATURALS_WITH_EQUALITY,
    NATURALS_WITH_ORDER,
    RATIONALS_WITH_ORDER,
    DataValuedTheory,
    NaturalsWithEquality,
    RationalsWithOrder,
    with_data_values,
)
from repro.errors import TheoryError
from repro.fraisse.engine import EmptinessSolver
from repro.logic.schema import Schema
from repro.logic.structures import Structure
from repro.relational import AllDatabasesTheory, HomTheory, clique_template
from repro.relational.csp import GRAPH_SCHEMA
from repro.systems.dds import DatabaseDrivenSystem


def test_equality_structure_basics():
    sim = NATURALS_WITH_EQUALITY
    assert sim.holds("sim", 3, 3)
    assert not sim.holds("sim", 3, 4)
    assert not sim.holds("other", 3, 3)
    choices = list(sim.fresh_value_choices([0, 0, 2], injective=False))
    assert 0 in choices and 2 in choices
    assert any(c not in (0, 2) for c in choices)
    injective_choices = list(sim.fresh_value_choices([0, 1], injective=True))
    assert all(c not in (0, 1) for c in injective_choices)


def test_order_structure_basics():
    lt = RATIONALS_WITH_ORDER
    assert lt.holds("lt", 1, 2)
    assert not lt.holds("lt", 2, 1)
    assert not lt.holds("lt", 2, 2)
    choices = list(lt.fresh_value_choices([Fraction(0), Fraction(1)], injective=True))
    # below, between, above
    assert any(c < 0 for c in choices)
    assert any(0 < c < 1 for c in choices)
    assert any(c > 1 for c in choices)
    non_injective = list(lt.fresh_value_choices([Fraction(0)], injective=False))
    assert Fraction(0) in non_injective


def test_embedding_tests_into_homogeneous_structures():
    sim_schema = NATURALS_WITH_EQUALITY.schema
    diagonal = Structure(
        sim_schema, [0, 1], relations={"sim": {(0, 0), (1, 1)}}
    )
    assert NATURALS_WITH_EQUALITY.embeds(diagonal)
    bad = Structure(sim_schema, [0, 1], relations={"sim": {(0, 0), (1, 1), (0, 1)}})
    assert not NATURALS_WITH_EQUALITY.embeds(bad)

    lt_schema = RATIONALS_WITH_ORDER.schema
    chain = Structure(lt_schema, [0, 1, 2], relations={"lt": {(0, 1), (1, 2), (0, 2)}})
    assert RATIONALS_WITH_ORDER.embeds(chain)
    cyclic = Structure(lt_schema, [0, 1], relations={"lt": {(0, 1), (1, 0)}})
    assert not RATIONALS_WITH_ORDER.embeds(cyclic)


def test_naturals_with_order_reuses_dense_choices():
    assert NATURALS_WITH_ORDER.schema == RATIONALS_WITH_ORDER.schema
    assert "naturals" in NATURALS_WITH_ORDER.name


def test_product_schema_and_clash_detection():
    theory = with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY)
    assert theory.schema.has_relation("E")
    assert theory.schema.has_relation("sim")
    with pytest.raises(TheoryError):
        with_data_values(
            AllDatabasesTheory(Schema.relational(sim=2)), NATURALS_WITH_EQUALITY
        )


def test_blowup_preserved_proposition1():
    base = AllDatabasesTheory(GRAPH_SCHEMA)
    product = with_data_values(base, NATURALS_WITH_EQUALITY)
    for n in range(1, 6):
        assert product.blowup(n) == base.blowup(n)


def _same_value_system(schema):
    return DatabaseDrivenSystem.build(
        schema=schema,
        registers=["x", "y"],
        states=["a", "b", "c"],
        initial="a",
        accepting="c",
        transitions=[
            ("a", "x_old = x_new & y_old = y_new & E(x_new, y_new)", "b"),
            ("b", "x_old = x_new & y_old = y_new & sim(x_old, y_old) & !(x_old = y_old)", "c"),
        ],
    )


def test_tensor_product_allows_shared_values():
    schema = GRAPH_SCHEMA.union(NATURALS_WITH_EQUALITY.schema)
    system = _same_value_system(schema)
    theory = with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY)
    result = EmptinessSolver(theory).check(system)
    assert result.nonempty
    system.validate_run(result.run)
    # The witness database carries the sim relation and two distinct nodes share a value.
    assert any(a != b for a, b in result.run.database.relation("sim"))


def test_memo_counts_add_the_wrapped_theorys_tables():
    # The product memoises its rendered databases; the base theory it wraps
    # holds the compiled guards (one per transition here).
    schema = GRAPH_SCHEMA.union(NATURALS_WITH_EQUALITY.schema)
    system = _same_value_system(schema)
    theory = with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY)
    EmptinessSolver(theory).check(system)
    counts = theory.memo_counts()
    assert counts.keys() == {"engine_transition_plans", "datavalues_database"}
    assert counts["engine_transition_plans"] == {"hits": 0, "misses": 2, "evictions": 0}
    assert counts["datavalues_database"]["hits"] > 0


def test_odot_product_forbids_shared_values_example6():
    schema = GRAPH_SCHEMA.union(NATURALS_WITH_EQUALITY.schema)
    system = _same_value_system(schema)
    theory = with_data_values(
        AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY, injective=True
    )
    result = EmptinessSolver(theory).check(system)
    assert result.empty and result.exhausted


def test_order_comparisons_corollary8_style():
    schema = GRAPH_SCHEMA.union(RATIONALS_WITH_ORDER.schema)
    increasing = DatabaseDrivenSystem.build(
        schema=schema, registers=["x", "y"], states=["a", "b", "c"],
        initial="a", accepting="c",
        transitions=[
            ("a", "x_old = x_new & y_old = y_new & lt(x_new, y_new)", "b"),
            ("b", "x_new = y_old & lt(y_old, y_new)", "c"),
        ],
    )
    impossible = DatabaseDrivenSystem.build(
        schema=schema, registers=["x", "y"], states=["a", "b"],
        initial="a", accepting="b",
        transitions=[("a", "lt(x_new, y_new) & lt(y_new, x_new)", "b")],
    )
    theory = with_data_values(
        AllDatabasesTheory(GRAPH_SCHEMA), RATIONALS_WITH_ORDER, injective=True
    )
    assert EmptinessSolver(theory).check(increasing).nonempty
    assert EmptinessSolver(theory).check(impossible).empty


def test_hom_with_data_values():
    """Corollary 8: HOM(H) combined with a data-value structure."""
    schema = GRAPH_SCHEMA.union(NATURALS_WITH_EQUALITY.schema)
    # Two adjacent nodes with equal values and a triangle requirement: the
    # triangle is impossible over the bipartite template regardless of values.
    system = DatabaseDrivenSystem.build(
        schema=schema, registers=["x", "y", "z"], states=["a", "b"],
        initial="a", accepting="b",
        transitions=[(
            "a",
            "E(x_new, y_new) & E(y_new, z_new) & E(z_new, x_new) & sim(x_new, y_new)",
            "b",
        )],
    )
    empty_theory = with_data_values(HomTheory(clique_template(2)), NATURALS_WITH_EQUALITY)
    nonempty_theory = with_data_values(HomTheory(clique_template(3)), NATURALS_WITH_EQUALITY)
    assert EmptinessSolver(empty_theory).check(system).empty
    assert EmptinessSolver(nonempty_theory).check(system).nonempty


def test_product_membership_checks_both_components():
    base = HomTheory(clique_template(2))
    theory = with_data_values(base, NATURALS_WITH_EQUALITY)
    schema = theory.schema
    good = Structure(
        schema, [0, 1],
        relations={"E": {(0, 1)}, "sim": {(0, 0), (1, 1)}},
    )
    triangle = Structure(
        schema, [0, 1, 2],
        relations={"E": {(0, 1), (1, 2), (2, 0)}, "sim": {(0, 0), (1, 1), (2, 2)}},
    )
    bad_values = Structure(
        schema, [0, 1],
        relations={"E": {(0, 1)}, "sim": {(0, 0)}},
    )
    assert theory.membership(good)
    assert not theory.membership(triangle)       # base part fails (odd cycle)
    assert not theory.membership(bad_values)     # sim is not reflexive on 1


def test_describe_mentions_product_kind():
    tensor = with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY)
    odot = with_data_values(AllDatabasesTheory(GRAPH_SCHEMA), NATURALS_WITH_EQUALITY, True)
    assert "⊗" in tensor.describe()
    assert "⊙" in odot.describe()
