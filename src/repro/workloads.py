"""Seeded random workloads for the batch verification service.

Batches of heterogeneous :class:`~repro.service.jobs.VerificationJob`\\ s are
generated from a single integer seed: random register automata with random
quantifier-free guards over the graph / colored-graph schemas, random HOM
templates, random NFAs lifted through :class:`~repro.words.WordRunTheory`,
tree-language jobs over :class:`~repro.trees.TreeRunTheory`, and data-value
products.  Generation is fully deterministic in ``(seed, count, families)``
-- the same call produces jobs with identical fingerprints in every process,
which is what lets the CI smoke step rerun a batch and assert warm-cache
hits.

Instances are deliberately small (1-2 registers, 2-4 control states): the
point of a batch is many heterogeneous decision problems, not a single hard
one, and the engine's abstract space grows steeply with register count.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datavalues import DataValuedTheory, NaturalsWithEquality
from repro.fraisse.base import DatabaseTheory
from repro.fraisse.search import STRATEGY_NAMES
from repro.library import (
    clique_system,
    odd_red_cycle_system,
    order_workflow_system,
    triangle_system,
)
from repro.logic.schema import Schema
from repro.logic.structures import Structure
from repro.relational import (
    COLORED_GRAPH_SCHEMA,
    GRAPH_SCHEMA,
    AllDatabasesTheory,
    HomTheory,
    clique_template,
)
from repro.service.jobs import VerificationJob
from repro.systems.dds import DatabaseDrivenSystem, new, old
from repro.trees import TreeRunTheory, root_label_automaton, tree_schema, universal_automaton
from repro.words import NFA, WordRunTheory, word_schema

#: Families the generator can mix, in round-robin order.
FAMILIES: Tuple[str, ...] = ("relational", "hom", "word", "tree", "data")

#: Adversarial families targeting known engine hot spots (ROADMAP): deep
#: HOM guard templates stress the per-transition guard pipeline, wide tree
#: branching stresses the skeleton placement enumeration.  Not part of the
#: default mix -- select them explicitly (``repro batch --families ...``) or
#: run the benchmark stress phase.
STRESS_FAMILIES: Tuple[str, ...] = ("hom_deep", "tree_wide")

#: Engine caps per family; tree exploration is the priciest per configuration.
_FAMILY_CAPS: Dict[str, int] = {
    "relational": 20_000,
    "hom": 20_000,
    "word": 10_000,
    "tree": 2_000,
    "data": 10_000,
    "hom_deep": 20_000,
    "tree_wide": 25,
}


# -- random guards -------------------------------------------------------------


def _guard_variables(registers: Sequence[str]) -> List[str]:
    names: List[str] = []
    for register in registers:
        names.append(old(register))
        names.append(new(register))
    return names


def _random_guard(
    rng: random.Random,
    registers: Sequence[str],
    binary_relations: Sequence[str],
    unary_relations: Sequence[str],
    atom_count: Optional[int] = None,
) -> str:
    """A random conjunction of relation / (in)equality atoms over the registers."""
    variables = _guard_variables(registers)
    atoms: List[str] = []
    for _ in range(atom_count if atom_count is not None else rng.randint(1, 3)):
        roll = rng.random()
        if binary_relations and roll < 0.45:
            relation = rng.choice(list(binary_relations))
            atoms.append(f"{relation}({rng.choice(variables)}, {rng.choice(variables)})")
        elif unary_relations and roll < 0.65:
            relation = rng.choice(list(unary_relations))
            atoms.append(f"{relation}({rng.choice(variables)})")
        elif roll < 0.85:
            atoms.append(f"{rng.choice(variables)} = {rng.choice(variables)}")
        else:
            atoms.append(f"!({rng.choice(variables)} = {rng.choice(variables)})")
    return " & ".join(atoms)


def _random_system(
    rng: random.Random,
    schema: Schema,
    binary_relations: Sequence[str],
    unary_relations: Sequence[str],
    max_registers: int = 2,
) -> DatabaseDrivenSystem:
    """A random chain-shaped register automaton with random guards.

    The control graph is a forward chain with an optional extra skip or back
    edge, so every instance has an accepting state that is plausibly (but not
    always) reachable -- batches get a healthy mix of nonempty and empty
    verdicts.
    """
    registers = [f"r{i}" for i in range(rng.randint(1, max_registers))]
    state_count = rng.randint(2, 4)
    states = [f"s{i}" for i in range(state_count)]

    def guard() -> str:
        return _random_guard(rng, registers, binary_relations, unary_relations)

    transitions: List[Tuple[str, str, str]] = [
        (states[i], guard(), states[i + 1]) for i in range(state_count - 1)
    ]
    if state_count > 2 and rng.random() < 0.5:
        source, target = rng.sample(states, 2)
        transitions.append((source, guard(), target))
    return DatabaseDrivenSystem.build(
        schema=schema,
        registers=registers,
        states=states,
        initial=states[0],
        accepting=states[-1],
        transitions=transitions,
    )


# -- theories ------------------------------------------------------------------


def _random_hom_template(rng: random.Random, size: Optional[int] = None) -> Structure:
    """A random directed graph template on 2-3 vertices (loops allowed)."""
    if size is None:
        size = rng.randint(2, 3)
    domain = list(range(size))
    edges = {
        (i, j)
        for i, j in itertools.product(domain, repeat=2)
        if (rng.random() < 0.3 if i == j else rng.random() < 0.55)
    }
    return Structure(GRAPH_SCHEMA, domain, relations={"E": edges})


_FALLBACK_NFA_SPEC = (
    ["p", "q"],
    ["a", "b"],
    [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")],
    ["p"],
    ["q"],
)


def _random_nfa(rng: random.Random) -> NFA:
    """A random small NFA with a provably nonempty language.

    Empty languages trim the position automaton to nothing, which makes the
    job trivially empty and wastes a batch slot; five attempts then a fixed
    fallback keeps generation total and deterministic.
    """
    for _ in range(5):
        states = [f"q{i}" for i in range(rng.randint(2, 3))]
        alphabet = ["a", "b"]
        transitions = [
            (p, letter, rng.choice(states))
            for p in states
            for letter in alphabet
            if rng.random() < 0.6
        ]
        accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
        nfa = NFA.make(states, alphabet, transitions, [states[0]], accepting)
        if any(True for _ in nfa.language_sample(4)):
            return nfa
    return NFA.make(*_FALLBACK_NFA_SPEC)


# -- per-family job builders ----------------------------------------------------


def _relational_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    colored = rng.random() < 0.5
    schema = COLORED_GRAPH_SCHEMA if colored else GRAPH_SCHEMA
    system = _random_system(rng, schema, ["E"], ["red"] if colored else [])
    return system, AllDatabasesTheory(schema)


def _hom_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    system = _random_system(rng, GRAPH_SCHEMA, ["E"], [])
    return system, HomTheory(_random_hom_template(rng))


def _word_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    theory = WordRunTheory(_random_nfa(rng))
    schema = word_schema(["a", "b"])
    system = _random_system(rng, schema, ["before"], ["label_a", "label_b"], max_registers=1)
    return system, theory


def _tree_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    labels = ["a", "b"]
    automaton = (
        universal_automaton(labels)
        if rng.random() < 0.5
        else root_label_automaton(rng.choice(labels), labels)
    )
    # Guards stay on the relational part of TreeSchema (anc/doc/labels); the
    # cca function symbol needs no mention to exercise the theory.
    system = _random_system(
        rng,
        tree_schema(labels),
        ["anc", "doc"],
        ["label_a", "label_b"],
        max_registers=1,
    )
    return system, TreeRunTheory(automaton)


def _data_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    values = NaturalsWithEquality()
    theory = DataValuedTheory(AllDatabasesTheory(GRAPH_SCHEMA), values)
    schema = GRAPH_SCHEMA.extend(relations={values.relation_name: 2})
    system = _random_system(rng, schema, ["E", values.relation_name], [], max_registers=1)
    return system, theory


# -- adversarial families --------------------------------------------------------
#
# These target the engine hot spots called out on the ROADMAP.  ``hom_deep``
# pits the compiled transition plans against guards with many relation atoms
# over a three-element HOM lift: every register assignment instantiates a
# large set of guard-relevant tuples, so the factored subset enumeration and
# the selectivity-ordered evaluation both run at full tilt.  ``tree_wide``
# drives two registers over a wide-alphabet universal tree language, making
# the skeleton placement enumeration (every branch slot of every node) the
# dominating cost.


def _deep_guard(rng: random.Random, registers: Sequence[str], atoms: int) -> str:
    """A deep conjunction of edge atoms over all old/new register variables."""
    variables = _guard_variables(registers)
    parts: List[str] = []
    for index in range(atoms):
        a = rng.choice(variables)
        b = rng.choice(variables)
        if index % 4 == 3:
            parts.append(f"!({a} = {b})" if a != b else f"E({a}, {b})")
        else:
            parts.append(f"E({a}, {b})")
    return " & ".join(parts)


def _hom_deep_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    registers = ["r0", "r1"]
    states = [f"s{i}" for i in range(6)]
    transitions: List[Tuple[str, str, str]] = [
        (states[i], _deep_guard(rng, registers, rng.randint(6, 10)), states[i + 1])
        for i in range(len(states) - 1)
    ]
    # Back edges with more deep guards keep the abstract space cyclic.
    transitions.append((states[3], _deep_guard(rng, registers, 8), states[1]))
    transitions.append((states[4], _deep_guard(rng, registers, 8), states[2]))
    system = DatabaseDrivenSystem.build(
        schema=GRAPH_SCHEMA,
        registers=registers,
        states=states,
        initial=states[0],
        accepting=states[-1],
        transitions=transitions,
    )
    return system, HomTheory(_random_hom_template(rng, size=3))


def _tree_wide_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    labels = ["a", "b"]
    schema = tree_schema(labels)
    registers = ["r0", "r1"]
    states = ["t0", "t1", "t2"]
    guards = [
        "doc(r0_new, r1_new) & !(r0_new = r1_new)",
        f"label_{rng.choice(labels)}(r0_new) & doc(r0_old, r0_new) & doc(r1_old, r1_new)",
    ]
    system = DatabaseDrivenSystem.build(
        schema=schema,
        registers=registers,
        states=states,
        initial=states[0],
        accepting=states[-1],
        transitions=[(states[0], guards[0], states[1]), (states[1], guards[1], states[2])],
    )
    return system, TreeRunTheory(universal_automaton(labels))


_BUILDERS = {
    "relational": _relational_job,
    "hom": _hom_job,
    "word": _word_job,
    "tree": _tree_job,
    "data": _data_job,
    "hom_deep": _hom_deep_job,
    "tree_wide": _tree_wide_job,
}


def stress_workloads(seed: int = 2026) -> Dict[str, Dict[str, object]]:
    """Fixed representative instances of the adversarial families.

    Used by the benchmark runner's ``stress`` phase: one deterministic
    instance per family, with builders so every timing round constructs a
    fresh theory.
    """
    rng_hom = random.Random(seed)
    rng_tree = random.Random(seed + 1)
    hom_system, hom_theory = _hom_deep_job(rng_hom)
    tree_system, tree_theory = _tree_wide_job(rng_tree)
    hom_theory_spec = hom_theory.to_spec()
    tree_theory_spec = tree_theory.to_spec()
    from repro.service.specs import theory_from_spec

    return {
        "stress_hom_deep": {
            "description": "deep HOM guard templates (adversarial, 2 registers, "
            "6-10 edge atoms per guard, 3-element template)",
            "system": lambda: hom_system,
            "theory": lambda: theory_from_spec(hom_theory_spec),
            "max_configurations": _FAMILY_CAPS["hom_deep"],
            "smoke_max_configurations": _FAMILY_CAPS["hom_deep"],
        },
        "stress_tree_wide": {
            "description": "wide tree branching (adversarial, 2 registers over "
            "a 2-label universal tree language, capped exploration)",
            "system": lambda: tree_system,
            "theory": lambda: theory_from_spec(tree_theory_spec),
            "max_configurations": _FAMILY_CAPS["tree_wide"],
            "smoke_max_configurations": 8,
        },
    }


# -- heavy profile --------------------------------------------------------------
#
# The light profile produces millisecond-scale jobs: ideal for exercising the
# store and the wire format, useless for measuring parallel fan-out (pool
# overhead dominates).  Heavy jobs take the engine 0.1-1s each -- library
# systems whose abstract spaces are genuinely large, randomized through their
# HOM templates -- so a heavy batch is what the serial-vs-parallel benchmark
# runs on.


def _random_template(rng: random.Random, schema: Schema, size: int) -> Structure:
    """A random template over an arbitrary relational schema."""
    domain = list(range(size))
    relations = {}
    for name in schema.relation_names:
        arity = schema.relation(name).arity
        relations[name] = {
            t
            for t in itertools.product(domain, repeat=arity)
            if rng.random() < 0.55
        }
    return Structure(schema, domain, relations=relations)


def _heavy_triangle_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    # Template size is pinned to 2: three-colour templates push the HOM
    # enumeration for the 3-register triangle system past a minute per job.
    return triangle_system(), HomTheory(_random_template(rng, GRAPH_SCHEMA, 2))


def _heavy_clique_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    # Loops would make the clique system nonempty but multiply the abstract
    # space (~2 minutes under bfs); the loop-free K2 instance is the paper's
    # "no triangle in a bipartite graph" case and exhausts in ~1s.
    return clique_system(3), HomTheory(clique_template(2))


def _heavy_cycle_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    return (
        odd_red_cycle_system(),
        HomTheory(_random_template(rng, COLORED_GRAPH_SCHEMA, 2)),
    )


def _heavy_workflow_job(rng: random.Random) -> Tuple[DatabaseDrivenSystem, DatabaseTheory]:
    system = order_workflow_system()
    if rng.random() < 0.5:
        return system, AllDatabasesTheory(system.schema)
    return system, HomTheory(_random_template(rng, system.schema, 2))


_HEAVY_BUILDERS = (
    _heavy_triangle_job,
    _heavy_clique_job,
    _heavy_cycle_job,
    _heavy_workflow_job,
)


# -- public API ----------------------------------------------------------------


def generate_jobs(
    count: int,
    seed: int = 0,
    families: Sequence[str] = FAMILIES,
    max_configurations: Optional[int] = None,
    profile: str = "light",
) -> List[VerificationJob]:
    """Generate ``count`` seeded random verification jobs.

    Families are interleaved round-robin so every batch is heterogeneous;
    each job additionally draws a random search strategy (the verdict is
    strategy-independent, so this doubles as a determinism stressor).  Pass
    ``max_configurations`` to override the per-family engine caps.

    ``profile="light"`` (the default) yields small instances across all
    theories -- the traffic shape for store/warm-cache measurements;
    ``profile="heavy"`` yields fewer-family relational jobs taking the
    engine 0.1-1s each, the shape that makes parallel fan-out measurable.
    """
    if profile not in ("light", "heavy"):
        raise ValueError(f"unknown workload profile {profile!r}")
    unknown = set(families) - set(_BUILDERS)
    if unknown:
        raise ValueError(f"unknown workload families {sorted(unknown)}")
    if not families:
        raise ValueError("at least one workload family is required")
    rng = random.Random(seed)
    jobs: List[VerificationJob] = []
    for index in range(count):
        if profile == "heavy":
            builder = _HEAVY_BUILDERS[index % len(_HEAVY_BUILDERS)]
            family = builder.__name__.replace("_heavy_", "heavy-").replace("_job", "")
            system, theory = builder(rng)
            cap = max_configurations if max_configurations is not None else 50_000
        else:
            family = families[index % len(families)]
            system, theory = _BUILDERS[family](rng)
            cap = max_configurations if max_configurations is not None else _FAMILY_CAPS[family]
        jobs.append(
            VerificationJob(
                system=system,
                theory=theory,
                strategy=rng.choice(STRATEGY_NAMES),
                max_configurations=cap,
                label=f"{family}-{index:04d}",
            )
        )
    return jobs
