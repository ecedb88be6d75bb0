"""Tree run databases with pointer functions, and the Lemma 23 conditions.

A *pre-run* is a tree whose nodes carry states of a tree automaton (with the
matching labels).  Its run database extends ``Treedb`` with

* a unary predicate per state,
* ``leftmost_q(x)`` / ``rightmost_q(x)``: the left-most / right-most child of
  ``x`` with state ``q``, defined only when ``x`` is *component maximal* (no
  child shares its descendant component), else ``x`` itself,
* ``ancestormost_Γ(x)``: the highest node on the path from ``x`` to the root
  whose state lies in the descendant component Γ, else ``x``,
* ``descendantmost(x)``: for a node whose state lies in a *linear* descendant
  component, the unique lowest descendant in the same component, else ``x``.

The class ``C`` of Section 5.4 is the substructure closure of the run
databases of actual runs; Lemma 23 characterises the pre-runs whose run
database lies in ``C`` through the local condition (*), which
:func:`satisfies_local_condition` implements.  These constructions are used
by the amalgamation / characterisation tests; the decision procedure itself
(:mod:`repro.trees.theory`) works with contracted skeletons.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.logic.schema import Schema
from repro.logic.structures import Structure
from repro.trees.automata import TreeAutomaton
from repro.trees.tree import Tree
from repro.trees.treedb import CCA, treedb

STATE_PREFIX = "state_"
LEFTMOST_PREFIX = "leftmost_"
RIGHTMOST_PREFIX = "rightmost_"
ANCESTORMOST_PREFIX = "ancestormost_"
DESCENDANTMOST = "descendantmost"

AnnotatedTree = Tuple[Tree, Dict[Tuple[int, ...], str]]
"""A pre-run: a tree together with a mapping from node paths to states."""


def run_schema(automaton: TreeAutomaton) -> Schema:
    """The extended schema of tree run databases."""
    analysis = automaton.analysis()
    base = treedb(Tree.leaf(automaton.alphabet[0]), automaton.alphabet).schema
    relations = {name: base.relation(name).arity for name in base.relation_names}
    for state in sorted(automaton.states):
        relations[f"{STATE_PREFIX}{state}"] = 1
    functions = {CCA: 2, DESCENDANTMOST: 1}
    for state in sorted(automaton.states):
        functions[f"{LEFTMOST_PREFIX}{state}"] = 1
        functions[f"{RIGHTMOST_PREFIX}{state}"] = 1
    for index in range(len(analysis.descendant_components)):
        functions[f"{ANCESTORMOST_PREFIX}{index}"] = 1
    return Schema(relations=relations, functions=functions)


def rundb(automaton: TreeAutomaton, pre_run: AnnotatedTree) -> Structure:
    """``Rundb(pi)`` for a pre-run ``pi``: the tree database plus states and pointers."""
    tree, states = pre_run
    analysis = automaton.analysis()
    base = treedb(tree, automaton.alphabet)
    paths = [path for _, path in tree.preorder()]
    index_of = {path: i for i, path in enumerate(paths)}
    component_of = analysis.descendant_component_of

    def state_of(path: Tuple[int, ...]) -> str:
        return states[path]

    def children_of(path: Tuple[int, ...]) -> Sequence[Tuple[int, ...]]:
        subtree = tree.subtree(path)
        return [path + (i,) for i in range(len(subtree.children))]

    def component_maximal(path: Tuple[int, ...]) -> bool:
        own = component_of.get(state_of(path))
        return all(component_of.get(state_of(child)) != own for child in children_of(path))

    relations: Dict[str, set] = {}
    for state in sorted(automaton.states):
        relations[f"{STATE_PREFIX}{state}"] = set()
    for path in paths:
        relations[f"{STATE_PREFIX}{state_of(path)}"].add((index_of[path],))

    functions: Dict[str, Dict[Tuple[int, ...], int]] = {}
    # leftmost_q / rightmost_q: children pointers of component-maximal nodes.
    for state in sorted(automaton.states):
        left_table: Dict[Tuple[int, ...], int] = {}
        right_table: Dict[Tuple[int, ...], int] = {}
        for path in paths:
            identifier = index_of[path]
            matching = [child for child in children_of(path) if state_of(child) == state]
            if component_maximal(path) and matching:
                left_table[(identifier,)] = index_of[matching[0]]
                right_table[(identifier,)] = index_of[matching[-1]]
            else:
                left_table[(identifier,)] = identifier
                right_table[(identifier,)] = identifier
        functions[f"{LEFTMOST_PREFIX}{state}"] = left_table
        functions[f"{RIGHTMOST_PREFIX}{state}"] = right_table

    # ancestormost_Γ: highest ancestor-or-self in component Γ on the path to the root.
    for index in range(len(analysis.descendant_components)):
        table: Dict[Tuple[int, ...], int] = {}
        for path in paths:
            identifier = index_of[path]
            best: Optional[Tuple[int, ...]] = None
            for depth in range(len(path) + 1):
                ancestor = path[:depth]
                if component_of.get(state_of(ancestor)) == index:
                    best = ancestor
                    break
            table[(identifier,)] = index_of[best] if best is not None else identifier
        functions[f"{ANCESTORMOST_PREFIX}{index}"] = table

    # descendantmost: for linear components, the unique lowest same-component descendant.
    table: Dict[Tuple[int, ...], int] = {}
    for path in paths:
        identifier = index_of[path]
        own = component_of.get(state_of(path))
        if own is None or own in analysis.branching_components:
            table[(identifier,)] = identifier
            continue
        current = path
        while True:
            same = [
                child for child in children_of(current) if component_of.get(state_of(child)) == own
            ]
            if not same:
                break
            current = same[0]
        table[(identifier,)] = index_of[current]
    functions[DESCENDANTMOST] = table

    schema = run_schema(automaton)
    merged_relations = {name: set(base.relation(name)) for name in base.schema.relation_names}
    merged_relations.update(relations)
    merged_functions = {CCA: dict(base.function(CCA))}
    merged_functions.update(functions)
    return Structure(
        schema,
        base.domain,
        relations=merged_relations,
        functions=merged_functions,
        validate=False,
    )


def satisfies_local_condition(automaton: TreeAutomaton, pre_run: AnnotatedTree) -> bool:
    """Lemma 23's condition (*): does the pre-run's database belong to C?

    The root must carry a root state and every node must satisfy the local
    condition relating its state to the states of its children (leaf states at
    leaves; chain through ``leftmost``/``->h`` at component-maximal nodes;
    left(Γ)/Γ/right(Γ) split below linear components; ``->v`` below branching
    components).
    """
    tree, states = pre_run
    analysis = automaton.analysis()
    component_of = analysis.descendant_component_of

    if states[()] not in automaton.root_states:
        return False

    for _, path in tree.preorder():
        state = states[path]
        subtree = tree.subtree(path)
        children = [path + (i,) for i in range(len(subtree.children))]
        child_states = [states[c] for c in children]
        if not children:
            if state not in automaton.leaf_states:
                return False
            continue
        own_component = component_of.get(state)
        maximal = all(component_of.get(s) != own_component for s in child_states)
        if maximal:
            # x ->leftmost x1 ->h+ x2 ->h+ ... ->h+ xn and xn completable right.
            first = child_states[0]
            if first not in analysis.can_first.get(state, set()):
                return False
            for left, right in zip(child_states, child_states[1:]):
                if right not in analysis.sib_reach_plus.get(left, set()):
                    return False
            if not analysis.sib_reach_star_of(child_states[-1]) & automaton.rightmost_states:
                return False
        elif own_component is not None and own_component not in analysis.branching_components:
            # Linear component: left(Γ)* Γ right(Γ)* split.
            in_component = [
                i for i, s in enumerate(child_states) if component_of.get(s) == own_component
            ]
            if len(in_component) != 1:
                return False
            pivot = in_component[0]
            left_set = analysis.left_of_component[own_component]
            right_set = analysis.right_of_component[own_component]
            if any(s not in left_set for s in child_states[:pivot]):
                return False
            if any(s not in right_set for s in child_states[pivot + 1:]):
                return False
        else:
            # Branching component: every child state is ->v below the node's state.
            for child_state in child_states:
                if not analysis.proper_descendant(child_state, state):
                    return False
    return True


def run_of_tree(automaton: TreeAutomaton, tree: Tree) -> Optional[AnnotatedTree]:
    """An accepting pre-run of a tree, or ``None`` when the tree is rejected."""
    run = automaton.find_run(tree)
    if run is None:
        return None
    return tree, run
