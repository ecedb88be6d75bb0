"""Emptiness of database-driven systems over regular tree languages (Theorem 3).

:class:`TreeRunTheory` plugs a regular tree language (given by a
:class:`~repro.trees.automata.TreeAutomaton`) into the generic engine.  Its
witnesses are *skeletons*: cca-closed patterns of virtual nodes, each carrying
a state of the (trimmed) automaton, arranged in a contracted tree shape --
skeleton edges stand for ancestor/descendant relationships that may be
realised by arbitrarily long paths in the eventual tree, and the order of a
node's skeleton children is their document order.

A skeleton is kept *completable* at every step:

* vertical condition -- along every skeleton edge the child's state is a
  ``->v``-descendant state of the parent's state;
* horizontal condition -- at every skeleton node there is a choice of real
  child states, one per skeleton child, that embeds (in document order) into
  a valid children sequence of the node's state.

These conditions are necessary and sufficient for the skeleton to embed into
``Rundb(rho)`` of some accepting run ``rho``, which is the concrete content
of the class C of Section 5.4 restricted to the structure a quantifier-free
guard can observe.  Soundness of the overall procedure never relies on the
abstraction: :meth:`finalize` expands the final skeleton into an actual
accepted tree on which the engine replays the run.  The abstraction key used
for memoisation is the register-generated (cca-closed) sub-skeleton; it is a
projection of the paper's pointer-function abstraction (Section 5.4), which
the test-suite cross-validates against brute-force enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import TheoryError
from repro.fraisse.base import (
    CandidateDelta,
    DatabaseTheory,
    TheoryConfiguration,
    generic_abstraction_key,
    set_partitions,
)
from repro.fraisse.plans import DeltaContext
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure
from repro.logic.threevalued import UNKNOWN
from repro.perf import BoundedCache
from repro.systems.dds import DatabaseDrivenSystem, Transition
from repro.trees.automata import AutomatonAnalysis, TreeAutomaton
from repro.trees.tree import Tree
from repro.trees.treedb import (
    ANCESTOR,
    CCA,
    DOCUMENT_ORDER,
    label_predicate,
    node_index_by_path,
    tree_schema,
    treedb,
)

STATE_PREFIX = "skstate_"


@dataclass(frozen=True)
class Skeleton:
    """A cca-closed, state-annotated contracted tree pattern."""

    states: Tuple[Tuple[int, str], ...]
    """(node id, automaton state) pairs."""
    parents: Tuple[Tuple[int, Optional[int]], ...]
    """(node id, skeleton parent id or None for the skeleton root)."""
    children: Tuple[Tuple[int, Tuple[int, ...]], ...]
    """(node id, ordered skeleton children) -- order is document order."""

    def __hash__(self) -> int:
        # Skeletons key the placement memo and the placement walk's seen
        # sets; the generated dataclass hash walks all three field tuples on
        # every lookup, so cache it (skeletons are immutable).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.states, self.parents, self.children))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- views (cached: skeletons are immutable) ---------------------------------------

    @property
    def state_of(self) -> Dict[int, str]:
        cached = self.__dict__.get("_state_of")
        if cached is None:
            cached = dict(self.states)
            object.__setattr__(self, "_state_of", cached)
        return cached

    @property
    def parent_of(self) -> Dict[int, Optional[int]]:
        cached = self.__dict__.get("_parent_of")
        if cached is None:
            cached = dict(self.parents)
            object.__setattr__(self, "_parent_of", cached)
        return cached

    @property
    def children_of(self) -> Dict[int, Tuple[int, ...]]:
        cached = self.__dict__.get("_children_of")
        if cached is None:
            cached = dict(self.children)
            object.__setattr__(self, "_children_of", cached)
        return cached

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(n for n, _ in self.states))

    @property
    def root(self) -> int:
        for node, parent in self.parents:
            if parent is None:
                return node
        raise TheoryError("skeleton has no root")

    def next_id(self) -> int:
        return max((n for n, _ in self.states), default=-1) + 1

    # -- relations ----------------------------------------------------------------------

    def ancestors_or_self(self, node: int) -> List[int]:
        parent_of = self.parent_of
        chain = [node]
        while parent_of[chain[-1]] is not None:
            chain.append(parent_of[chain[-1]])
        return chain

    def is_ancestor(self, above: int, below: int) -> bool:
        return above in self.ancestors_or_self(below)

    def cca(self, a: int, b: int) -> int:
        ancestors_a = self.ancestors_or_self(a)
        ancestors_b = set(self.ancestors_or_self(b))
        for node in ancestors_a:
            if node in ancestors_b:
                return node
        raise TheoryError("skeleton is not connected")  # pragma: no cover

    def branch_towards(self, ancestor: int, descendant: int) -> int:
        """The skeleton child of ``ancestor`` on the path to ``descendant``."""
        parent_of = self.parent_of
        current = descendant
        while parent_of[current] != ancestor:
            current = parent_of[current]
            if current is None:  # pragma: no cover - callers guarantee ancestry
                raise TheoryError("not an ancestor")
        return current

    def document_before(self, a: int, b: int) -> bool:
        """Strict document order between two distinct skeleton nodes."""
        if a == b:
            return False
        if self.is_ancestor(a, b):
            return True
        if self.is_ancestor(b, a):
            return False
        meet = self.cca(a, b)
        children = self.children_of[meet]
        branch_a = self.branch_towards(meet, a)
        branch_b = self.branch_towards(meet, b)
        return children.index(branch_a) < children.index(branch_b)

    # -- functional updates -----------------------------------------------------------------

    @classmethod
    def single(cls, state: str) -> "Skeleton":
        return cls(
            states=((0, state),),
            parents=((0, None),),
            children=((0, ()),),
        )

    def _replace(self, states, parents, children) -> "Skeleton":
        """Build the updated skeleton from the working dictionaries.

        The working dictionaries are copies of the cached views (whose
        insertion order is the sorted field order) updated either in place or
        by appending a fresh id larger than every existing one, so their
        iteration order is already the canonical sorted order -- no re-sort
        needed on this hot construction path.
        """
        return Skeleton(
            states=tuple(states.items()),
            parents=tuple(parents.items()),
            children=tuple((k, tuple(v)) for k, v in children.items()),
        )

    def with_root_above(self, new_id: int, state: str) -> "Skeleton":
        states = dict(self.state_of)
        parents = dict(self.parent_of)
        children = {k: list(v) for k, v in self.children_of.items()}
        old_root = self.root
        states[new_id] = state
        parents[new_id] = None
        parents[old_root] = new_id
        children[new_id] = [old_root]
        return self._replace(states, parents, children)

    def with_node_on_edge(self, new_id: int, state: str, child: int) -> "Skeleton":
        """Insert a node between ``child`` and its skeleton parent."""
        states = dict(self.state_of)
        parents = dict(self.parent_of)
        children = {k: list(v) for k, v in self.children_of.items()}
        parent = parents[child]
        if parent is None:
            raise TheoryError("use with_root_above to insert above the root")
        states[new_id] = state
        parents[new_id] = parent
        parents[child] = new_id
        siblings = children[parent]
        siblings[siblings.index(child)] = new_id
        children[new_id] = [child]
        return self._replace(states, parents, children)

    def with_branch(self, new_id: int, state: str, under: int, slot: int) -> "Skeleton":
        """Add a new leaf branch under ``under`` at child position ``slot``."""
        states = dict(self.state_of)
        parents = dict(self.parent_of)
        children = {k: list(v) for k, v in self.children_of.items()}
        states[new_id] = state
        parents[new_id] = under
        children[under].insert(slot, new_id)
        children[new_id] = []
        return self._replace(states, parents, children)


class TreeRunTheory(DatabaseTheory):
    """Treedb(L) for the regular tree language of a tree automaton."""

    def __init__(self, automaton: TreeAutomaton) -> None:
        self._automaton = automaton
        self._analysis = automaton.analysis()
        if not self._analysis.trimmed_states:
            # The language is empty; seeds will simply be empty.
            pass
        self._schema = tree_schema(automaton.alphabet)
        key_relations = {STATE_PREFIX + q: 1 for q in sorted(automaton.states)}
        self._key_schema = self._schema.extend(relations=key_relations)
        self._anchor_cache: Dict[Tuple[str, Tuple[str, ...]], Optional[List[str]]] = {}
        self._up_cache: Dict[str, Set[str]] = {}
        # Node placement only depends on the (immutable) skeleton and the
        # number of fresh nodes, yet the successor enumeration asks for it
        # once per register-target combination (see repro.perf).
        self._placement_cache = BoundedCache("trees_placements", cap=1 << 12)

    # -- accessors -----------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def automaton(self) -> TreeAutomaton:
        return self._automaton

    # -- serialization -------------------------------------------------------------

    SPEC_KIND = "tree_run"

    def to_spec(self) -> Dict[str, object]:
        return {"kind": self.SPEC_KIND, "automaton": self._automaton.to_spec()}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "TreeRunTheory":
        return cls(TreeAutomaton.from_spec(spec["automaton"]))

    @property
    def analysis(self) -> AutomatonAnalysis:
        return self._analysis

    def blowup(self, n: int) -> int:
        # Lemma 14: blowup is linear with a constant exponential in the state space.
        return n * max(1, 2 ** min(len(self._automaton.states), 20))

    def membership(self, database: Structure) -> bool:
        raise NotImplementedError(
            "use TreeAutomaton.accepts on concrete trees; arbitrary TreeSchema "
            "databases are not decoded back into trees"
        )

    # -- completability ------------------------------------------------------------------------

    def _up_states(self, state: str) -> Set[str]:
        """States that can appear (weakly) above ``state`` on a vertical path."""
        if state not in self._up_cache:
            self._up_cache[state] = {
                s
                for s in self._analysis.trimmed_states
                if self._analysis.descendant_or_equal(state, s)
            }
        return self._up_cache[state]

    def skeleton_completable(self, skeleton: Skeleton) -> bool:
        """The vertical + horizontal conditions at every skeleton node.

        The whole-skeleton check that :meth:`_single_placements`' local
        check stands in for; the tests compare the two.
        """
        for node in skeleton.children_of:
            if not self._node_completable(skeleton, node):
                return False
        return True

    def _node_completable(self, skeleton: Skeleton, node: int) -> bool:
        """The vertical + horizontal conditions at one skeleton node.

        Every placement move touches at most two nodes (the fresh node and
        the node whose child list changed), so candidates grown from a
        completable skeleton only need this local check at the touched nodes,
        which is all :meth:`_single_placements` checks.
        """
        analysis = self._analysis
        state_of = skeleton.state_of
        parent_state = state_of[node]
        if parent_state not in analysis.trimmed_states:
            return False
        children = skeleton.children_of[node]
        for child in children:
            if not analysis.proper_descendant(state_of[child], parent_state):
                return False
        if children and not self._horizontal_ok(parent_state, [state_of[c] for c in children]):
            return False
        return True

    def _horizontal_ok(self, parent_state: str, child_states: Sequence[str]) -> bool:
        return self._choose_anchor_states(parent_state, child_states) is not None

    def _choose_anchor_states(
        self, parent_state: str, child_states: Sequence[str]
    ) -> Optional[List[str]]:
        """Pick real child states s_i (anchors) realising the skeleton children."""
        key = (parent_state, tuple(child_states))
        if key in self._anchor_cache:
            return self._anchor_cache[key]
        result: Optional[List[str]] = None
        candidate_sets = [sorted(self._up_states(state)) for state in child_states]
        for anchors in itertools.product(*candidate_sets):
            if self._analysis.children_subsequence_possible(parent_state, anchors):
                result = list(anchors)
                break
        self._anchor_cache[key] = result
        return result

    # -- seeds -------------------------------------------------------------------------------------

    def initial_configurations(self, system: DatabaseDrivenSystem) -> Iterator[TheoryConfiguration]:
        registers = list(system.registers)
        if not self._analysis.trimmed_states:
            return
        for partition in set_partitions(registers):
            blocks = list(partition)
            for first_state in sorted(self._analysis.trimmed_states):
                base = Skeleton.single(first_state)
                for skeleton, new_ids in self._place_nodes(base, len(blocks) - 1):
                    node_ids = [0] + list(new_ids)
                    valuation = {}
                    for block, node in zip(blocks, node_ids):
                        for register in block:
                            valuation[register] = node
                    yield TheoryConfiguration.make(
                        skeleton, valuation, fresh_elements=tuple(skeleton.node_ids)
                    )

    # -- successors --------------------------------------------------------------------

    def successor_configurations(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
    ) -> Iterator[TheoryConfiguration]:
        """The reference enumeration: guards walked over a skeleton view.

        :meth:`enumerate_deltas` yields the same candidates in the same
        order, deciding guards through the compiled plan instead.
        """
        registers = list(system.registers)
        skeleton: Skeleton = config.witness
        existing = list(skeleton.node_ids)
        valuation_old = config.valuation
        max_fresh = len(registers)
        for targets in itertools.product(
            existing + [("fresh", slot) for slot in range(max_fresh)],
            repeat=len(registers),
        ):
            fresh_slots = sorted({target[1] for target in targets if isinstance(target, tuple)})
            if fresh_slots != list(range(len(fresh_slots))):
                continue
            if not fresh_slots:
                valuation_new = dict(zip(registers, targets))
                if not self._guard_prefilter(
                    skeleton, system, transition, valuation_old, valuation_new
                ):
                    continue
                yield TheoryConfiguration.make(skeleton, valuation_new, ())
                continue
            for extended, new_ids in self._place_nodes(skeleton, len(fresh_slots)):
                valuation_new = {}
                for register, target in zip(registers, targets):
                    if isinstance(target, tuple):
                        valuation_new[register] = new_ids[target[1]]
                    else:
                        valuation_new[register] = target
                if not self._guard_prefilter(
                    extended, system, transition, valuation_old, valuation_new
                ):
                    continue
                yield TheoryConfiguration.make(extended, valuation_new, tuple(new_ids))

    # -- incremental candidate protocol --------------------------------------------

    def plan_guard_schema(self) -> Schema:
        return self._schema

    def plan_function_symbols(self):
        return frozenset((CCA,))

    def witness_size(self, config: TheoryConfiguration) -> int:
        return len(config.witness.states)

    def enumerate_deltas(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
        plan=None,
    ) -> Iterator[CandidateDelta]:
        """Enumerate successor deltas with the guard decided on the skeleton.

        Skeleton relations (ancestry, document order, labels, ``cca``) are
        decided exactly on the extended skeleton, so for pure tree guards the
        engine never renders the skeleton into a database at all: candidates
        whose guard fails are dropped here (exactly where the reference
        pre-filter drops them), and surviving candidates carry
        ``guard_status=True`` so the engine skips the authoritative
        evaluation.  Atoms outside TreeSchema (data-value relations) keep the
        conservative UNKNOWN fallback.
        """
        if plan is None or plan.compiled is None:
            yield from super().enumerate_deltas(system, config, transition, plan)
            return
        registers = list(system.registers)
        skeleton: Skeleton = config.witness
        existing = list(skeleton.node_ids)
        valuation_old = config.valuation
        max_fresh = len(registers)
        evaluator = plan.compiled.evaluator
        stats = plan.stats
        letter_of = self._automaton.letter_of

        current: List[Skeleton] = [skeleton]

        def fact(symbol: str, elements):
            view = current[0]
            if symbol == ANCESTOR:
                return view.is_ancestor(elements[0], elements[1])
            if symbol == DOCUMENT_ORDER:
                return view.document_before(elements[0], elements[1])
            if symbol.startswith("label_"):
                return letter_of[view.state_of[elements[0]]] == symbol[len("label_"):]
            return UNKNOWN

        def term(symbol: str, elements):
            if symbol == CCA:
                return current[0].cca(elements[0], elements[1])
            return UNKNOWN

        context = DeltaContext(valuation_old, None, fact, term)

        for targets in itertools.product(
            existing + [("fresh", slot) for slot in range(max_fresh)],
            repeat=len(registers),
        ):
            fresh_slots = sorted({target[1] for target in targets if isinstance(target, tuple)})
            if fresh_slots != list(range(len(fresh_slots))):
                continue
            if not fresh_slots:
                valuation_new = dict(zip(registers, targets))
                current[0] = skeleton
                context.value_new = valuation_new
                status = evaluator(context)
                if status is False:
                    stats.enumeration_pruned += 1
                    continue
                yield CandidateDelta(
                    tuple(sorted(valuation_new.items())),
                    (),
                    (),
                    status,
                    skeleton,
                )
                continue
            for extended, new_ids in self._place_nodes(skeleton, len(fresh_slots)):
                valuation_new = {}
                for register, target in zip(registers, targets):
                    if isinstance(target, tuple):
                        valuation_new[register] = new_ids[target[1]]
                    else:
                        valuation_new[register] = target
                current[0] = extended
                context.value_new = valuation_new
                status = evaluator(context)
                if status is False:
                    stats.enumeration_pruned += 1
                    continue
                yield CandidateDelta(
                    tuple(sorted(valuation_new.items())),
                    tuple(new_ids),
                    (),
                    status,
                    extended,
                )

    def apply_delta(
        self, config: TheoryConfiguration, delta: CandidateDelta
    ) -> TheoryConfiguration:
        payload = delta.payload
        if isinstance(payload, TheoryConfiguration):
            return payload
        return TheoryConfiguration(payload, delta.valuation_items, delta.fresh_elements)

    def _guard_prefilter(
        self,
        skeleton: Skeleton,
        system: DatabaseDrivenSystem,
        transition: Transition,
        valuation_old: Dict[str, Element],
        valuation_new: Dict[str, Element],
    ) -> bool:
        """The reference guard pre-filter: walk the formula over a skeleton view.

        Guards mentioning symbols outside TreeSchema (e.g. data-value
        relations) cannot be decided here; such candidates are kept and the
        caller performs the authoritative evaluation.  :meth:`enumerate_deltas`
        decides guards through the compiled plan evaluator instead.
        """
        from repro.errors import FormulaError
        from repro.systems.dds import new, old

        combined: Dict[str, Element] = {}
        for register in system.registers:
            combined[old(register)] = valuation_old[register]
            combined[new(register)] = valuation_new[register]
        view = _SkeletonView(self, skeleton)
        try:
            return transition.guard.evaluate(view, combined)
        except FormulaError:
            return True

    def _place_nodes(self, skeleton: Skeleton, count: int) -> Iterator[Tuple[Skeleton, List[int]]]:
        """Place ``count`` fresh nodes one after another, every intermediate
        skeleton remaining cca-closed and completable.

        Placements depend only on the skeleton and the count -- not on the
        register assignment that asked for them -- so the successor
        enumeration memoises the materialised list per ``(skeleton, count)``
        instead of re-walking the placement tree for every register-target
        combination.
        """
        # Only top-level results are cached: interior skeletons of the
        # placement recursion are mostly unique, and caching them would
        # pollute (and repeatedly overflow) the table for no hits.
        key = (skeleton, count)
        cached = self._placement_cache.get(key)
        if cached is None:
            cached = list(self._place_nodes_uncached(skeleton, count))
            self._placement_cache.put(key, cached)
        yield from cached

    def _place_nodes_uncached(
        self, skeleton: Skeleton, count: int
    ) -> Iterator[Tuple[Skeleton, List[int]]]:
        if count == 0:
            yield skeleton, []
            return
        for extended, new_id in self._single_placements(skeleton):
            for final, rest in self._place_nodes_uncached(extended, count - 1):
                yield final, [new_id] + rest

    def _single_placements(self, skeleton: Skeleton) -> Iterator[Tuple[Skeleton, int]]:
        """All ways to add one node (possibly with one helper cca node).

        ``skeleton`` is always completable here (seeds start from single
        nodes and every intermediate candidate is filtered), so completability
        of a candidate reduces to the local conditions at the nodes the move
        touched (:meth:`_node_completable`); :meth:`skeleton_completable` is
        the whole-skeleton check it stands in for.
        """
        analysis = self._analysis
        states = sorted(analysis.trimmed_states)
        state_of = skeleton.state_of
        new_id = skeleton.next_id()
        seen: Set[Skeleton] = set()

        def admissible(candidate: Skeleton, affected: Tuple[int, ...]) -> bool:
            return all(self._node_completable(candidate, node) for node in affected)

        def emit(
            candidate: Skeleton, node: int, affected: Tuple[int, ...]
        ) -> Iterator[Tuple[Skeleton, int]]:
            if candidate in seen:
                return
            if admissible(candidate, affected):
                seen.add(candidate)
                yield candidate, node

        root = skeleton.root
        parent_of = skeleton.parent_of
        proper = analysis.proper_descendant
        # M1: a new ancestor of the whole skeleton.
        for state in states:
            if proper(state_of[root], state):
                yield from emit(
                    skeleton.with_root_above(new_id, state),
                    new_id,
                    (new_id,),
                )
        # M2: a node inside an existing skeleton edge.
        for node in skeleton.node_ids:
            parent = parent_of[node]
            if parent is None:
                continue
            for state in states:
                if not (proper(state_of[node], state) and proper(state, state_of[parent])):
                    continue
                yield from emit(
                    skeleton.with_node_on_edge(new_id, state, node),
                    new_id,
                    (new_id, parent),
                )
        # M3: a new leaf branch under an existing node, at every slot.
        for node in skeleton.node_ids:
            arity = len(skeleton.children_of[node])
            for slot in range(arity + 1):
                for state in states:
                    if not proper(state, state_of[node]):
                        continue
                    yield from emit(
                        skeleton.with_branch(new_id, state, node, slot),
                        new_id,
                        (new_id, node),
                    )
        # M4: a helper cca node on an edge (or above the root) with the new node
        # hanging next to the detached branch.
        helper_id = new_id
        branch_id = new_id + 1
        for node in list(skeleton.node_ids):
            parent = parent_of[node]
            for helper_state in states:
                if not proper(state_of[node], helper_state):
                    continue
                if parent is None:
                    with_helper = skeleton.with_root_above(helper_id, helper_state)
                    helper_affected: Tuple[int, ...] = (helper_id,)
                else:
                    if not proper(helper_state, state_of[parent]):
                        continue
                    with_helper = skeleton.with_node_on_edge(helper_id, helper_state, node)
                    helper_affected = (helper_id, parent)
                if not admissible(with_helper, helper_affected):
                    continue
                for state in states:
                    if not proper(state, helper_state):
                        continue
                    for slot in (0, 1):
                        candidate = with_helper.with_branch(branch_id, state, helper_id, slot)
                        if candidate in seen:
                            continue
                        if admissible(candidate, (branch_id, helper_id)):
                            seen.add(candidate)
                            yield candidate, branch_id

    # -- rendering ---------------------------------------------------------------------

    def database(self, config: TheoryConfiguration) -> Structure:
        return self._skeleton_structure(config.witness, self._schema, with_states=False)

    def abstraction_key(self, config: TheoryConfiguration) -> Hashable:
        skeleton: Skeleton = config.witness
        generated = self._cca_closure(skeleton, set(config.valuation.values()))
        restricted = self._restrict(skeleton, generated)
        view = self._skeleton_structure(restricted, self._key_schema, with_states=True)
        return generic_abstraction_key(view, config.valuation)

    def _cca_closure(self, skeleton: Skeleton, nodes: Set[int]) -> Set[int]:
        closure = set(nodes)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(sorted(closure), 2):
                meet = skeleton.cca(a, b)
                if meet not in closure:
                    closure.add(meet)
                    changed = True
        return closure

    def _restrict(self, skeleton: Skeleton, nodes: Set[int]) -> Skeleton:
        """The sub-skeleton induced by a cca-closed node set."""
        state_of = skeleton.state_of
        parents: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {node: [] for node in nodes}
        for node in nodes:
            ancestor = skeleton.parent_of[node]
            while ancestor is not None and ancestor not in nodes:
                ancestor = skeleton.parent_of[ancestor]
            parents[node] = ancestor
        ordered = sorted(
            nodes,
            key=lambda n: [0 if skeleton.document_before(m, n) else 1 for m in sorted(nodes)],
        )
        for node in ordered:
            if parents[node] is not None:
                children[parents[node]].append(node)
        # Order children by document order.
        for node in children:
            children[node].sort(
                key=lambda c: sum(
                    1 for other in children[node] if skeleton.document_before(other, c)
                )
            )
        return Skeleton(
            states=tuple(sorted((n, state_of[n]) for n in nodes)),
            parents=tuple(sorted(parents.items())),
            children=tuple(sorted((k, tuple(v)) for k, v in children.items())),
        )

    def _skeleton_structure(
        self, skeleton: Skeleton, schema: Schema, with_states: bool
    ) -> Structure:
        letter = self._automaton.letter_of
        nodes = list(skeleton.node_ids)
        state_of = skeleton.state_of
        relations: Dict[str, set] = {ANCESTOR: set(), DOCUMENT_ORDER: set()}
        for label in self._automaton.alphabet:
            relations[label_predicate(label)] = set()
        if with_states:
            for q in sorted(self._automaton.states):
                relations[STATE_PREFIX + q] = set()
        for node in nodes:
            relations[label_predicate(letter[state_of[node]])].add((node,))
            if with_states:
                relations[STATE_PREFIX + state_of[node]].add((node,))
        for a, b in itertools.product(nodes, repeat=2):
            if skeleton.is_ancestor(a, b):
                relations[ANCESTOR].add((a, b))
            if a != b and skeleton.document_before(a, b):
                relations[DOCUMENT_ORDER].add((a, b))
        cca_table = {(a, b): skeleton.cca(a, b) for a in nodes for b in nodes}
        return Structure(
            schema, nodes, relations=relations, functions={CCA: cca_table}, validate=False
        )

    # -- witness expansion -------------------------------------------------------------

    def certify(
        self, config: TheoryConfiguration
    ) -> Tuple[Structure, Dict[Element, Element], Dict[str, object]]:
        """Expand the skeleton into an accepted tree plus its accepting run.

        The evidence payload carries the expanded tree spec and the accepting
        run (path -> state), so an engine-independent validator can rebuild
        the tree database from paths, compare it with the witness database,
        and re-check run validity against the automaton spec.
        """
        skeleton: Skeleton = config.witness
        tree, placement = self.expand_skeleton(skeleton)
        run = self._automaton.find_run(tree)
        if run is None:  # pragma: no cover - soundness net
            raise TheoryError("internal error: expanded witness tree is not accepted")
        index = node_index_by_path(tree)
        mapping = {node: index[path] for node, path in placement.items()}
        evidence = {
            "tree": tree.to_spec(),
            "run": [[list(path), state] for path, state in sorted(run.items())],
        }
        return treedb(tree, self._automaton.alphabet), mapping, evidence

    def expand_skeleton(self, skeleton: Skeleton) -> Tuple[Tree, Dict[int, Tuple[int, ...]]]:
        """Expand a completable skeleton into an accepted tree.

        Returns the tree and the path each skeleton node was realised at.
        """
        analysis = self._analysis
        letter = self._automaton.letter_of
        state_of = skeleton.state_of

        def realize(node: int) -> Tuple[Tree, Dict[int, Tuple[int, ...]]]:
            state = state_of[node]
            kids = skeleton.children_of[node]
            placement: Dict[int, Tuple[int, ...]] = {node: ()}
            if not kids:
                template = analysis.minimal_subtrees[state]
                return Tree(letter[state], template.children), placement
            anchors = self._choose_anchor_states(state, [state_of[c] for c in kids])
            if anchors is None:  # pragma: no cover - completability guarantees anchors
                raise TheoryError("skeleton lost completability during expansion")
            sequence = analysis.expand_children_subsequence(state, anchors)
            if sequence is None:  # pragma: no cover
                raise TheoryError("cannot expand children sequence")
            positions = _match_subsequence(sequence, anchors)
            children_trees: List[Tree] = []
            for index, child_state in enumerate(sequence):
                if index in positions:
                    skeleton_child = kids[positions.index(index)]
                    subtree, sub_placement = self._realize_chain(
                        child_state, skeleton_child, skeleton, realize
                    )
                    for sk_node, path in sub_placement.items():
                        placement[sk_node] = (index,) + path
                    children_trees.append(subtree)
                else:
                    children_trees.append(analysis.minimal_subtrees[child_state])
            return Tree(letter[state], tuple(children_trees)), placement

        root_tree, root_placement = realize(skeleton.root)
        # Wrap with the context chain from an automaton root state down to the
        # skeleton root's state.
        context = analysis.root_context[state_of[skeleton.root]]
        tree, prefix = self._wrap_with_chain(context, root_tree)
        placement = {node: prefix + path for node, path in root_placement.items()}
        return tree, placement

    def _realize_chain(
        self,
        top_state: str,
        skeleton_node: int,
        skeleton: Skeleton,
        realize,
    ) -> Tuple[Tree, Dict[int, Tuple[int, ...]]]:
        """Build the subtree rooted at a real child with state ``top_state`` that
        contains the realisation of ``skeleton_node`` below it."""
        target_state = skeleton.state_of[skeleton_node]
        chain = self._analysis.child_chain(target_state, top_state)
        if chain is None:  # pragma: no cover - anchors guarantee a chain
            raise TheoryError("no descendant chain during expansion")
        subtree, placement = realize(skeleton_node)
        tree, prefix = self._wrap_with_chain(chain, subtree)
        return tree, {node: prefix + path for node, path in placement.items()}

    def _wrap_with_chain(self, chain: Sequence[str], bottom: Tree) -> Tuple[Tree, Tuple[int, ...]]:
        """Wrap ``bottom`` under the state chain ``[top, ..., bottom_state]``.

        ``chain[-1]`` is the state of ``bottom``'s root; every step above it is
        realised by a node whose children sequence contains the next chain
        state, all other children being minimal subtrees.  Returns the wrapped
        tree and the path of ``bottom``'s root inside it.
        """
        analysis = self._analysis
        letter = self._automaton.letter_of
        tree = bottom
        prefix: Tuple[int, ...] = ()
        for index in range(len(chain) - 2, -1, -1):
            parent_state = chain[index]
            child_state = chain[index + 1]
            sequence = analysis.expand_children_subsequence(parent_state, [child_state])
            if sequence is None:  # pragma: no cover
                raise TheoryError("cannot realise chain step during expansion")
            position = sequence.index(child_state)
            children = [
                tree if i == position else analysis.minimal_subtrees[s]
                for i, s in enumerate(sequence)
            ]
            tree = Tree(letter[parent_state], tuple(children))
            prefix = (position,) + prefix
        return tree, prefix

    def describe(self) -> str:
        return (
            f"Treedb(L) for a tree automaton with {len(self._automaton.states)} states "
            f"over labels {self._automaton.alphabet}"
        )


class _SkeletonView:
    """A duck-typed read-only Structure view of a skeleton (guard pre-filtering).

    Implements just enough of the :class:`~repro.logic.structures.Structure`
    interface for formula evaluation -- ``schema``, ``domain``, ``holds`` and
    ``apply`` -- without materialising relation tables.
    """

    __slots__ = ("_theory", "_skeleton", "domain")

    def __init__(self, theory: "TreeRunTheory", skeleton: Skeleton) -> None:
        self._theory = theory
        self._skeleton = skeleton
        self.domain = frozenset(skeleton.node_ids)

    @property
    def schema(self) -> Schema:
        return self._theory.schema

    def holds(self, name: str, *args) -> bool:
        skeleton = self._skeleton
        if name == ANCESTOR:
            return skeleton.is_ancestor(args[0], args[1])
        if name == DOCUMENT_ORDER:
            return skeleton.document_before(args[0], args[1])
        if name.startswith("label_"):
            label = name[len("label_"):]
            state = skeleton.state_of[args[0]]
            return self._theory.automaton.letter_of[state] == label
        return False

    def apply(self, name: str, *args):
        if name == CCA:
            return self._skeleton.cca(args[0], args[1])
        raise KeyError(name)


def _match_subsequence(sequence: Sequence[str], anchors: Sequence[str]) -> List[int]:
    """Positions of ``anchors`` inside ``sequence`` (greedy left-to-right)."""
    positions: List[int] = []
    start = 0
    for anchor in anchors:
        index = sequence.index(anchor, start)
        positions.append(index)
        start = index + 1
    return positions
