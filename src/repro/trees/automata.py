"""Tree automata on unranked trees, in the normal form of Section 5.3.

The automaton labels every node of the input tree with a state; the run is
valid when

* every state reads a unique letter (``letter(q)`` is the node's label),
* leaves carry *leaf states*, the root carries a *root state*, rightmost
  children carry *rightmost states*,
* the leftmost child's state and its parent's state are related by the
  ``firstchild`` relation, and consecutive siblings by the ``nextsibling``
  relation.

From these the paper derives the *descendant* relation ``->v`` and the
*following-sibling* relation ``->h`` on states, their strongly connected
components (descendant / horizontal components), the branching / linear
classification of descendant components, and the ``left(Γ)`` / ``right(Γ)``
sets -- all of which are computed by :meth:`TreeAutomaton.analysis` and used
by the run databases (:mod:`repro.trees.rundb`), the emptiness procedure
(:mod:`repro.trees.theory`) and the Lemma 22 / Lemma 23 tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import AutomatonError
from repro.trees.tree import Tree

State = str


@dataclass(frozen=True)
class TreeAutomaton:
    """An unranked tree automaton in the position-labelling normal form."""

    states: FrozenSet[State]
    letter: Tuple[Tuple[State, str], ...]
    firstchild: FrozenSet[Tuple[State, State]]
    """Pairs ``(child_state, parent_state)``: allowed state of a *leftmost* child."""
    nextsibling: FrozenSet[Tuple[State, State]]
    """Pairs ``(right_state, left_state)``: allowed state of the *next* sibling."""
    leaf_states: FrozenSet[State]
    root_states: FrozenSet[State]
    rightmost_states: FrozenSet[State]

    # -- construction -----------------------------------------------------------------

    @classmethod
    def make(
        cls,
        letter: Dict[State, str],
        firstchild: Iterable[Tuple[State, State]],
        nextsibling: Iterable[Tuple[State, State]],
        leaf_states: Iterable[State],
        root_states: Iterable[State],
        rightmost_states: Iterable[State],
    ) -> "TreeAutomaton":
        states = frozenset(letter)
        for relation, name in ((firstchild, "firstchild"), (nextsibling, "nextsibling")):
            for p, q in relation:
                if p not in states or q not in states:
                    raise AutomatonError(f"{name} pair ({p}, {q}) uses unknown states")
        for subset, name in (
            (leaf_states, "leaf"),
            (root_states, "root"),
            (rightmost_states, "rightmost"),
        ):
            for q in subset:
                if q not in states:
                    raise AutomatonError(f"{name} state {q!r} is not a state")
        return cls(
            states=states,
            letter=tuple(sorted(letter.items())),
            firstchild=frozenset(firstchild),
            nextsibling=frozenset(nextsibling),
            leaf_states=frozenset(leaf_states),
            root_states=frozenset(root_states),
            rightmost_states=frozenset(rightmost_states),
        )

    def to_spec(self) -> Dict[str, list]:
        """A JSON-safe, canonically ordered description of the automaton."""
        return {
            "letter": [list(pair) for pair in self.letter],
            "firstchild": [list(pair) for pair in sorted(self.firstchild)],
            "nextsibling": [list(pair) for pair in sorted(self.nextsibling)],
            "leaf_states": sorted(self.leaf_states),
            "root_states": sorted(self.root_states),
            "rightmost_states": sorted(self.rightmost_states),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, list]) -> "TreeAutomaton":
        """Rebuild a tree automaton from :meth:`to_spec` output."""
        return cls.make(
            letter=dict(tuple(pair) for pair in spec["letter"]),
            firstchild=[tuple(pair) for pair in spec["firstchild"]],
            nextsibling=[tuple(pair) for pair in spec["nextsibling"]],
            leaf_states=spec["leaf_states"],
            root_states=spec["root_states"],
            rightmost_states=spec["rightmost_states"],
        )

    @property
    def letter_of(self) -> Dict[State, str]:
        return dict(self.letter)

    @property
    def alphabet(self) -> List[str]:
        return sorted({a for _, a in self.letter})

    # -- analysis (cached) ---------------------------------------------------------------

    def analysis(self) -> "AutomatonAnalysis":
        """The automaton's derived reachability data, computed once per instance.

        The memo lives on the instance (outside the dataclass fields, so
        equality and hashing ignore it) and dies with it.
        """
        analysis = self.__dict__.get("_analysis")
        if analysis is None:
            analysis = _analyse(self)
            object.__setattr__(self, "_analysis", analysis)
        return analysis

    # -- acceptance -------------------------------------------------------------------------

    def possible_root_states(self, tree: Tree) -> Set[State]:
        """States the automaton can assign to the root of ``tree``."""
        letter = self.letter_of

        def states_of(subtree: Tree) -> Set[State]:
            candidates = {q for q in self.states if letter[q] == subtree.label}
            if not subtree.children:
                return candidates & self.leaf_states
            child_sets = [states_of(child) for child in subtree.children]
            result = set()
            for q in candidates:
                if self._children_sequence_possible(q, child_sets):
                    result.add(q)
            return result

        return states_of(tree)

    def accepts(self, tree: Tree) -> bool:
        """Language membership."""
        return bool(self.possible_root_states(tree) & self.root_states)

    def find_run(self, tree: Tree) -> Optional[Dict[Tuple[int, ...], State]]:
        """A run (mapping node paths to states), or ``None`` if rejected."""
        letter = self.letter_of
        memo: Dict[Tuple[int, ...], Set[State]] = {}

        def states_of(subtree: Tree, path: Tuple[int, ...]) -> Set[State]:
            candidates = {q for q in self.states if letter[q] == subtree.label}
            if not subtree.children:
                result = candidates & self.leaf_states
            else:
                child_sets = [
                    states_of(child, path + (i,)) for i, child in enumerate(subtree.children)
                ]
                result = {q for q in candidates if self._children_sequence_possible(q, child_sets)}
            memo[path] = result
            return result

        root_states = states_of(tree, ()) & self.root_states
        if not root_states:
            return None

        assignment: Dict[Tuple[int, ...], State] = {}

        def assign(subtree: Tree, path: Tuple[int, ...], state: State) -> None:
            assignment[path] = state
            if not subtree.children:
                return
            child_sets = [memo[path + (i,)] for i in range(len(subtree.children))]
            chosen = self._choose_children_sequence(state, child_sets)
            if chosen is None:  # pragma: no cover - guaranteed by construction
                raise AutomatonError("internal error: inconsistent run reconstruction")
            for index, child_state in enumerate(chosen):
                assign(
                    subtree.children[index],
                    path + (index,),
                    child_state,
                )

        assign(tree, (), sorted(root_states)[0])
        return assignment

    def _children_sequence_possible(self, parent: State, child_sets: Sequence[Set[State]]) -> bool:
        return self._choose_children_sequence(parent, child_sets) is not None

    def _choose_children_sequence(
        self, parent: State, child_sets: Sequence[Set[State]]
    ) -> Optional[List[State]]:
        """Pick child states satisfying firstchild / nextsibling / rightmost."""
        if not child_sets:
            return []
        allowed_first = {p for p, q in self.firstchild if q == parent}
        layers: List[Dict[State, Optional[State]]] = []
        current: Dict[State, Optional[State]] = {
            state: None for state in child_sets[0] & allowed_first
        }
        layers.append(current)
        for child_set in child_sets[1:]:
            nxt: Dict[State, Optional[State]] = {}
            for state in child_set:
                for previous in current:
                    if (state, previous) in self.nextsibling:
                        nxt[state] = previous
                        break
            layers.append(nxt)
            current = nxt
            if not current:
                return None
        final = [s for s in current if s in self.rightmost_states]
        if not final:
            return None
        # Reconstruct backwards through the stored predecessor links.
        sequence = [final[0]]
        for index in range(len(layers) - 1, 0, -1):
            predecessor = layers[index][sequence[0]]
            sequence.insert(0, predecessor)
        return sequence

    # -- language exploration ----------------------------------------------------------------

    def accepted_trees(self, max_size: int) -> Iterator[Tree]:
        """All accepted trees with at most ``max_size`` nodes (baseline search)."""
        from repro.trees.tree import all_trees

        for tree in all_trees(self.alphabet, max_size):
            if self.accepts(tree):
                yield tree


@dataclass
class AutomatonAnalysis:
    """Derived reachability data of a (trimmed) tree automaton."""

    automaton: TreeAutomaton
    trimmed_states: Set[State]
    can_first: Dict[State, Set[State]]
    sib_next: Dict[State, Set[State]]
    sib_reach_star: Dict[State, Set[State]]
    sib_reach_plus: Dict[State, Set[State]]
    can_be_child: Dict[State, Set[State]]
    """``can_be_child[q]`` = states that can appear as (any) child of a node in state q."""
    desc_reach_plus: Dict[State, Set[State]]
    """``p in desc_reach_plus[q]``: a p-node can appear as a proper descendant of a q-node."""
    descendant_component_of: Dict[State, int]
    descendant_components: List[FrozenSet[State]]
    horizontal_component_of: Dict[State, int]
    horizontal_components: List[FrozenSet[State]]
    branching_components: Set[int]
    left_of_component: Dict[int, Set[State]]
    right_of_component: Dict[int, Set[State]]
    minimal_subtrees: Dict[State, Tree]
    root_context: Dict[State, List[State]]
    """For every trimmed state q, a chain ``[root_state, ..., q]`` of states going
    down from a root state to q, each consecutive pair a child-of step."""

    # -- convenience predicates --------------------------------------------------------------

    def descendant_or_equal(self, below: State, above: State) -> bool:
        """Can a node in state ``below`` be a descendant of or equal to one in ``above``?"""
        return below == above or below in self.desc_reach_plus.get(above, set())

    def proper_descendant(self, below: State, above: State) -> bool:
        return below in self.desc_reach_plus.get(above, set())

    def children_subsequence_possible(self, parent: State, states: Sequence[State]) -> bool:
        """Can ``states`` appear, in this order, among the children of a ``parent`` node?

        This is the horizontal completability condition used by the skeleton
        check: there is a valid children sequence of ``parent`` containing the
        given states as a subsequence (each on a *distinct* child).
        """
        if parent not in self.trimmed_states:
            return False
        if any(state not in self.trimmed_states for state in states):
            return False
        if not states:
            return True
        starts = self.can_first.get(parent, set())
        if states[0] not in {t for s in starts for t in ({s} | self.sib_reach_plus.get(s, set()))}:
            return False
        position = states[0]
        for nxt in states[1:]:
            if nxt not in self.sib_reach_plus.get(position, set()):
                return False
            position = nxt
        # The sequence must be completable to the right up to a rightmost state.
        closing = {position} | self.sib_reach_star_of(position)
        return bool(closing & self.automaton.rightmost_states)

    def sib_reach_star_of(self, state: State) -> Set[State]:
        return {state} | self.sib_reach_plus.get(state, set())

    def expand_children_subsequence(
        self, parent: State, states: Sequence[State]
    ) -> Optional[List[State]]:
        """A concrete valid children sequence of ``parent`` containing ``states``.

        Returns the full sequence of child states (the given ones appear at
        increasing positions), or ``None`` when impossible.  Used by the
        witness expansion of :meth:`repro.trees.theory.TreeRunTheory.finalize`.
        """
        if not self.children_subsequence_possible(parent, states):
            return None
        starts = sorted(self.can_first.get(parent, set()))
        if not states:
            for start in starts:
                path = self._sib_path(start, self.automaton.rightmost_states)
                if path is not None:
                    return path
            return None
        best: Optional[List[State]] = None
        for start in starts:
            prefix = self._sib_path_to(start, states[0])
            if prefix is None:
                continue
            sequence = list(prefix)
            feasible = True
            for previous, nxt in zip(states, states[1:]):
                hop = self._sib_path_to_strict(previous, nxt)
                if hop is None:
                    feasible = False
                    break
                sequence.extend(hop[1:])
            if not feasible:
                continue
            closing = self._sib_path(sequence[-1], self.automaton.rightmost_states)
            if closing is None:
                continue
            sequence.extend(closing[1:])
            if best is None or len(sequence) < len(best):
                best = sequence
        return best

    def _sib_path_to(self, source: State, target: State) -> Optional[List[State]]:
        """Shortest path source ->sib* target (possibly zero steps)."""
        if source == target:
            return [source]
        return self._bfs(source, {target})

    def _sib_path_to_strict(self, source: State, target: State) -> Optional[List[State]]:
        """Shortest path source ->sib+ target (at least one step)."""
        for nxt in sorted(self.sib_next.get(source, set())):
            if nxt == target:
                return [source, target]
            path = self._bfs(nxt, {target})
            if path is not None:
                return [source] + path
        return None

    def _sib_path(self, source: State, targets: Set[State]) -> Optional[List[State]]:
        """Shortest path source ->sib* (some target)."""
        if source in targets:
            return [source]
        return self._bfs(source, set(targets))

    def _bfs(self, source: State, targets: Set[State]) -> Optional[List[State]]:
        from collections import deque

        queue = deque([[source]])
        seen = {source}
        while queue:
            path = queue.popleft()
            for nxt in sorted(self.sib_next.get(path[-1], set())):
                if nxt in targets:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(path + [nxt])
        return None

    def child_chain(self, below: State, above: State) -> Optional[List[State]]:
        """A chain ``[above, ..., below]`` of child-of steps from above down to below.

        Requires ``below`` to be a proper descendant state of ``above``
        (``->v``); returns the chain including both endpoints.
        """
        from collections import deque

        if below == above:
            return [above]
        queue = deque([[above]])
        seen = {above}
        while queue:
            path = queue.popleft()
            for child in sorted(self.can_be_child.get(path[-1], set())):
                if child == below:
                    return path + [child]
                if child not in seen:
                    seen.add(child)
                    queue.append(path + [child])
        return None


def _analyse(automaton: TreeAutomaton) -> AutomatonAnalysis:
    letter = automaton.letter_of
    states = set(automaton.states)

    # -- productivity (a complete subtree run exists rooted in the state) -----------
    productive: Set[State] = set()
    chosen_children: Dict[State, List[State]] = {}
    changed = True
    while changed:
        changed = False
        for q in states - productive:
            if q in automaton.leaf_states:
                productive.add(q)
                chosen_children[q] = []
                changed = True
                continue
            sequence = _valid_sequence(automaton, q, productive)
            if sequence is not None:
                productive.add(q)
                chosen_children[q] = sequence
                changed = True

    # -- reachability (the state appears in some accepting run) ----------------------
    def children_candidates(parent: State, allowed: Set[State]) -> Set[State]:
        starts = {p for p, q in automaton.firstchild if q == parent and p in allowed}
        sib = {p: set() for p in allowed}
        for right, left in automaton.nextsibling:
            if right in allowed and left in allowed:
                sib[left].add(right)
        # forward closure from starts
        reach = set(starts)
        frontier = list(starts)
        while frontier:
            s = frontier.pop()
            for t in sib.get(s, set()):
                if t not in reach:
                    reach.add(t)
                    frontier.append(t)
        # keep only states from which a rightmost state is sib-reachable
        result = set()
        for s in reach:
            seen = {s}
            stack = [s]
            ok = s in automaton.rightmost_states
            while stack and not ok:
                current = stack.pop()
                for t in sib.get(current, set()):
                    if t in automaton.rightmost_states:
                        ok = True
                        break
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            if ok:
                result.add(s)
        return result

    reachable: Set[State] = set(automaton.root_states & productive)
    frontier = list(reachable)
    while frontier:
        q = frontier.pop()
        for child in children_candidates(q, productive):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)

    trimmed = productive & reachable

    # -- basic graphs over trimmed states ------------------------------------------------
    can_first: Dict[State, Set[State]] = {q: set() for q in trimmed}
    for p, q in automaton.firstchild:
        if p in trimmed and q in trimmed:
            can_first[q].add(p)
    sib_next: Dict[State, Set[State]] = {q: set() for q in trimmed}
    for right, left in automaton.nextsibling:
        if right in trimmed and left in trimmed:
            sib_next[left].add(right)

    sib_reach_plus = {q: _reach_plus(q, sib_next) for q in trimmed}
    sib_reach_star = {q: {q} | sib_reach_plus[q] for q in trimmed}

    can_be_child: Dict[State, Set[State]] = {q: set() for q in trimmed}
    for q in trimmed:
        candidates = set()
        for start in can_first[q]:
            candidates |= {start} | sib_reach_plus[start]
        for p in candidates:
            if sib_reach_star[p] & automaton.rightmost_states:
                can_be_child[q].add(p)

    desc_reach_plus = {q: _reach_plus(q, can_be_child) for q in trimmed}

    # -- components -------------------------------------------------------------------------
    descendant_components, descendant_component_of = _scc(sorted(trimmed), can_be_child)
    horizontal_components, horizontal_component_of = _scc(sorted(trimmed), sib_next)

    # -- branching classification -------------------------------------------------------------
    branching: Set[int] = set()
    for index, component in enumerate(descendant_components):
        if _is_branching(
            component,
            trimmed,
            can_first,
            sib_next,
            sib_reach_plus,
            sib_reach_star,
            automaton.rightmost_states,
        ):
            branching.add(index)

    # -- left(Γ) / right(Γ) ----------------------------------------------------------------------
    left_of: Dict[int, Set[State]] = {i: set() for i in range(len(descendant_components))}
    right_of: Dict[int, Set[State]] = {i: set() for i in range(len(descendant_components))}
    for index, component in enumerate(descendant_components):
        left_of[index], right_of[index] = _left_right_sets(
            component, trimmed, can_first, sib_reach_plus, sib_reach_star,
            desc_reach_plus, automaton.rightmost_states,
        )

    # -- minimal subtrees and root contexts ----------------------------------------------------
    minimal_subtrees: Dict[State, Tree] = {}
    for q in sorted(trimmed, key=lambda s: 0 if s in automaton.leaf_states else 1):
        minimal_subtrees[q] = _build_minimal_subtree(q, chosen_children, letter, minimal_subtrees)

    root_context: Dict[State, List[State]] = {}
    parent_of: Dict[State, State] = {}
    from collections import deque

    queue = deque(sorted(automaton.root_states & trimmed))
    seen_ctx = set(queue)
    while queue:
        q = queue.popleft()
        for child in sorted(can_be_child.get(q, set())):
            if child not in seen_ctx:
                seen_ctx.add(child)
                parent_of[child] = q
                queue.append(child)
    for q in trimmed:
        chain = [q]
        while chain[0] not in automaton.root_states:
            chain.insert(0, parent_of[chain[0]])
        root_context[q] = chain

    return AutomatonAnalysis(
        automaton=automaton,
        trimmed_states=trimmed,
        can_first=can_first,
        sib_next=sib_next,
        sib_reach_star=sib_reach_star,
        sib_reach_plus=sib_reach_plus,
        can_be_child=can_be_child,
        desc_reach_plus=desc_reach_plus,
        descendant_component_of=descendant_component_of,
        descendant_components=descendant_components,
        horizontal_component_of=horizontal_component_of,
        horizontal_components=horizontal_components,
        branching_components=branching,
        left_of_component=left_of,
        right_of_component=right_of,
        minimal_subtrees=minimal_subtrees,
        root_context=root_context,
    )


# -- helpers -------------------------------------------------------------------------------------


def _valid_sequence(
    automaton: TreeAutomaton, parent: State, allowed: Set[State]
) -> Optional[List[State]]:
    """A valid children sequence for ``parent`` using only ``allowed`` states."""
    starts = sorted(p for p, q in automaton.firstchild if q == parent and p in allowed)
    sib: Dict[State, Set[State]] = {}
    for right, left in automaton.nextsibling:
        if right in allowed and left in allowed:
            sib.setdefault(left, set()).add(right)
    from collections import deque

    for start in starts:
        if start in automaton.rightmost_states:
            return [start]
        queue = deque([[start]])
        seen = {start}
        while queue:
            path = queue.popleft()
            for nxt in sorted(sib.get(path[-1], set())):
                if nxt in automaton.rightmost_states:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(path + [nxt])
    return None


def _reach_plus(state: State, graph: Dict[State, Set[State]]) -> Set[State]:
    seen: Set[State] = set()
    frontier = list(graph.get(state, set()))
    seen.update(frontier)
    while frontier:
        current = frontier.pop()
        for nxt in graph.get(current, set()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _scc(
    states: List[State], graph: Dict[State, Set[State]]
) -> Tuple[List[FrozenSet[State]], Dict[State, int]]:
    from repro.words.nfa import _strongly_connected_components

    return _strongly_connected_components(states, graph)


def _is_branching(
    component: FrozenSet[State],
    trimmed: Set[State],
    can_first: Dict[State, Set[State]],
    sib_next: Dict[State, Set[State]],
    sib_reach_plus: Dict[State, Set[State]],
    sib_reach_star: Dict[State, Set[State]],
    rightmost: FrozenSet[State],
) -> bool:
    """Is there a run where some node in the component has two children in it?"""
    for parent in component:
        starts = can_first.get(parent, set())
        first_hits = set()
        for start in starts:
            first_hits |= {s for s in sib_reach_star.get(start, {start}) if s in component}
        for a in first_hits:
            later = {s for s in sib_reach_plus.get(a, set()) if s in component}
            for b in later:
                if sib_reach_star.get(b, {b}) & rightmost:
                    return True
    return False


def _left_right_sets(
    component: FrozenSet[State],
    trimmed: Set[State],
    can_first: Dict[State, Set[State]],
    sib_reach_plus: Dict[State, Set[State]],
    sib_reach_star: Dict[State, Set[State]],
    desc_reach_plus: Dict[State, Set[State]],
    rightmost: FrozenSet[State],
) -> Tuple[Set[State], Set[State]]:
    """The left(Γ) / right(Γ) sets of Section 5.3.

    A state ``s`` is in left(Γ) when, in some run, a node with state ``s`` can
    appear strictly to the left of (and off) a Γ-to-Γ vertical path; dually
    for right(Γ).
    """
    left: Set[State] = set()
    right: Set[State] = set()

    def desc_or_equal(below: State, above: State) -> bool:
        return below == above or below in desc_reach_plus.get(above, set())

    for parent in trimmed:
        # parent is a node on the vertical path: it must have a Γ ancestor-or-equal
        # and a child continuing the path towards a Γ descendant-or-equal.
        has_gamma_above = any(desc_or_equal(parent, g) for g in component)
        if not has_gamma_above:
            continue
        starts = can_first.get(parent, set())
        reachable_children: Set[State] = set()
        for start in starts:
            reachable_children |= sib_reach_star.get(start, {start})
        for path_child in reachable_children:
            if not sib_reach_star.get(path_child, {path_child}) & rightmost:
                continue
            continues_path = any(desc_or_equal(g, path_child) for g in component)
            if not continues_path:
                continue
            # Children strictly before path_child in the sibling order.
            for before_child in reachable_children:
                if path_child in sib_reach_plus.get(before_child, set()):
                    left.add(before_child)
                    left |= desc_reach_plus.get(before_child, set())
            # Children strictly after path_child.
            for after_child in sib_reach_plus.get(path_child, set()):
                right.add(after_child)
                right |= desc_reach_plus.get(after_child, set())
    return left, right


def _build_minimal_subtree(
    state: State,
    chosen_children: Dict[State, List[State]],
    letter: Dict[State, str],
    built: Dict[State, Tree],
) -> Tree:
    """A small complete subtree whose root carries ``state``.

    ``chosen_children`` was recorded during the productivity fixpoint, so the
    recursion is well-founded (children were productive strictly earlier).
    """
    if state in built:
        return built[state]
    children = [
        _build_minimal_subtree(child, chosen_children, letter, built)
        for child in chosen_children[state]
    ]
    tree = Tree(letter[state], tuple(children))
    built[state] = tree
    return tree


# -- convenience constructors -----------------------------------------------------------------


def universal_automaton(labels: Sequence[str]) -> TreeAutomaton:
    """An automaton accepting *every* tree over the given label alphabet."""
    letter = {f"q_{a}": a for a in labels}
    states = list(letter)
    pairs = [(p, q) for p in states for q in states]
    return TreeAutomaton.make(
        letter=letter,
        firstchild=pairs,
        nextsibling=pairs,
        leaf_states=states,
        root_states=states,
        rightmost_states=states,
    )


def root_label_automaton(root_label: str, other_labels: Sequence[str]) -> TreeAutomaton:
    """Trees whose root carries ``root_label`` (any shape below)."""
    labels = sorted(set(other_labels) | {root_label})
    letter = {f"q_{a}": a for a in labels}
    states = list(letter)
    pairs = [(p, q) for p in states for q in states]
    return TreeAutomaton.make(
        letter=letter,
        firstchild=pairs,
        nextsibling=pairs,
        leaf_states=states,
        root_states=[f"q_{root_label}"],
        rightmost_states=states,
    )


def caterpillar_automaton() -> TreeAutomaton:
    """The language L of Fact 16: unary "caterpillar" trees t_n.

    Each t_n is a path of n inner nodes; every inner node has exactly two
    children -- the next inner node and one leaf -- except the last, which has
    two leaves.  All nodes carry the label ``a``.
    """
    letter = {"inner": "a", "last": "a", "leaf_left": "a", "leaf_right": "a"}
    return TreeAutomaton.make(
        letter=letter,
        firstchild=[("inner", "inner"), ("last", "inner"), ("leaf_left", "last")],
        nextsibling=[("leaf_right", "inner"), ("leaf_right", "last"), ("leaf_right", "leaf_left")],
        leaf_states=["leaf_left", "leaf_right"],
        root_states=["inner", "last"],
        rightmost_states=["leaf_right"],
    )


def grid_encoding_automaton() -> TreeAutomaton:
    """The language of Theorem 17: a root ``r`` whose subtrees are ``a -> b`` chains."""
    letter = {"root": "r", "a": "a", "b": "b"}
    return TreeAutomaton.make(
        letter=letter,
        firstchild=[("a", "root"), ("b", "a")],
        nextsibling=[("a", "a")],
        leaf_states=["b"],
        root_states=["root"],
        rightmost_states=["a", "b"],
    )
