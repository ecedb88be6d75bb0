"""Emptiness of database-driven systems over regular word languages (Theorem 10).

:class:`WordRunTheory` plugs a regular language ``L`` (given by an NFA) into
the generic engine of Theorem 5.  Its witnesses are *run fragments*: ordered
sequences of positions, each labelled by a state of the position automaton,
that satisfy the Lemma 12 chain condition (consecutive states related by
``->+`` on the trimmed automaton).  A fragment is exactly a finite database
that embeds into ``Rundb(rho)`` for some accepting run ``rho``, so the
invariant "the witness is completable into a word of ``L``" is maintained by
construction at every step.

* Guards only see the ``WordSchema`` view of a fragment (labels and the
  position order), as in the statement of Theorem 10.
* The abstraction key is the register-generated substructure of the *run
  database* of the fragment -- including the per-component leftmost/rightmost
  pointers of Section 5.1, which is what makes revisits prunable (closure
  under amalgamation of the pointer-enriched class, Proposition 2).
* :meth:`finalize` expands the final fragment into a genuine accepted word by
  stitching the fragment states together with explicit ``->`` paths and
  adding an initial prefix and accepting suffix; the engine replays the run
  on the expanded ``Worddb`` to certify the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TheoryError
from repro.fraisse.base import (
    DatabaseTheory,
    TheoryConfiguration,
    generic_abstraction_key,
    set_partitions,
)
from repro.logic.schema import Schema
from repro.logic.structures import Element, Structure
from repro.systems.dds import DatabaseDrivenSystem, Transition
from repro.words.nfa import NFA, PositionAutomaton
from repro.words.rundb import run_schema, rundb
from repro.words.worddb import BEFORE, label_predicate, word_schema


@dataclass(frozen=True)
class _WordFragment:
    """A completable run fragment: (position id, state) pairs in word order."""

    positions: Tuple[Tuple[int, str], ...]

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.positions)

    @property
    def states(self) -> Tuple[str, ...]:
        return tuple(s for _, s in self.positions)

    def index_of(self, position: int) -> int:
        for index, (p, _) in enumerate(self.positions):
            if p == position:
                return index
        raise TheoryError(f"position {position} not in the fragment")

    def next_id(self) -> int:
        return max(self.ids, default=-1) + 1


class WordRunTheory(DatabaseTheory):
    """Worddb(L) for the regular language of an NFA, as a database theory."""

    def __init__(self, nfa: NFA, max_fresh_per_step: Optional[int] = None) -> None:
        self._nfa = nfa
        self._automaton = PositionAutomaton.from_nfa(nfa, trim=True)
        self._schema = word_schema(self._automaton.alphabet)
        self._max_fresh_per_step = max_fresh_per_step
        self._run_schema = run_schema(self._automaton)

    # -- accessors ---------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def automaton(self) -> PositionAutomaton:
        return self._automaton

    @property
    def nfa(self) -> NFA:
        return self._nfa

    def blowup(self, n: int) -> int:
        # Two pointer functions per component (Section 5.1): blowup <= 2|Q| n.
        return max(n, 2 * self._automaton.component_count() * n)

    # -- serialization -------------------------------------------------------------

    SPEC_KIND = "word_run"

    def to_spec(self) -> Dict[str, object]:
        return {
            "kind": self.SPEC_KIND,
            "nfa": self._nfa.to_spec(),
            "max_fresh_per_step": self._max_fresh_per_step,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "WordRunTheory":
        return cls(
            NFA.from_spec(spec["nfa"]),
            max_fresh_per_step=spec.get("max_fresh_per_step"),
        )

    def membership(self, database: Structure) -> bool:
        """Is a database over WordSchema of the form Worddb(w) for some w in L?

        The database must be a strict linear order with exactly one label per
        position, and the induced word must be accepted by the NFA.
        """
        word = _database_to_word(database, self._automaton.alphabet)
        if word is None:
            return False
        return self._nfa.accepts(word)

    # -- seeds ---------------------------------------------------------------------

    def initial_configurations(self, system: DatabaseDrivenSystem) -> Iterator[TheoryConfiguration]:
        registers = list(system.registers)
        for partition in set_partitions(registers):
            blocks = list(partition)
            for ordering in itertools.permutations(range(len(blocks))):
                for states in itertools.product(self._automaton.states, repeat=len(blocks)):
                    positions = tuple((index, states[index]) for index in range(len(blocks)))
                    # ordering[i] is the rank of block i in word order.
                    ordered_positions = tuple(
                        sorted(positions, key=lambda item: ordering[item[0]]),
                    )
                    # Re-number ids so that word order is increasing ids.
                    renumber = {old_id: rank for rank, (old_id, _) in enumerate(ordered_positions)}
                    fragment = _WordFragment(
                        tuple((renumber[old_id], state) for old_id, state in ordered_positions)
                    )
                    if not self._automaton.chain_condition(fragment.states):
                        continue
                    valuation = {}
                    for block_index, block in enumerate(blocks):
                        for register in block:
                            valuation[register] = renumber[block_index]
                    yield TheoryConfiguration.make(fragment, valuation, fresh_elements=fragment.ids)

    # -- successors -------------------------------------------------------------------

    def successor_configurations(
        self,
        system: DatabaseDrivenSystem,
        config: TheoryConfiguration,
        transition: Transition,
    ) -> Iterator[TheoryConfiguration]:
        registers = list(system.registers)
        fragment: _WordFragment = config.witness
        valuation_old = config.valuation
        existing_ids = list(fragment.ids)
        max_fresh = self._max_fresh_per_step
        if max_fresh is None:
            max_fresh = len(registers)

        for targets in itertools.product(
            list(existing_ids) + [("fresh", slot) for slot in range(max_fresh)],
            repeat=len(registers),
        ):
            fresh_slots = sorted({target[1] for target in targets if isinstance(target, tuple)})
            # Canonical form: fresh slots must be used densely from 0.
            if fresh_slots != list(range(len(fresh_slots))):
                continue
            yield from self._place_fresh(fragment, registers, valuation_old, targets, fresh_slots)

    def _place_fresh(
        self,
        fragment: _WordFragment,
        registers: List[str],
        valuation_old: Dict[str, Element],
        targets: Tuple[object, ...],
        fresh_slots: List[int],
    ) -> Iterator[TheoryConfiguration]:
        n = len(fragment.positions)
        next_id = fragment.next_id()
        if not fresh_slots:
            valuation_new = dict(zip(registers, targets))
            yield TheoryConfiguration.make(fragment, valuation_new, ())
            return

        gap_count = n + 1
        for gaps in itertools.product(range(gap_count), repeat=len(fresh_slots)):
            for states in itertools.product(self._automaton.states, repeat=len(fresh_slots)):
                new_positions = self._insert(fragment, fresh_slots, gaps, states, next_id)
                if new_positions is None:
                    continue
                new_fragment, slot_ids = new_positions
                valuation_new = {}
                for register, target in zip(registers, targets):
                    if isinstance(target, tuple):
                        valuation_new[register] = slot_ids[target[1]]
                    else:
                        valuation_new[register] = target
                yield TheoryConfiguration.make(
                    new_fragment, valuation_new, tuple(slot_ids.values())
                )

    def _insert(
        self,
        fragment: _WordFragment,
        fresh_slots: List[int],
        gaps: Tuple[int, ...],
        states: Tuple[str, ...],
        next_id: int,
    ) -> Optional[Tuple[_WordFragment, Dict[int, int]]]:
        """Insert fresh positions into the fragment; None if the chain breaks."""
        per_gap: Dict[int, List[Tuple[int, str]]] = {}
        slot_ids: Dict[int, int] = {}
        for offset, (slot, gap, state) in enumerate(zip(fresh_slots, gaps, states)):
            slot_ids[slot] = next_id + offset
            per_gap.setdefault(gap, []).append((slot_ids[slot], state))
        new_sequence: List[Tuple[int, str]] = []
        for gap in range(len(fragment.positions) + 1):
            new_sequence.extend(per_gap.get(gap, []))
            if gap < len(fragment.positions):
                new_sequence.append(fragment.positions[gap])
        new_fragment = _WordFragment(tuple(new_sequence))
        if not self._automaton.chain_condition(new_fragment.states):
            return None
        return new_fragment, slot_ids

    # -- rendering ------------------------------------------------------------------------

    def database(self, config: TheoryConfiguration) -> Structure:
        fragment: _WordFragment = config.witness
        return _fragment_to_word_structure(fragment, self._schema, self._automaton)

    def abstraction_key(self, config: TheoryConfiguration) -> Hashable:
        fragment: _WordFragment = config.witness
        run_view = rundb(self._automaton, fragment.positions, schema=self._run_schema)
        return generic_abstraction_key(run_view, config.valuation)

    def certify(
        self, config: TheoryConfiguration
    ) -> Tuple[Structure, Dict[Element, Element], Dict[str, object]]:
        """Expand the fragment into a full accepted word (the actual witness).

        The evidence payload carries the expanded word itself, so an
        engine-independent validator can decode the witness database back into
        a word, compare it with the evidence, and re-check NFA acceptance from
        the automaton spec alone.
        """
        fragment: _WordFragment = config.witness
        states = list(fragment.states)
        full_states: List[str] = []
        fragment_index_to_full: Dict[int, int] = {}
        prefix = self._automaton._path_from_initial(states[0])
        full_states.extend(prefix[:-1])
        for position_index, state in enumerate(states):
            if position_index == 0:
                full_states.append(state)
            else:
                path = self._automaton._shortest_path(full_states[-1], state)
                if path is None:  # pragma: no cover - chain condition guarantees a path
                    raise TheoryError("fragment chain cannot be completed")
                full_states.extend(path[1:])
            fragment_index_to_full[position_index] = len(full_states) - 1
        suffix = self._automaton._path_to_accepting(full_states[-1])
        full_states.extend(suffix[1:])

        word = [self._automaton.letter[s] for s in full_states]
        database = _word_to_structure(word, self._schema)
        mapping = {
            fragment.ids[fragment_index]: full_index
            for fragment_index, full_index in fragment_index_to_full.items()
        }
        return database, mapping, {"word": list(word)}

    def describe(self) -> str:
        return (
            f"Worddb(L) for an NFA with {len(self._nfa.states)} states over "
            f"alphabet {self._automaton.alphabet}"
        )


# -- helpers ------------------------------------------------------------------------


def _fragment_to_word_structure(
    fragment: _WordFragment, schema: Schema, automaton: PositionAutomaton
) -> Structure:
    ids = list(fragment.ids)
    index_of = {p: i for i, p in enumerate(ids)}
    relations: Dict[str, set] = {
        BEFORE: {(a, b) for a in ids for b in ids if index_of[a] < index_of[b]}
    }
    for letter in automaton.alphabet:
        relations[label_predicate(letter)] = set()
    for position, state in fragment.positions:
        relations[label_predicate(automaton.letter[state])].add((position,))
    return Structure(schema, ids, relations=relations, validate=False)


def _word_to_structure(word: Sequence[str], schema: Schema) -> Structure:
    positions = list(range(len(word)))
    relations: Dict[str, set] = {BEFORE: {(i, j) for i in positions for j in positions if i < j}}
    for name in schema.relation_names:
        if name.startswith("label_"):
            relations.setdefault(name, set())
    for index, letter in enumerate(word):
        relations[label_predicate(letter)].add((index,))
    return Structure(schema, positions, relations=relations, validate=False)


def _database_to_word(database: Structure, alphabet: Sequence[str]) -> Optional[List[str]]:
    """Decode a WordSchema database back into a word (None if it is not one)."""
    elements = list(database.domain)
    before = database.relation(BEFORE)

    def less(a: object, b: object) -> bool:
        return (a, b) in before

    # Must be a strict linear order.
    for a in elements:
        if less(a, a):
            return None
        for b in elements:
            if a != b and less(a, b) == less(b, a):
                return None
    ordered = sorted(elements, key=lambda e: sum(1 for b in elements if less(b, e)))
    word: List[str] = []
    for element in ordered:
        letters = [
            letter for letter in alphabet if database.holds(label_predicate(letter), element)
        ]
        if len(letters) != 1:
            return None
        word.append(letters[0])
    return word
