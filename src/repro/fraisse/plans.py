"""Compiled transition plans: per-``(system, theory)`` guard compilation.

The engine's hot loop used to evaluate every transition guard from scratch
for every candidate a theory enumerated: build the successor database, build
a combined register valuation, walk the formula tree.  Profiles of the HOM
scaling workload showed >95% of that work being discarded -- most candidates
are register shuffles or witness extensions the guard rejects immediately.

A :class:`TransitionPlan` moves all per-guard work to a single compilation
step per ``(theory, transition)`` pair:

* the guard's boolean skeleton is compiled once into closures by the shared
  three-valued connective compiler (:mod:`repro.logic.threevalued`); atoms
  become closures over a :class:`DeltaContext` -- a register valuation pair
  plus a three-valued *fact oracle* supplied by the theory;
* conjuncts and disjuncts are *selectivity-ordered* (constants, then
  equalities, then relation atoms by arity) so the cheapest, most decisive
  atoms run first -- applied only when every atom compiles, in which case
  the evaluation is two-valued and order-independent, so the reordering is
  observationally equivalent to the source order;
* the guard's fully-register-instantiated relation atoms are extracted once
  as *templates* (symbol plus ``(old|new, register)`` argument slots), so
  theories resolve the guard-relevant tuples of a step by dictionary lookups
  instead of re-walking the formula per candidate;
* for a decisive guard, its top-level conjuncts that are such atoms or their
  negations are extracted once more as *literal templates*: a literal whose
  tuple touches a fresh element fixes whether that tuple is in every
  satisfying candidate, so the relational enumeration forces it instead of
  testing every tuple subset.

Plans drive the *incremental candidate* protocol of
:class:`~repro.fraisse.base.DatabaseTheory` (``enumerate_deltas`` /
``apply_delta``): guards are checked against the step's delta -- the new
tuples and the valuation change -- *before* the successor database is
materialized and canonicalized.  A candidate whose compiled guard evaluates
to ``False`` is rejected pre-materialization; ``True`` skips the engine's
authoritative evaluation entirely; :data:`~repro.logic.threevalued.UNKNOWN`
(guards mentioning symbols the delta view cannot decide, e.g. data-value
relations) makes the engine build the candidate and evaluate the guard on
its full database, so the conservative semantics of the reference
enumerations' pre-filters is preserved exactly.

Compiled guards are memoised on the theory instance
(``engine_transition_plans`` in :mod:`repro.perf`) keyed by the guard
formula, like every other engine cache: a batch job rebuilds its theory
from its spec, so a long-lived :class:`~repro.service.runner.BatchRunner`
worker holds no compiled guard of a finished job.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.logic.formulas import (
    And,
    Equality,
    FalseFormula,
    Formula,
    Not,
    Or,
    RelationAtom,
    TrueFormula,
)
from repro.logic.schema import Schema
from repro.logic.terms import FuncTerm, Term, Var
from repro.logic.threevalued import UNKNOWN, compile_three_valued, unknown_node
from repro.perf import BoundedCache
from repro.systems.dds import NEW_SUFFIX, OLD_SUFFIX, Transition

#: Argument slot of a template atom: ("old" | "new", register name).
TemplateSlot = Tuple[str, str]

#: A guard relation atom with every argument a register variable.
AtomTemplate = Tuple[str, Tuple[TemplateSlot, ...]]

#: A top-level guard conjunct that is such an atom (True) or its negation (False).
LiteralTemplate = Tuple[str, Tuple[TemplateSlot, ...], bool]


class DeltaContext:
    """The evaluation context compiled guard closures run against.

    ``value_old`` / ``value_new`` map registers to elements (the valuation
    before and after the step).  ``fact(symbol, elements)`` is the theory's
    three-valued oracle for "does this tuple hold in the successor
    database?"; ``term(symbol, elements)`` resolves theory function symbols
    (e.g. the tree theory's ``cca``).  One mutable instance is reused across
    an enumeration: theories update the fields in place per candidate.
    """

    __slots__ = ("value_old", "value_new", "fact", "term")

    def __init__(
        self,
        value_old: Optional[Dict[str, Any]] = None,
        value_new: Optional[Dict[str, Any]] = None,
        fact: Optional[Callable[[str, Tuple[Any, ...]], Any]] = None,
        term: Optional[Callable[[str, Tuple[Any, ...]], Any]] = None,
    ) -> None:
        self.value_old = value_old
        self.value_new = value_new
        self.fact = fact
        self.term = term


# -- term and atom compilation ---------------------------------------------------


def _compile_term(term: Term, function_symbols: FrozenSet[str]):
    """Compile a term to a context closure, or None if it cannot resolve."""
    if isinstance(term, Var):
        name = term.name
        if name.endswith(OLD_SUFFIX):
            register = name[: -len(OLD_SUFFIX)]
            return lambda context: context.value_old.get(register, UNKNOWN)
        if name.endswith(NEW_SUFFIX):
            register = name[: -len(NEW_SUFFIX)]
            return lambda context: context.value_new.get(register, UNKNOWN)
        return None
    if isinstance(term, FuncTerm) and term.symbol in function_symbols:
        compiled_args = [_compile_term(a, function_symbols) for a in term.args]
        if any(c is None for c in compiled_args):
            return None
        symbol = term.symbol

        def eval_func(context):
            values = []
            for compiled in compiled_args:
                value = compiled(context)
                if value is UNKNOWN:
                    return UNKNOWN
                values.append(value)
            return context.term(symbol, tuple(values))

        return eval_func
    return None


class _AtomCompiler:
    """Compiles atoms to context closures, tracking whether all of them did."""

    __slots__ = ("schema", "function_symbols", "decisive")

    def __init__(self, schema: Schema, function_symbols: FrozenSet[str]) -> None:
        self.schema = schema
        self.function_symbols = function_symbols
        self.decisive = True

    def __call__(self, formula: Formula):
        if isinstance(formula, Equality):
            left = _compile_term(formula.left, self.function_symbols)
            right = _compile_term(formula.right, self.function_symbols)
            if left is None or right is None:
                self.decisive = False
                return unknown_node

            def eval_eq(context):
                a = left(context)
                if a is UNKNOWN:
                    return UNKNOWN
                b = right(context)
                if b is UNKNOWN:
                    return UNKNOWN
                return a == b

            return eval_eq
        if isinstance(formula, RelationAtom):
            symbol = formula.symbol
            if (
                not self.schema.has_relation(symbol)
                or len(formula.args) != self.schema.relation(symbol).arity
            ):
                self.decisive = False
                return unknown_node
            compiled_args = [_compile_term(a, self.function_symbols) for a in formula.args]
            if any(c is None for c in compiled_args):
                self.decisive = False
                return unknown_node

            def eval_rel(context):
                values = []
                for compiled in compiled_args:
                    value = compiled(context)
                    if value is UNKNOWN:
                        return UNKNOWN
                    values.append(value)
                return context.fact(symbol, tuple(values))

            return eval_rel
        self.decisive = False
        return unknown_node


# -- selectivity ordering --------------------------------------------------------


def _selectivity_rank(formula: Formula) -> int:
    """Static evaluation-cost/selectivity estimate (lower runs first)."""
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return 0
    if isinstance(formula, Equality):
        return 1
    if isinstance(formula, Not):
        return 1 + _selectivity_rank(formula.operand)
    if isinstance(formula, RelationAtom):
        return 4 + len(formula.args)
    if isinstance(formula, (And, Or)):
        return max((_selectivity_rank(operand) for operand in formula.operands), default=0)
    return 100


def _reorder_by_selectivity(formula: Formula) -> Formula:
    """Stable-sort And/Or operands so cheap, decisive atoms evaluate first.

    Only applied to fully compilable guards, where evaluation is two-valued
    and therefore order-independent; three-valued guards keep the source
    order so the UNKNOWN short-circuit behaviour matches the reference
    pre-filters exactly.
    """
    if isinstance(formula, And):
        return And(
            tuple(
                sorted(
                    (_reorder_by_selectivity(op) for op in formula.operands),
                    key=_selectivity_rank,
                )
            )
        )
    if isinstance(formula, Or):
        return Or(
            tuple(
                sorted(
                    (_reorder_by_selectivity(op) for op in formula.operands),
                    key=_selectivity_rank,
                )
            )
        )
    if isinstance(formula, Not):
        return Not(_reorder_by_selectivity(formula.operand))
    return formula


# -- compiled guards -------------------------------------------------------------


class CompiledGuard:
    """A guard compiled once: evaluator closure plus register-atom templates.

    ``atom_templates`` lists every relation atom of the guard whose arguments
    are all register variables.  ``literal_templates`` lists the top-level
    conjuncts that are such an atom or its negation, with their polarity;
    it is empty unless the guard is ``decisive`` (every atom compiled), the
    only case in which a violated conjunct makes the evaluation ``False``
    rather than :data:`~repro.logic.threevalued.UNKNOWN`.  Both are
    extracted once, here, and live exactly as long as the compiled guard.
    """

    __slots__ = ("formula", "evaluator", "decisive", "atom_templates", "literal_templates")

    def __init__(
        self,
        formula: Formula,
        evaluator: Callable[[DeltaContext], Any],
        decisive: bool,
        atom_templates: Tuple[AtomTemplate, ...],
        literal_templates: Tuple[LiteralTemplate, ...] = (),
    ) -> None:
        self.formula = formula
        self.evaluator = evaluator
        self.decisive = decisive
        self.atom_templates = atom_templates
        self.literal_templates = literal_templates


def _register_slots(atom: RelationAtom) -> Optional[Tuple[TemplateSlot, ...]]:
    """The atom's argument slots, or None unless every argument is a register."""
    slots: List[TemplateSlot] = []
    for term in atom.args:
        if not isinstance(term, Var):
            return None
        name = term.name
        if name.endswith(OLD_SUFFIX):
            slots.append(("old", name[: -len(OLD_SUFFIX)]))
        elif name.endswith(NEW_SUFFIX):
            slots.append(("new", name[: -len(NEW_SUFFIX)]))
        else:
            return None
    return tuple(slots)


def _atom_templates(guard: Formula) -> Tuple[AtomTemplate, ...]:
    """Relation atoms whose arguments are all register variables, as slots."""
    templates: List[AtomTemplate] = []
    for atom in guard.atoms():
        if isinstance(atom, RelationAtom):
            slots = _register_slots(atom)
            if slots is not None:
                templates.append((atom.symbol, slots))
    return tuple(templates)


def _literal_templates(guard: Formula) -> Tuple[LiteralTemplate, ...]:
    """Top-level conjuncts of ``guard`` that are register atoms or their negations."""
    literals: List[LiteralTemplate] = []
    pending = [guard]
    while pending:
        formula = pending.pop()
        if isinstance(formula, And):
            pending.extend(reversed(formula.operands))
            continue
        positive = not isinstance(formula, Not)
        atom = formula if positive else formula.operand
        if isinstance(atom, RelationAtom):
            slots = _register_slots(atom)
            if slots is not None:
                literals.append((atom.symbol, slots, positive))
    return tuple(literals)


def compile_guard(
    guard: Formula, schema: Schema, function_symbols: FrozenSet[str] = frozenset()
) -> CompiledGuard:
    """Compile ``guard`` against ``schema`` into a :class:`CompiledGuard`.

    Decisiveness is determined by the atom compiler itself: the guard is
    compiled once in source order, and only when every atom compiled (so
    evaluation is two-valued and order-independent) is it recompiled
    selectivity-ordered.  Guards with undecidable atoms keep source order,
    preserving the reference pre-filters' UNKNOWN short-circuit semantics.
    """
    compiler = _AtomCompiler(schema, function_symbols)
    evaluator = compile_three_valued(guard, compiler)
    if compiler.decisive:
        evaluator = compile_three_valued(
            _reorder_by_selectivity(guard), _AtomCompiler(schema, function_symbols)
        )
    return CompiledGuard(
        guard,
        evaluator,
        compiler.decisive,
        _atom_templates(guard),
        _literal_templates(guard) if compiler.decisive else (),
    )


def compiled_guard_for(theory, guard: Formula) -> Optional[CompiledGuard]:
    """Fetch (or compile) ``theory``'s plan guard for ``guard``; None when unsupported.

    Compiled guards are memoised on the theory instance, so they live
    exactly as long as it does.  Returns None when the theory does not
    expose a plan schema.
    """
    schema = theory.plan_guard_schema()
    if schema is None:
        return None
    function_symbols = theory.plan_function_symbols()
    cache = getattr(theory, "_compiled_guards", None)
    if cache is None:
        cache = BoundedCache("engine_transition_plans", cap=1 << 10)
        theory._compiled_guards = cache
    return cache.get_or_compute(guard, lambda: compile_guard(guard, schema, function_symbols))


# -- plans -----------------------------------------------------------------------


class PlanStatistics:
    """Per-plan counters collected while the engine drives one search."""

    __slots__ = (
        "deltas_enumerated",
        "rejected_pre_materialization",
        "compiled_guard_hits",
        "fallback_evaluations",
        "enumeration_pruned",
    )

    def __init__(self) -> None:
        self.deltas_enumerated = 0
        #: Candidates the compiled guard rejected before the successor
        #: database was materialized or canonicalized.
        self.rejected_pre_materialization = 0
        #: Candidates whose guard the compiled evaluator decided True, so the
        #: engine skipped the authoritative full-database evaluation.
        self.compiled_guard_hits = 0
        #: Candidates the compiled evaluator could not decide (UNKNOWN);
        #: the engine materialized the database and evaluated authoritatively.
        self.fallback_evaluations = 0
        #: Enumeration branches the theory evaluated and pruned internally
        #: (register assignments or tuple-subset choices whose guard can
        #: never hold); the reference enumeration's pre-filters prune the
        #: same branches, so these never surface as candidates.  Tuple
        #: subsets a forced literal excludes are never generated, so never
        #: counted.
        self.enumeration_pruned = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "deltas_enumerated": self.deltas_enumerated,
            "rejected_pre_materialization": self.rejected_pre_materialization,
            "compiled_guard_hits": self.compiled_guard_hits,
            "fallback_evaluations": self.fallback_evaluations,
            "enumeration_pruned": self.enumeration_pruned,
        }


class TransitionPlan:
    """One transition's compiled guard plus its per-run counters."""

    __slots__ = ("transition", "compiled", "stats")

    def __init__(self, transition: Transition, compiled: Optional[CompiledGuard]) -> None:
        self.transition = transition
        self.compiled = compiled
        self.stats = PlanStatistics()

    @property
    def decisive(self) -> bool:
        return self.compiled is not None and self.compiled.decisive

    def describe(self) -> str:
        mode = (
            "uncompiled"
            if self.compiled is None
            else "decisive" if self.compiled.decisive else "partial"
        )
        return f"{self.transition} [{mode}]"


class PlanSet:
    """All transition plans of one ``(system, theory)`` pair."""

    __slots__ = ("_plans",)

    def __init__(self, system, theory) -> None:
        self._plans: Dict[Transition, TransitionPlan] = {}
        for transition in system.transitions:
            if transition in self._plans:
                continue
            compiled = compiled_guard_for(theory, transition.guard)
            self._plans[transition] = TransitionPlan(transition, compiled)

    def plan_for(self, transition: Transition) -> TransitionPlan:
        plan = self._plans.get(transition)
        if plan is None:
            # Systems are immutable, but guard against exotic callers.
            plan = TransitionPlan(transition, None)
            self._plans[transition] = plan
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def __iter__(self) -> Iterator[TransitionPlan]:
        return iter(self._plans.values())

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-plan counters keyed by the transition's display form."""
        return {str(plan.transition): plan.stats.as_dict() for plan in self}


def compile_plans(system, theory) -> PlanSet:
    """Compile every transition of ``system`` against ``theory`` once."""
    return PlanSet(system, theory)


def prime_plans(system, theory) -> int:
    """Compile ``system``'s guards into ``theory``'s compiled-guard memo.

    Used by batch-service workers before running a job, so the engine's own
    plan compilation for the job hits the memo and the timed run excludes
    compilation.  Returns the number of plans whose guard compiled.
    """
    plan_set = compile_plans(system, theory)
    return sum(1 for plan in plan_set if plan.compiled is not None)
