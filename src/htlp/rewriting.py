"""Recursive syntactic conversion of arbitrary formulas to programs.

The pipeline first removes disjunctions through the implication encoding

    F | G   ==>   ((F -> G) -> G) & ((G -> F) -> F)

and then converts bottom-up: atoms and bot are single-rule programs,
conjunctions merge the programs of their parts, and an implication of
two programs reduces to a program again.  The reduction of a single rule
(F -> G) implying a rule (H -> K) produces the pair

    (H & (G | ~F)) -> K        H -> (K | F | ~G)

and larger antecedent programs split in half and curry.  Each step
preserves equivalence in here-and-there, so the result can always be
re-checked against the input by enumeration.

The optional simplifier cleans rules up without ever changing the model
set: constant folding, the weak De Morgan laws, splitting disjunctive
bodies, propagating body literals into the head, and dropping rules that
an enumeration over their own atoms proves tautological.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Or,
    Program,
    Rule,
    Theory,
    atoms_of,
    conj,
    disj,
    neg,
    to_text,
)
from .semantics import DEFAULT_CAP, CapExceededError, ht_valid


@dataclass(frozen=True)
class TraceStep:
    rule_name: str
    before: Formula
    after: Formula

    def render(self) -> str:
        return f"STEP {self.rule_name}: {to_text(self.before)} ==> {to_text(self.after)}"


class RewriteTrace:
    """Ordered audit log of the equivalence-preserving rewrite steps."""

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []

    def record(self, rule_name: str, before: Formula, after: Formula) -> None:
        self.steps.append(TraceStep(rule_name, before, after))

    def lines(self) -> list[str]:
        return [step.render() for step in self.steps]


def _rules_formula(rules: Iterable[Rule]) -> Formula:
    return conj(r.to_formula() for r in rules)


def eliminate_connectives(
    f: Formula, trace: Optional[RewriteTrace] = None
) -> Formula:
    """An equivalent formula over atoms, bot, & and -> only."""
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, And):
        return And(
            eliminate_connectives(f.left, trace),
            eliminate_connectives(f.right, trace),
        )
    if isinstance(f, Implies):
        return Implies(
            eliminate_connectives(f.antecedent, trace),
            eliminate_connectives(f.consequent, trace),
        )
    if isinstance(f, Or):
        left = eliminate_connectives(f.left, trace)
        right = eliminate_connectives(f.right, trace)
        expanded = And(
            Implies(Implies(left, right), right),
            Implies(Implies(right, left), left),
        )
        if trace is not None:
            trace.record("or-elim", Or(left, right), expanded)
        return expanded
    raise TypeError(f"not a formula: {f!r}")


def _implication(
    rules1: tuple[Rule, ...],
    rules2: tuple[Rule, ...],
    trace: Optional[RewriteTrace],
    simplify_steps: bool = False,
    cap: int = DEFAULT_CAP,
) -> tuple[Rule, ...]:
    if not rules1:
        return rules2
    if len(rules1) == 1:
        antecedent = rules1[0]
        if trace is not None and len(rules2) > 1:
            trace.record(
                "lemma2-split",
                Implies(antecedent.to_formula(), _rules_formula(rules2)),
                conj(
                    Implies(antecedent.to_formula(), r.to_formula())
                    for r in rules2
                ),
            )
        out: list[Rule] = []
        for r in rules2:
            first = Rule(And(r.body, Or(antecedent.head, neg(antecedent.body))), r.head)
            second = Rule(r.body, Or(Or(r.head, antecedent.body), neg(antecedent.head)))
            if trace is not None:
                trace.record(
                    "lemma1",
                    Implies(antecedent.to_formula(), r.to_formula()),
                    And(first.to_formula(), second.to_formula()),
                )
            out.append(first)
            out.append(second)
        if simplify_steps:
            # Cleaning up right away keeps the antecedent rule count small
            # through the currying recursion; raw growth is exponential.
            return _simplify_rules(tuple(out), trace, cap)
        return tuple(out)
    # Balanced split keeps the recursion depth logarithmic.
    half = len(rules1) // 2
    outer, inner = rules1[:half], rules1[half:]
    if trace is not None:
        trace.record(
            "currying",
            Implies(_rules_formula(rules1), _rules_formula(rules2)),
            Implies(
                _rules_formula(outer),
                Implies(_rules_formula(inner), _rules_formula(rules2)),
            ),
        )
    composed = _implication(inner, rules2, trace, simplify_steps, cap)
    return _implication(outer, composed, trace, simplify_steps, cap)


def _convert(
    f: Formula,
    simplify_steps: bool,
    trace: Optional[RewriteTrace],
    cap: int,
) -> tuple[Rule, ...]:
    if isinstance(f, Atom):
        return (Rule(TOP, f),)
    if isinstance(f, Bottom):
        return (Rule(TOP, BOT),)
    if isinstance(f, And):
        left = _convert(f.left, simplify_steps, trace, cap)
        right = _convert(f.right, simplify_steps, trace, cap)
        merged = left + right
        if trace is not None:
            trace.record(
                "conj-merge",
                And(_rules_formula(left), _rules_formula(right)),
                _rules_formula(merged),
            )
        if simplify_steps:
            merged = tuple(dict.fromkeys(merged))
        return merged
    if isinstance(f, Implies):
        return _implication(
            _convert(f.antecedent, simplify_steps, trace, cap),
            _convert(f.consequent, simplify_steps, trace, cap),
            trace,
            simplify_steps,
            cap,
        )
    raise AssertionError("disjunctions must be eliminated before conversion")


def formula_to_program_syn(
    f: Formula,
    simplify: bool = False,
    trace: Optional[RewriteTrace] = None,
    cap: int = DEFAULT_CAP,
) -> Program:
    """A program equivalent to f in here-and-there, by syntactic rewriting.

    With simplify=True every intermediate implication reduction is
    cleaned up before the recursion continues, the way one would work by
    hand; the default emits the literal construction.  Rules may still
    have nested bodies and heads either way.
    """
    no_or = eliminate_connectives(f, trace)
    rules = _convert(no_or, simplify, trace, cap)
    return Program(rules, atoms_of(f))


#: estimated_rule_count saturates here; below it the count is exact.
RULE_COUNT_CEILING = 1 << 64


def estimated_rule_count(f: Formula) -> int:
    """Rule count of the literal (unsimplified) construction, saturating.

    An implication of programs with m and n rules produces 2^m * n rules,
    and F | G is encoded as ((F -> G) -> G) & ((G -> F) -> F), so nested
    implications and disjunctions grow doubly exponentially.  The count is
    exact below RULE_COUNT_CEILING and is RULE_COUNT_CEILING otherwise:
    every step is at least as large as its operands, so a saturated step
    can only lead to a saturated result.  The count never encodes the
    disjunctions and never computes a number beyond the ceiling squared,
    so it is cheap even where the construction is infeasible.
    """

    def implication(m: int, n: int) -> int:
        if m >= RULE_COUNT_CEILING.bit_length():
            return RULE_COUNT_CEILING
        return min(RULE_COUNT_CEILING, (1 << m) * n)

    def count(g: Formula) -> int:
        if isinstance(g, (Atom, Bottom)):
            return 1
        if isinstance(g, Implies):
            return implication(count(g.antecedent), count(g.consequent))
        if isinstance(g, And):
            return min(RULE_COUNT_CEILING, count(g.left) + count(g.right))
        if isinstance(g, Or):
            left, right = count(g.left), count(g.right)
            return min(
                RULE_COUNT_CEILING,
                implication(implication(left, right), right)
                + implication(implication(right, left), left),
            )
        raise TypeError(f"not a formula: {g!r}")

    return count(f)


def theory_to_program_syn(
    t: Theory,
    simplify: bool = False,
    trace: Optional[RewriteTrace] = None,
    cap: int = DEFAULT_CAP,
) -> Program:
    """Formula-by-formula syntactic conversion of a theory, unioned."""
    rules: dict[Rule, None] = {}
    for f in t.formulas:
        rules.update(
            dict.fromkeys(_convert(eliminate_connectives(f, trace), simplify, trace, cap))
        )
    return Program(tuple(rules), t.signature)


# --- simplification ----------------------------------------------------

def _normalize(f: Formula) -> Formula:
    """Constant folding, weak De Morgan, and triple-negation collapse.

    Double negations are kept: ~~F is not equivalent to F here.
    """
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, And):
        left, right = _normalize(f.left), _normalize(f.right)
        if left == BOT or right == BOT:
            return BOT
        if left == TOP:
            return right
        if right == TOP:
            return left
        return And(left, right)
    if isinstance(f, Or):
        left, right = _normalize(f.left), _normalize(f.right)
        if left == TOP or right == TOP:
            return TOP
        if left == BOT:
            return right
        if right == BOT:
            return left
        return Or(left, right)
    if isinstance(f, Implies):
        if f.consequent == BOT:
            inner = _normalize(f.antecedent)
            if inner == BOT:
                return TOP
            if inner == TOP:
                return BOT
            if isinstance(inner, And):
                return _normalize(Or(neg(inner.left), neg(inner.right)))
            if isinstance(inner, Or):
                return _normalize(And(neg(inner.left), neg(inner.right)))
            if (
                isinstance(inner, Implies)
                and inner.consequent == BOT
                and isinstance(inner.antecedent, Implies)
                and inner.antecedent.consequent == BOT
            ):
                return neg(inner.antecedent.antecedent)
            return neg(inner)
        # Implications with a non-bot consequent occur only at the rule
        # level, never inside nested expressions.
        return Implies(_normalize(f.antecedent), _normalize(f.consequent))
    raise TypeError(f"not a formula: {f!r}")


def _flatten_and(f: Formula) -> list[Formula]:
    if f == TOP:
        return []
    if isinstance(f, And):
        return _flatten_and(f.left) + _flatten_and(f.right)
    return [f]


def _flatten_or(f: Formula) -> list[Formula]:
    if f == BOT:
        return []
    if isinstance(f, Or):
        return _flatten_or(f.left) + _flatten_or(f.right)
    return [f]


def _is_negation(f: Formula) -> bool:
    return isinstance(f, Implies) and f.consequent == BOT


def _rule_ht_valid(rule: Rule, cap: int) -> bool:
    try:
        return ht_valid(rule.to_formula(), cap)
    except CapExceededError:
        return False  # too big to check, keep the rule


def _propagate_units(
    d: Formula, unit_set: set[Formula]
) -> Optional[Formula]:
    """Rewrite one head disjunct under the body units, None when dead."""
    if neg(d) in unit_set:
        return None
    if _is_negation(d) and d.antecedent in unit_set:
        return None
    if isinstance(d, And):
        kept = []
        for c in _flatten_and(d):
            if c in unit_set:
                continue
            if neg(c) in unit_set:
                return None
            if _is_negation(c) and c.antecedent in unit_set:
                return None
            kept.append(c)
        return conj(kept)  # TOP when everything was implied by the body
    return d


def _simplify_head(
    units: list[Formula], head: Formula, cap: int
) -> Optional[Rule]:
    """The cleaned-up rule for one body branch, None when tautological."""
    unit_set = set(units)
    kept: list[Formula] = []
    trigger = False
    for d in _flatten_or(head):
        replacement = _propagate_units(d, unit_set)
        if replacement is None:
            continue
        if replacement == TOP or replacement in unit_set:
            trigger = True
        kept.append(replacement)
    kept = list(dict.fromkeys(kept))
    head_pos = {d.name for d in kept if isinstance(d, Atom)}
    head_negs = {
        d.antecedent.name
        for d in kept
        if _is_negation(d) and isinstance(d.antecedent, Atom)
    }
    if head_pos & head_negs:
        trigger = True
    rule = Rule(conj(units), disj(kept))
    if trigger and _rule_ht_valid(rule, cap):
        return None
    return rule


def _simplify_rule(
    r: Rule, trace: Optional[RewriteTrace], cap: int
) -> list[Rule]:
    body = _normalize(r.body)
    head = _normalize(r.head)
    results: list[Rule] = []
    if body == BOT or head == TOP:
        _record_simplify(trace, r, results)
        return results
    choices = [_flatten_or(factor) for factor in _flatten_and(body)]
    for combo in itertools.product(*choices):
        units = list(dict.fromkeys(combo))
        unit_set = set(units)
        if any(neg(u) in unit_set for u in units):
            continue  # contradictory branch of the body
        cleaned = _simplify_head(units, head, cap)
        if cleaned is not None:
            results.append(cleaned)
    _record_simplify(trace, r, results)
    return results


def _record_simplify(
    trace: Optional[RewriteTrace], before: Rule, results: list[Rule]
) -> None:
    if trace is None:
        return
    if len(results) == 1 and results[0] == before:
        return
    name = "simplify-rewrite" if results else "simplify-drop-taut"
    trace.record(name, before.to_formula(), _rules_formula(results))


def _simplify_rules(
    rules: tuple[Rule, ...], trace: Optional[RewriteTrace], cap: int
) -> tuple[Rule, ...]:
    out: list[Rule] = []
    for r in rules:
        out.extend(_simplify_rule(r, trace, cap))
    deduped = tuple(dict.fromkeys(out))
    if trace is not None and len(deduped) != len(out):
        trace.record("simplify-dedup", _rules_formula(out), _rules_formula(deduped))
    return deduped


def simplify(
    p: Program, cap: int = DEFAULT_CAP, trace: Optional[RewriteTrace] = None
) -> Program:
    """Equivalence-preserving cleanup; never changes the model set."""
    return Program(_simplify_rules(tuple(p.rules), trace, cap), p.signature)
