"""Syntactic conversion of arbitrary formulas to programs.

The pipeline first removes disjunctions through the implication encoding

    F | G   ==>   ((F -> G) -> G) & ((G -> F) -> F)

and then converts bottom-up, in one postorder walk with an explicit
stack (formula._postorder), so neither pass recurses on the formula's
depth, though the simplifier's normalizer and the rules' hashes recurse
on the sides of the rules.  Atoms and bot are single-rule programs,
conjunctions merge the programs of their parts, and an implication of
two programs reduces to a program again.  The reduction of a single
rule (F -> G) implying a rule (H -> K) produces the pair

    (H & (G | ~F)) -> K        H -> (K | F | ~G)

and larger antecedent programs split in half and curry.  Each step
preserves equivalence in here-and-there, so the result can always be
re-checked against the input by enumeration.  The raw construction
grows doubly exponentially with the nesting of | and ->, so it raises
RuleBudgetExceededError up front when estimated_rule_count is past
RAW_RULE_BUDGET.

A simplified translation does not run Lemma 1 on the encoding of a
disjunction.  Its walk recognises the encoded shape, converts F and G once
each and distributes | over every pair of their rules B -> H and
C -> G, by the HT identities (HT is closed under substitution, so they
hold for nested B, H, C, G):

    H | G               ==  {H | G}
    (B -> H) | K        ==  {B -> H | K,  ~H -> ~B | K}
    (B -> H) | (C -> G) ==  {B & C -> H | G,    ~H & C -> ~B | G,
                             B & ~G -> H | ~C,  ~H & ~G -> ~B | ~C}

The optional simplifier cleans rules up without ever changing the model
set: constant folding, the weak De Morgan laws, splitting disjunctive
bodies into branches and each branch into its conjuncts, the units,
propagating the units into the head, and dropping the tautologies
F -> ~~F and ~F | ~~F.  It decides validity by syntax alone, never by
evaluating a rule, so its output never depends on a cap.  The unit tests
of a branch (u and ~u in the body, a head item the body makes false, a
head holding a unit) look up its unit dict and the set of formulas its
units negate; on nonnested rules they drop exactly the valid ones.  Its
normalizer is one bottom-up pass that combines parts already normalized,
with a memo per run, so a subtree that rules share is normalized once.
Every rule the simplifier emits has normalized sides, so Lemma 1 builds
its sides normalized from them; only simplify()'s input and the
distributed rules of a disjunction are normalized.  A simplified
translation counts the rules its Lemma 1 and distribution steps build
and the body branches the simplifier expands, and raises
RuleBudgetExceededError past SIMPLIFY_RULE_BUDGET.

Each public entry point builds one run object, _Run, and hands it to
every step: the trace that records the steps and the rule limit with
the count spent against it.  A limit of None marks the raw construction:
conjunctions keep their duplicate rules, encoded disjunctions are not
recognised, Lemma 1's output is not cleaned up, and spend() counts
nothing.  The public simplify() runs the cleanup alone, under such an
uncounted run.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

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
    Value,
    _is_top,
    _operands,
    _postorder,
    atoms_of,
    conj,
    disj,
    neg,
    to_text,
)


class TraceStep(Value):
    __slots__ = __match_args__ = ("rule_name", "before", "after")

    def __init__(self, rule_name: str, before: Formula, after: Formula) -> None:
        object.__setattr__(self, "rule_name", rule_name)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)

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
    f: Formula, trace: RewriteTrace | None = None
) -> Formula:
    """An equivalent formula over atoms, bot, & and -> only."""
    values: list[Formula] = []
    for node in _postorder(f):
        if type(node) is Atom or type(node) is Bottom:
            values.append(node)
            continue
        right, left = values.pop(), values.pop()
        if node is not Or:
            values.append(node(left, right))
            continue
        expanded = And(
            Implies(Implies(left, right), right),
            Implies(Implies(right, left), left),
        )
        if trace is not None:
            trace.record("or-elim", Or(left, right), expanded)
        values.append(expanded)
    return values[0]


#: The most rules the raw syntactic translation may build; checked up
#: front with estimated_rule_count.  At 4096 building and printing them
#: takes about 3 s on a 2-vCPU Xeon VM, at 8192 up to 8 s.
RAW_RULE_BUDGET = 4096

#: The most rules one simplified syntactic translation may build: the
#: rules of every Lemma 1 and distribution step plus the body branches
#: the simplifier expands.  Sized from measurements in CHANGES.md: at
#: least ten times the largest count seen on the benchmark's seeds, the
#: test corpora and the property tests.
SIMPLIFY_RULE_BUDGET = 50_000


class RuleBudgetExceededError(Exception):
    """A syntactic translation would build more rules than its budget."""


class _Run:
    """The trace and rule budget of one translation; limit None is raw."""

    __slots__ = ("trace", "limit", "spent", "memo")

    def __init__(self, trace: RewriteTrace | None, limit: int | None = None) -> None:
        self.trace = trace
        self.limit = limit
        self.spent = 0
        # id(node) -> (node, normal form); holding node keeps its id unique.
        self.memo: dict[int, tuple[Formula, Formula]] = {}

    @classmethod
    def start(
        cls, formulas: Iterable[Formula], simplify: bool, trace: RewriteTrace | None
    ) -> _Run:
        """A simplified run within SIMPLIFY_RULE_BUDGET, or a raw one once the
        estimate of its size is within RAW_RULE_BUDGET."""
        if simplify:
            return cls(trace, SIMPLIFY_RULE_BUDGET)
        needed = sum(estimated_rule_count(f) for f in formulas)
        if needed > RAW_RULE_BUDGET:
            at_least = "at least " if needed >= RULE_COUNT_CEILING else ""
            raise RuleBudgetExceededError(
                f"the raw syntactic translation has {at_least}{needed} rules, "
                f"over the budget of {RAW_RULE_BUDGET}"
            )
        return cls(trace)

    def spend(self, rules: int) -> None:
        """Count rules against the limit; a raw run counts nothing."""
        if self.limit is None:
            return
        self.spent += rules
        if self.spent > self.limit:
            raise RuleBudgetExceededError(
                "the simplified syntactic translation builds more than "
                f"{self.limit} rules and body branches"
            )


def _implication(
    rules1: tuple[Rule, ...], rules2: tuple[Rule, ...], run: _Run
) -> tuple[Rule, ...]:
    """The rules of rules1 -> rules2."""
    if not rules1:
        return rules2
    trace = run.trace
    if len(rules1) == 1:
        run.spend(2 * len(rules2))
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
        b, h = antecedent.body, antecedent.head
        # Lemma 1's rules as built: the raw output, and what the trace shows.
        built: list[Rule | None] = []
        if run.limit is None or trace is not None:
            for r in rules2:
                first = Rule(And(r.body, Or(h, neg(b))), r.head)
                second = Rule(r.body, Or(Or(r.head, b), neg(h)))
                if trace is not None:
                    trace.record(
                        "lemma1",
                        Implies(antecedent.to_formula(), r.to_formula()),
                        And(first.to_formula(), second.to_formula()),
                    )
                built += (first, second)
        if run.limit is None:
            return tuple(built)
        built = built or [None] * (2 * len(rules2))
        # Every rule here has normalized sides, so Lemma 1's sides are built
        # normalized from them, not normalized again.  Cleaning up right
        # away keeps the antecedent rule count small through the currying
        # recursion; raw growth is exponential.
        g_or_not_f, not_g = _or(h, _not(b)), _not(h)
        out: list[Rule] = []
        for r, first, second in zip(rules2, built[::2], built[1::2]):
            out += _simplify_sides(first, _and(r.body, g_or_not_f), r.head, run)
            out += _simplify_sides(second, r.body, _or(_or(r.head, b), not_g), run)
        return _deduped(out, run)
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
    composed = _implication(inner, rules2, run)
    return _implication(outer, composed, run)


def _same(f: Formula, g: Formula) -> bool:
    return f is g or f == g


def _encoded_disjunction(f: And) -> tuple[Formula, Formula] | None:
    """(F, G) when f is eliminate_connectives' ((F -> G) -> G) & ((G -> F) -> F).

    Identity settles the common case; re-eliminating an eliminated
    formula rebuilds the nodes, so equal copies must match too.
    """
    first, second = f.left, f.right
    if type(first) is not Implies or type(second) is not Implies:
        return None
    forward, backward = first.antecedent, second.antecedent
    if type(forward) is not Implies or type(backward) is not Implies:
        return None
    left, right = forward.antecedent, forward.consequent
    if (
        _same(first.consequent, right)
        and _same(backward.antecedent, right)
        and _same(backward.consequent, left)
        and _same(second.consequent, left)
    ):
        return left, right
    return None


def _rule_disjunction(r: Rule, s: Rule) -> tuple[Rule, ...]:
    """Rules equivalent in HT to (B -> H) | (C -> G), for r = B -> H, s = C -> G."""
    b, h, c, g = r.body, r.head, s.body, s.head
    if _is_top(b) and _is_top(c):
        return (Rule(TOP, Or(h, g)),)
    if _is_top(c):
        return (Rule(b, Or(h, g)), Rule(neg(h), Or(neg(b), g)))
    if _is_top(b):
        return (Rule(c, Or(h, g)), Rule(neg(g), Or(h, neg(c))))
    return (
        Rule(And(b, c), Or(h, g)),
        Rule(And(neg(h), c), Or(neg(b), g)),
        Rule(And(b, neg(g)), Or(h, neg(c))),
        Rule(And(neg(h), neg(g)), Or(neg(b), neg(c))),
    )


def _disjunction(
    rules1: tuple[Rule, ...], rules2: tuple[Rule, ...], run: _Run
) -> tuple[Rule, ...]:
    """The rules of rules1 | rules2: | distributed over every pair of rules."""
    run.spend(4 * len(rules1) * len(rules2))
    out = tuple(
        rule for r in rules1 for s in rules2 for rule in _rule_disjunction(r, s)
    )
    if run.trace is not None:
        run.trace.record(
            "or-distribute",
            Or(_rules_formula(rules1), _rules_formula(rules2)),
            _rules_formula(out),
        )
    return _simplify_rules(out, run)


def _convert(f: Formula, run: _Run) -> tuple[Rule, ...]:
    """The rules of f, a formula without |, bottom up; a simplified run
    walks an encoded disjunction as F | G."""
    raw = run.limit is None
    values: list[tuple[Rule, ...]] = []
    for node in _postorder(f, None if raw else _encoded_disjunction):
        if type(node) is Atom or type(node) is Bottom:
            values.append((Rule(TOP, node),))
            continue
        right, left = values.pop(), values.pop()
        if node is Implies:
            values.append(_implication(left, right, run))
        elif node is Or:
            values.append(_disjunction(left, right, run))
        else:
            merged = left + right
            if run.trace is not None:
                run.trace.record(
                    "conj-merge",
                    And(_rules_formula(left), _rules_formula(right)),
                    _rules_formula(merged),
                )
            values.append(merged if raw else tuple(dict.fromkeys(merged)))
    return values[0]


def formula_to_program_syn(
    f: Formula, simplify: bool = False, trace: RewriteTrace | None = None
) -> Program:
    """A program equivalent to f in here-and-there, by syntactic rewriting.

    With simplify=True disjunctions are distributed over the rules of
    their sides, and every intermediate reduction is cleaned up before
    the recursion continues, the way one would work by hand, within
    SIMPLIFY_RULE_BUDGET; the default emits the literal construction
    within RAW_RULE_BUDGET.  Rules may still have nested bodies and heads
    either way.
    """
    run = _Run.start((f,), simplify, trace)
    rules = _convert(eliminate_connectives(f, trace), run)
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
    values: list[int] = []
    for node in _postorder(f):
        if type(node) is Atom or type(node) is Bottom:
            values.append(1)
            continue
        right, left = values.pop(), values.pop()
        if node is Implies:
            count = _saturated_implication(left, right)
        elif node is And:
            count = left + right
        else:
            count = _saturated_implication(_saturated_implication(left, right), right)
            count += _saturated_implication(_saturated_implication(right, left), left)
        values.append(min(RULE_COUNT_CEILING, count))
    return values[0]


def _saturated_implication(m: int, n: int) -> int:
    """2^m * n, at most RULE_COUNT_CEILING."""
    if m >= RULE_COUNT_CEILING.bit_length():
        return RULE_COUNT_CEILING
    return min(RULE_COUNT_CEILING, (1 << m) * n)


def theory_to_program_syn(
    t: Theory, simplify: bool = False, trace: RewriteTrace | None = None
) -> Program:
    """Formula-by-formula syntactic conversion of a theory, unioned.

    With simplify=True the whole theory shares one SIMPLIFY_RULE_BUDGET;
    without it, the estimates of all formulas share RAW_RULE_BUDGET.
    """
    run = _Run.start(t.formulas, simplify, trace)
    rules: dict[Rule, None] = {}
    for f in t.formulas:
        rules.update(dict.fromkeys(_convert(eliminate_connectives(f, trace), run)))
    return Program(tuple(rules), t.signature)


# --- simplification ----------------------------------------------------
# _and, _or and _not take parts that are already normalized and give the
# normalized result, so _normalize is one bottom-up pass.  On nested
# expressions (rule sides) _normalize is idempotent, so this equals
# normalizing each De Morgan rewrite again.  A normalized side is top or
# bot only as a whole.  The run's memo maps id(node) to (node, result) for
# the nodes _normalize has met: the rules of simplify()'s input and of
# _disjunction.  Lemma 1's rules arrive with sides that _and, _or and _not
# built from normalized ones, and are not normalized again.  Unit tests
# use the branch's unit dict and its negated set, and build no node.

def _and(left: Formula, right: Formula) -> Formula:
    if type(left) is Bottom or type(right) is Bottom:
        return BOT
    if _is_top(left):
        return right
    if _is_top(right):
        return left
    return And(left, right)


def _or(left: Formula, right: Formula) -> Formula:
    if _is_top(left) or _is_top(right):
        return TOP
    if type(left) is Bottom:
        return right
    if type(right) is Bottom:
        return left
    return Or(left, right)


def _not(f: Formula) -> Formula:
    """~f normalized: constants fold, De Morgan, ~~~G collapses to ~G."""
    kind = type(f)
    if kind is Bottom:
        return TOP
    if kind is And:
        return _or(_not(f.left), _not(f.right))
    if kind is Or:
        return _and(_not(f.left), _not(f.right))
    if kind is Implies and type(f.consequent) is Bottom:
        inner = f.antecedent
        if type(inner) is Bottom:  # f is top
            return BOT
        if type(inner) is Implies and type(inner.consequent) is Bottom:
            return inner  # ~~~G is ~G
    return Implies(f, BOT)  # not neg(f): one frame less on deep negations


def _normalize(f: Formula, memo: dict[int, tuple[Formula, Formula]]) -> Formula:
    """Constant folding, weak De Morgan, and triple-negation collapse.

    Double negations are kept: ~~F is not equivalent to F here.  f is
    meant to be a nested expression; an implication with another
    consequent keeps its shape and is not folded into a negation.  memo
    holds the results by node identity, so a shared subtree is
    normalized once.
    """
    kind = type(f)
    if kind is Atom or kind is Bottom:
        return f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if kind is And:
        out = _and(_normalize(f.left, memo), _normalize(f.right, memo))
    elif kind is Or:
        out = _or(_normalize(f.left, memo), _normalize(f.right, memo))
    elif kind is not Implies:
        raise TypeError(f"not a formula: {f!r}")
    elif type(f.consequent) is Bottom:
        out = _not(_normalize(f.antecedent, memo))
    else:
        # Implications with a non-bot consequent occur only at the rule
        # level, never inside nested expressions.
        out = Implies(_normalize(f.antecedent, memo), _normalize(f.consequent, memo))
    memo[id(f)] = (f, out)
    return out


def _flatten_and(f: Formula) -> list[Formula]:
    """The conjuncts of f left to right; [] for top.

    f is normalized, so top can only be the whole of it.
    """
    return [] if _is_top(f) else _operands(f, And)


def _flatten_or(f: Formula) -> list[Formula]:
    """The disjuncts of f left to right, without bot."""
    return [d for d in _operands(f, Or) if type(d) is not Bottom]


def _is_negation(f: Formula) -> bool:
    return type(f) is Implies and type(f.consequent) is Bottom


def _false_under(d: Formula, units: dict[Formula, None], negated: set[Formula]) -> bool:
    """Whether the body units make d false: ~d or, for d = ~G, G is a unit."""
    return d in negated or (_is_negation(d) and d.antecedent in units)


def _simplify_head(combo: tuple[Formula, ...], head: Formula) -> Rule | None:
    """The cleaned-up rule for one body branch, None when the branch is
    contradictory or the rule tautological."""
    units = dict.fromkeys(u for c in combo for u in _operands(c, And))
    negated = {u.antecedent for u in units if _is_negation(u)}
    if not negated.isdisjoint(units):
        return None  # u and ~u in the body
    kept: dict[Formula, None] = {}
    todo = _flatten_or(head)[::-1]
    while todo:
        d = todo.pop()
        if _false_under(d, units, negated):
            continue
        if type(d) is And:
            rest = [c for c in _flatten_and(d) if c not in units]
            if any(_false_under(c, units, negated) for c in rest):
                continue
            d = conj(rest)  # top when the body implies every conjunct
            if type(d) is Or:  # the one conjunct left is a disjunction
                todo += _flatten_or(d)[::-1]
                continue
        if _is_top(d) or d in units:
            return None  # a head disjunct that is top or a body unit
        kept[d] = None
    for d in kept:  # ~~G, or a conjunction of such, with each G a unit
        # (F -> ~~F) or its ~G kept too (~F | ~~F)
        if all(_is_negation(c) and _is_negation(c.antecedent) and (
                c.antecedent.antecedent in units or c.antecedent in kept)
               for c in (_operands(d, And) if type(d) is And else (d,))):
            return None
    return Rule(conj(units), disj(kept))


def _simplify_sides(
    r: Rule | None, body: Formula, head: Formula, run: _Run
) -> list[Rule]:
    """The cleaned-up rules of r, given its normalized sides; r is for the trace."""
    results: list[Rule] = []
    if type(body) is not Bottom and not _is_top(head):
        choices = [_flatten_or(factor) for factor in _flatten_and(body)]
        run.spend(math.prod(len(c) for c in choices))
        for combo in itertools.product(*choices):
            cleaned = _simplify_head(combo, head)
            if cleaned is not None:
                results.append(cleaned)
    if run.trace is not None and not (len(results) == 1 and results[0] == r):
        name = "simplify-rewrite" if results else "simplify-drop-taut"
        run.trace.record(name, r.to_formula(), _rules_formula(results))
    return results


def _simplify_rules(rules: tuple[Rule, ...], run: _Run) -> tuple[Rule, ...]:
    memo, out = run.memo, []
    for r in rules:
        out += _simplify_sides(r, _normalize(r.body, memo), _normalize(r.head, memo), run)
    return _deduped(out, run)


def _deduped(out: list[Rule], run: _Run) -> tuple[Rule, ...]:
    deduped = tuple(dict.fromkeys(out))
    if run.trace is not None and len(deduped) != len(out):
        run.trace.record("simplify-dedup", _rules_formula(out), _rules_formula(deduped))
    return deduped


def simplify(p: Program, trace: RewriteTrace | None = None) -> Program:
    """Equivalence-preserving cleanup; never changes the model set."""
    return Program(_simplify_rules(tuple(p.rules), _Run(trace)), p.signature)
