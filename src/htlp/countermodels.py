"""Programs and normal forms built from here-and-there interpretations.

Both constructions read (X, Y) as its here-atoms X, the atoms outside Y
and the undefined atoms Y minus X.  The countermodel rule of (X, Y) has
exactly (X, Y) as countermodel, or its whole column when X = Y, so the
rules of the countermodels of a theory form a strongly equivalent
program.  Dually, the characteristic conjunction of (X, Y) is satisfied
by exactly (X, Y) and (Y, Y), so the disjunction over the models of a
theory, its model DNF, is equivalent to it.  Both maps are injective:
the three groups can be read back from a rule's body and head, or from
a clause, so distinct interpretations give distinct rules and clauses.

The builders share every part that does not depend on the whole
interpretation: the literal nodes of each atom, the implication d -> e
of each pair of atoms, and, per tuple of undefined atoms, the rule head
and the clause's tail.  Only each rule's body spine and each clause's
& spine are new nodes.
"""

from __future__ import annotations

from functools import lru_cache

from .formula import (
    TOP, And, Atom, Formula, Implies, Program, Rule, Theory, Value, disj, neg,
)
from .semantics import (
    DEFAULT_CAP,
    HtInterpretation,
    InterpretationSet,
    ht_countermodels,
    ht_models,
)

class NotTotalClosedError(ValueError):
    """The interpretation set misses part of a total member's column."""

    def __init__(self, total_member: HtInterpretation, missing: HtInterpretation):
        self.total_member = total_member
        self.missing = missing
        super().__init__(
            f"set contains total ({total_member.display()}) "
            f"but not ({missing.display()})"
        )


class CountermodelRule(Value):
    """The nonnested rule excluding one interpretation, with its source."""

    __slots__ = __match_args__ = ("source", "rule")

    def __init__(self, source: HtInterpretation, rule: Rule) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "rule", rule)


class DnfClause(Value):
    """The characteristic conjunction of one interpretation, with its source."""

    __slots__ = __match_args__ = ("source", "clause")

    def __init__(self, source: HtInterpretation, clause: Formula) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "clause", clause)


@lru_cache(maxsize=1024)
def _literals(name: str) -> tuple[Atom, Formula, Formula]:
    """The atom a, ~a and ~~a, one shared triple per name."""
    a = Atom(name)
    not_a = neg(a)
    return a, not_a, neg(not_a)


@lru_cache(maxsize=4096)
def _implication(d: str, e: str) -> Formula:
    """d -> e, one shared node per ordered pair of names."""
    return Implies(_literals(d)[0], _literals(e)[0])


@lru_cache(maxsize=4096)
def _undefined_parts(undefined: tuple[str, ...]) -> tuple[Formula, tuple[Formula, ...]]:
    """The rule head c | ~c | ... (bot when there are none) and the clause
    tail: ~~c for every undefined atom c, then d -> e for every ordered pair."""
    head = disj([literal for c in undefined for literal in _literals(c)[:2]])
    tail = [_literals(c)[2] for c in undefined]
    tail += [_implication(d, e) for d in undefined for e in undefined]
    return head, tuple(tail)


def _body(interpretation: HtInterpretation) -> tuple[Formula | None, tuple[str, ...]]:
    """The body spine of (X, Y) and its undefined atoms, in one pass.

    The spine is the left-associated conjunction of the here-atoms, then
    of ~b for every atom outside Y, each group in name order; None when
    both groups are empty.
    """
    here, there = interpretation.here, interpretation.there
    spine: Formula | None = None
    absent: list[Formula] = []
    undefined: list[str] = []
    for name in interpretation.over:  # in name order
        if name in here:
            a = _literals(name)[0]
            spine = a if spine is None else And(spine, a)
        elif name in there:
            undefined.append(name)
        else:
            absent.append(_literals(name)[1])
    for not_b in absent:
        spine = not_b if spine is None else And(spine, not_b)
    return spine, tuple(undefined)


def _rule(interpretation: HtInterpretation) -> Rule:
    body, undefined = _body(interpretation)
    return Rule(TOP if body is None else body, _undefined_parts(undefined)[0])


def build_rule(interpretation: HtInterpretation) -> CountermodelRule:
    """The rule whose only countermodel(s) are this interpretation('s column).

    Body: the atoms of the here-set plus the negations of the atoms
    outside the there-set (top when both are empty).  Head: a | ~a for
    every undefined atom (bot when the interpretation is total, i.e. a
    constraint); rules with the same undefined atoms share one head.
    """
    return CountermodelRule(interpretation, _rule(interpretation))


def build_clause(interpretation: HtInterpretation) -> DnfClause:
    """The conjunction satisfied by exactly this interpretation and its total twin.

    In canonical order: the here-atoms, the negations of atoms outside
    the there-set, the double negations of the undefined atoms, and one
    implication d -> e for every ordered pair of undefined atoms
    (including d = e).  Empty groups are omitted; when everything is
    empty the clause is top.  Only the & spine is new; the literals and
    implications are shared nodes.
    """
    spine, undefined = _body(interpretation)
    for part in _undefined_parts(undefined)[1]:
        spine = part if spine is None else And(spine, part)
    return DnfClause(interpretation, TOP if spine is None else spine)


def program_from_set(s: InterpretationSet) -> Program:
    """The program whose countermodel set is exactly s, one rule per member.

    s must be total-closed, otherwise the countermodels of the result
    would strictly contain it.
    """
    violation = s.total_closure_violation()
    if violation is not None:
        raise NotTotalClosedError(*violation)
    return Program(tuple(_rule(m) for m in s), s.signature)


def theory_to_program_cm(
    t: Theory, mode: str = "whole", cap: int = DEFAULT_CAP
) -> Program:
    """A nonnested program strongly equivalent to t, from its countermodels.

    In whole mode the rules are built over t's full signature; in
    per_formula mode each formula is translated over just its own atoms
    and the results are unioned, which keeps rules local to the atoms
    they talk about.  Different formulas can share rules, so the union
    drops repeats.
    """
    if mode == "whole":
        return program_from_set(ht_countermodels(t, cap))
    if mode == "per_formula":
        rules: dict[Rule, None] = {}
        for f in t.formulas:
            sub = Theory((f,))  # over f's own atoms
            rules.update(dict.fromkeys(program_from_set(ht_countermodels(sub, cap))))
        return Program(tuple(rules), t.signature)
    raise ValueError(f"unknown mode: {mode!r}")


def theory_to_dnf_clauses(t: Theory, cap: int = DEFAULT_CAP) -> tuple[DnfClause, ...]:
    """One clause per model of t, in canonical model order."""
    return tuple(build_clause(m) for m in ht_models(t, cap))


def theory_to_dnf(t: Theory, cap: int = DEFAULT_CAP) -> Formula:
    """The disjunction of the clauses of all models of t; bot when none.

    Equivalent to t in here-and-there, hence strongly equivalent to it.
    """
    return disj(c.clause for c in theory_to_dnf_clauses(t, cap))
