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
"""

from __future__ import annotations

from functools import lru_cache

from .formula import Atom, Formula, Implies, Program, Rule, Theory, Value, conj, disj, neg
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


def _split(interpretation: HtInterpretation) -> tuple[list, list, list]:
    """The (a, ~a, ~~a) of the here-atoms, the atoms outside Y and the undefined ones."""
    here, there = interpretation.here, interpretation.there
    groups: tuple[list, list, list] = ([], [], [])
    for name in interpretation.over:  # in name order
        groups[0 if name in here else 2 if name in there else 1].append(_literals(name))
    return groups


def build_rule(interpretation: HtInterpretation) -> CountermodelRule:
    """The rule whose only countermodel(s) are this interpretation('s column).

    Body: the atoms of the here-set plus the negations of the atoms
    outside the there-set (top when both are empty).  Head: a | ~a for
    every undefined atom (bot when the interpretation is total, i.e. a
    constraint).
    """
    here, absent, undefined = _split(interpretation)
    body = conj([a for a, _, _ in here] + [not_b for _, not_b, _ in absent])
    head = disj([literal for c, not_c, _ in undefined for literal in (c, not_c)])
    return CountermodelRule(interpretation, Rule(body, head))


def build_clause(interpretation: HtInterpretation) -> DnfClause:
    """The conjunction satisfied by exactly this interpretation and its total twin.

    In canonical order: the here-atoms, the negations of atoms outside
    the there-set, the double negations of the undefined atoms, and one
    implication d -> e for every ordered pair of undefined atoms
    (including d = e).  Empty groups are omitted; when everything is
    empty the clause is top.  Only the & spine is new; the literals and
    implications are shared nodes.
    """
    here, absent, undefined = _split(interpretation)
    parts = [a for a, _, _ in here] + [not_b for _, not_b, _ in absent]
    parts += [not_not_c for _, _, not_not_c in undefined]
    names = [c.name for c, _, _ in undefined]
    parts += [_implication(d, e) for d in names for e in names]
    return DnfClause(interpretation, conj(parts))


def program_from_set(s: InterpretationSet) -> Program:
    """The program whose countermodel set is exactly s, one rule per member.

    s must be total-closed, otherwise the countermodels of the result
    would strictly contain it.
    """
    violation = s.total_closure_violation()
    if violation is not None:
        raise NotTotalClosedError(*violation)
    return Program(tuple(build_rule(m).rule for m in s), s.signature)


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
