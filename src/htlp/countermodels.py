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

from dataclasses import dataclass
from functools import lru_cache

from .formula import Atom, Formula, Implies, Program, Rule, Theory, conj, disj, neg
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


@dataclass(frozen=True)
class CountermodelRule:
    """The nonnested rule excluding one interpretation, with its source."""

    source: HtInterpretation
    rule: Rule


@dataclass(frozen=True)
class DnfClause:
    """The characteristic conjunction of one interpretation, with its source."""

    source: HtInterpretation
    clause: Formula


@lru_cache(maxsize=1024)
def _literals(name: str) -> tuple[Atom, Formula]:
    """The atom a and its negation ~a, one shared pair per name."""
    a = Atom(name)
    return a, neg(a)


def _split(interpretation: HtInterpretation) -> tuple[list, list, list]:
    """The (a, ~a) pairs of the here-atoms, the atoms outside Y and the undefined ones."""
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
    body = conj([a for a, _ in here] + [not_b for _, not_b in absent])
    head = disj([literal for pair in undefined for literal in pair])
    return CountermodelRule(interpretation, Rule(body, head))


def build_clause(interpretation: HtInterpretation) -> DnfClause:
    """The conjunction satisfied by exactly this interpretation and its total twin.

    In canonical order: the here-atoms, the negations of atoms outside
    the there-set, the double negations of the undefined atoms, and one
    implication d -> e for every ordered pair of undefined atoms
    (including d = e).  Empty groups are omitted; when everything is
    empty the clause is top.
    """
    here, absent, undefined = _split(interpretation)
    parts = [a for a, _ in here] + [not_b for _, not_b in absent]
    parts += [neg(not_c) for _, not_c in undefined]
    parts += [Implies(d, e) for d, _ in undefined for e, _ in undefined]
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
