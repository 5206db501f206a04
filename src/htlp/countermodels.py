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

The builders read the truth table's (X, Y) bit masks, with no
HtInterpretation per member, and share every part that does not depend
on the whole interpretation: the literal nodes of each atom, the
implication d -> e of each pair of atoms and, per undefined-atom mask,
the rule head and the clause's tail.  Within one call, body spines share
their prefixes, so a rule's new nodes are about one & node on average,
and a clause's are those and its tail's & spine.
"""

from __future__ import annotations

from functools import lru_cache

from .formula import (TOP, And, Atom, Formula, Implies, Program, Rule, Theory, Value,
                      _collector_paused, conj, disj, neg)
from .semantics import DEFAULT_CAP, HtInterpretation, InterpretationSet, _Space, _space

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
        _set_rule_source(self, source)
        _set_rule(self, rule)


class DnfClause(Value):
    """The characteristic conjunction of one interpretation, with its source."""

    __slots__ = __match_args__ = ("source", "clause")

    def __init__(self, source: HtInterpretation, clause: Formula) -> None:
        _set_clause_source(self, source)
        _set_clause(self, clause)


_set_rule_source, _set_rule = CountermodelRule.source.__set__, CountermodelRule.rule.__set__
_set_clause_source, _set_clause = DnfClause.source.__set__, DnfClause.clause.__set__


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
def _undefined_parts(atoms: tuple[str, ...], mask: int) -> tuple[Formula, tuple]:
    """For the atoms c of mask, the rule head c | ~c | ... (bot when there
    are none) and the clause tail: ~~c for every c, then d -> e for every
    ordered pair."""
    undefined = [a for i, a in enumerate(atoms) if mask >> i & 1]
    head = disj([literal for c in undefined for literal in _literals(c)[:2]])
    tail = [_literals(c)[2] for c in undefined]
    tail += [_implication(d, e) for d in undefined for e in undefined]
    return head, tuple(tail)


@lru_cache(maxsize=256)
def _literal_table(atoms: tuple[str, ...]) -> tuple:
    """The atoms in name order, their number n, each atom's bit, and the
    literal of each bit of a spine key: atom i at bit i, ~atom i at n + i."""
    n, literals = len(atoms), [_literals(name) for name in atoms]
    return atoms, n, {name: 1 << i for i, name in enumerate(atoms)}, {
        1 << i + n * negated: lit[negated] for negated in (0, 1)
        for i, lit in enumerate(literals)
    }


def _build(lits: tuple, memo: dict, x: int, y: int, clause: bool) -> Rule | Formula:
    """The countermodel rule of (X, Y), or with clause its DNF clause.

    The body spine (the here-atoms, then ~b for each atom b outside Y,
    each group in name order, &-ed from the left) has the key x | b << n,
    b here the mask of the atoms outside Y: its last literal is the key's
    top bit, on the spine of the key without it.  One memo per call maps
    each key built to its spine, and ~u to the parts of undefined mask u.
    """
    atoms, n, _, literals = lits
    key = x | ((1 << n) - 1 ^ y) << n
    spine = memo.get(key)
    rest = key if memo else 0  # an empty memo holds no prefix to find
    while spine is None and rest:  # strip literals down to a built prefix
        rest ^= 1 << rest.bit_length() - 1
        spine = memo.get(rest)
    todo = key ^ rest
    while todo:
        low = todo & -todo
        todo ^= low
        rest |= low
        spine = memo[rest] = literals[low] if spine is None else And(spine, literals[low])
    parts = memo.get(~(x ^ y))
    if parts is None:
        parts = memo[~(x ^ y)] = _undefined_parts(atoms, x ^ y)
    if not clause:
        return Rule(TOP if spine is None else spine, parts[0])
    if spine is None:
        return conj(parts[1])
    for part in parts[1]:
        spine = And(spine, part)
    return spine


def _build_one(interpretation: HtInterpretation, clause: bool) -> Rule | Formula:
    """_build on the masks of one interpretation, with a memo of its own."""
    lits, x, y = _literal_table(interpretation.over.atoms), 0, 0
    for name in interpretation.here:
        x |= lits[2][name]
    for name in interpretation.there:
        y |= lits[2][name]
    return _build(lits, {}, x, y, clause)


def build_rule(interpretation: HtInterpretation) -> CountermodelRule:
    """The rule whose only countermodel(s) are this interpretation('s column).

    Body: the atoms of the here-set plus the negations of the atoms
    outside the there-set (top when both are empty).  Head: a | ~a for
    every undefined atom (bot when the interpretation is total, i.e. a
    constraint); rules with the same undefined atoms share one head.
    """
    return CountermodelRule(interpretation, _build_one(interpretation, False))


def build_clause(interpretation: HtInterpretation) -> DnfClause:
    """The conjunction satisfied by exactly this interpretation and its total twin.

    In canonical order: the here-atoms, the negations of atoms outside
    the there-set, the double negations of the undefined atoms, and one
    implication d -> e for every ordered pair of undefined atoms
    (including d = e).  Empty groups are omitted; when everything is
    empty the clause is top.  Only the & spine is new; the literals and
    implications are shared nodes.
    """
    return DnfClause(interpretation, _build_one(interpretation, True))


def _program(space: _Space, table: int) -> Program:
    """The countermodel rules of table's members, which must be total-closed."""
    violation = space.closure_violation(table)
    if violation is not None:
        raise NotTotalClosedError(*violation)
    lits, memo = _literal_table(space.signature.atoms), {}
    rules = tuple([_build(lits, memo, x, y, False) for x, y in space.pairs(table)])
    return Program(rules, space.signature)


@_collector_paused
def program_from_set(s: InterpretationSet) -> Program:
    """The program whose countermodel set is exactly s, one rule per member.

    s must be total-closed, otherwise the countermodels of the result
    would strictly contain it.
    """
    return _program(_space(s.signature), s._table)


def _countermodel_program(t: Theory, cap: int) -> Program:
    space = _space(t.signature, cap)
    return _program(space, space.full ^ space.compiled(t))


@_collector_paused
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
        return _countermodel_program(t, cap)
    if mode == "per_formula":
        rules: dict[Rule, None] = {}
        for f in t.formulas:
            sub = Theory((f,))  # over f's own atoms
            rules.update(dict.fromkeys(_countermodel_program(sub, cap)))
        return Program(tuple(rules), t.signature)
    raise ValueError(f"unknown mode: {mode!r}")


@_collector_paused
def theory_to_dnf_clauses(t: Theory, cap: int = DEFAULT_CAP) -> tuple[DnfClause, ...]:
    """One clause per model of t, in canonical model order."""
    space, lits, memo = _space(t.signature, cap), _literal_table(t.signature.atoms), {}
    table = space.compiled(t)
    return tuple([DnfClause(m, _build(lits, memo, x, y, True))
                  for (x, y), m in zip(space.pairs(table), space.members(table))])


@_collector_paused
def theory_to_dnf(t: Theory, cap: int = DEFAULT_CAP) -> Formula:
    """The disjunction of the clauses of all models of t; bot when none.

    Equivalent to t in here-and-there, hence strongly equivalent to it.
    """
    space, lits, memo = _space(t.signature, cap), _literal_table(t.signature.atoms), {}
    return disj([_build(lits, memo, x, y, True) for x, y in space.pairs(space.compiled(t))])
