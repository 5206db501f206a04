"""The countermodel rule and the model DNF clause, built as written.

Each interpretation is split into its here-atoms, the atoms outside its
there-set and its undefined atoms, and the rule or clause is the
left-associated conjunction and disjunction of fresh literal nodes, in
the order the definitions give.  htlp builds the same formulas from
shared parts; the tests check that both agree node for node.
"""

from __future__ import annotations

from htlp import (
    Atom, CountermodelRule, DnfClause, HtInterpretation, Implies, Rule, conj, disj, neg,
)


def _split(interpretation: HtInterpretation) -> tuple[list, list, list]:
    """The names of the here-atoms, the atoms outside Y and the undefined ones."""
    here, there = interpretation.here, interpretation.there
    groups: tuple[list, list, list] = ([], [], [])
    for name in interpretation.over:  # in name order
        groups[0 if name in here else 2 if name in there else 1].append(name)
    return groups


def build_rule(interpretation: HtInterpretation) -> CountermodelRule:
    """Body: the here-atoms, then ~b per atom outside Y; head: c | ~c per undefined c."""
    here, absent, undefined = _split(interpretation)
    body = conj([Atom(a) for a in here] + [neg(Atom(b)) for b in absent])
    head = disj([literal for c in undefined for literal in (Atom(c), neg(Atom(c)))])
    return CountermodelRule(interpretation, Rule(body, head))


def build_clause(interpretation: HtInterpretation) -> DnfClause:
    """The here-atoms, ~b outside Y, ~~c per undefined c, then d -> e per ordered pair."""
    here, absent, undefined = _split(interpretation)
    parts = [Atom(a) for a in here] + [neg(Atom(b)) for b in absent]
    parts += [neg(neg(Atom(c))) for c in undefined]
    parts += [Implies(Atom(d), Atom(e)) for d in undefined for e in undefined]
    return DnfClause(interpretation, conj(parts))
