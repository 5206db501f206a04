"""Helpers that only the tests use, built on htlp's public API.

The full interpretation space, the two-rule form of Lemma 1, the
implication of two programs and a behavioural spot check of strong
equivalence: each states a construction or a definition directly so the
tests can check the package against it.
"""

from __future__ import annotations

from typing import Optional

from htlp import (
    DEFAULT_CAP,
    Formula,
    Implies,
    InterpretationSet,
    Or,
    Program,
    RewriteTrace,
    Signature,
    Theory,
    equilibrium_models,
    ht_models,
    neg,
)
from htlp.rewriting import _implication, _Run


def enumerate_interpretations(
    sig: Signature, cap: int = DEFAULT_CAP
) -> InterpretationSet:
    """All 3^n pairs (X, Y) with X subseteq Y subseteq sig, canonically ordered."""
    return ht_models(Theory((), sig), cap)


def lemma1_rewrite(
    f: Formula, g: Formula, k: Formula
) -> tuple[Formula, Formula]:
    """Two rule-shaped formulas jointly equivalent to (F -> G) -> K."""
    return Implies(Or(g, neg(f)), k), Or(Or(k, f), neg(g))


def implication_of_programs(
    p1: Program, p2: Program, trace: Optional[RewriteTrace] = None
) -> Program:
    """A program equivalent to (conjunction of p1) -> (conjunction of p2)."""
    rules = _implication(tuple(p1.rules), tuple(p2.rules), _Run(trace))
    return Program(rules, p1.signature | p2.signature)


def strong_equivalence_probe(
    t1: Theory, t2: Theory, context: Theory, cap: int = DEFAULT_CAP
) -> bool:
    """Behavioral strong-equivalence test for one added context theory.

    True iff t1 + context and t2 + context have the same equilibrium
    models over the union signature.  This is a spot check of
    ht_equivalent, not a replacement for it.
    """
    union_sig = t1.signature | t2.signature | context.signature
    left = Theory(t1.formulas, union_sig).union(context)
    right = Theory(t2.formulas, union_sig).union(context)
    return equilibrium_models(left, cap) == equilibrium_models(right, cap)
