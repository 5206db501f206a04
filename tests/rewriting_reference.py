"""Reference rewrites of rewriting.py, for differential tests.

Recursive, isinstance- and ==-based and unoptimized on purpose: the
simplifier code that htlp's bottom-up normalizer and iterative flattening
replaced.  The De Morgan and triple-negation cases build the rewritten
formula and normalize it again.  The property tests check that htlp gives
the same trees and the same errors.
"""

from __future__ import annotations

from typing import Optional

from htlp import BOT, TOP, And, Atom, Bottom, Formula, Implies, Or, neg
from htlp.rewriting import RewriteTrace


def eliminate_connectives(
    f: Formula, trace: Optional[RewriteTrace] = None
) -> Formula:
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


def normalize(f: Formula) -> Formula:
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, And):
        left, right = normalize(f.left), normalize(f.right)
        if left == BOT or right == BOT:
            return BOT
        if left == TOP:
            return right
        if right == TOP:
            return left
        return And(left, right)
    if isinstance(f, Or):
        left, right = normalize(f.left), normalize(f.right)
        if left == TOP or right == TOP:
            return TOP
        if left == BOT:
            return right
        if right == BOT:
            return left
        return Or(left, right)
    if isinstance(f, Implies):
        if f.consequent == BOT:
            inner = normalize(f.antecedent)
            if inner == BOT:
                return TOP
            if inner == TOP:
                return BOT
            if isinstance(inner, And):
                return normalize(Or(neg(inner.left), neg(inner.right)))
            if isinstance(inner, Or):
                return normalize(And(neg(inner.left), neg(inner.right)))
            if (
                isinstance(inner, Implies)
                and inner.consequent == BOT
                and isinstance(inner.antecedent, Implies)
                and inner.antecedent.consequent == BOT
            ):
                return neg(inner.antecedent.antecedent)
            return neg(inner)
        return Implies(normalize(f.antecedent), normalize(f.consequent))
    raise TypeError(f"not a formula: {f!r}")


def flatten_and(f: Formula) -> list[Formula]:
    if f == TOP:
        return []
    if isinstance(f, And):
        return flatten_and(f.left) + flatten_and(f.right)
    return [f]


def flatten_or(f: Formula) -> list[Formula]:
    if f == BOT:
        return []
    if isinstance(f, Or):
        return flatten_or(f.left) + flatten_or(f.right)
    return [f]
