"""Shared corpora and generators for the test suite."""

from __future__ import annotations

import random

import pytest

from htlp import BOT, And, Atom, Formula, Implies, Or, Theory


def formulas_up_to(depth: int, atom_names: tuple[str, ...]) -> list[Formula]:
    """Every formula tree of the given depth or less (leaves have depth 1)."""
    leaves: list[Formula] = [BOT] + [Atom(a) for a in atom_names]
    tier = list(leaves)
    for _ in range(depth - 1):
        combos = [
            op(f, g)
            for op in (And, Or, Implies)
            for f in tier
            for g in tier
        ]
        tier = list(dict.fromkeys(leaves + combos))
    return tier


def random_formula(rng: random.Random, atom_names: tuple[str, ...],
                   depth: int) -> Formula:
    if depth <= 1 or rng.random() < 0.25:
        choices: list[Formula] = [BOT] + [Atom(a) for a in atom_names]
        return rng.choice(choices)
    op = rng.choice((And, Or, Implies))
    return op(
        random_formula(rng, atom_names, depth - 1),
        random_formula(rng, atom_names, depth - 1),
    )


def single(f: Formula, *extra_atoms: str) -> Theory:
    """One-formula theory, optionally over a widened signature."""
    t = Theory((f,))
    if extra_atoms:
        from htlp import Signature

        t = Theory(t.formulas, t.signature | Signature(extra_atoms))
    return t


@pytest.fixture(scope="session")
def corpus_depth2() -> list[Formula]:
    return formulas_up_to(2, ("a", "b"))


@pytest.fixture(scope="session")
def corpus_depth3() -> list[Formula]:
    return formulas_up_to(3, ("a", "b"))
