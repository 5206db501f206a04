"""The reference here-and-there evaluator the property tests compare against.

Recursive satisfaction and explicit loops over the 3^n interpretations,
one at a time: slow and simple on purpose.  Interpretations are
(here, there) pairs of frozensets, listed in canonical order (there-set
mask ascending, then here-set mask).
"""

from __future__ import annotations

from typing import Iterator, Optional

from htlp import And, Atom, Bottom, Formula, Implies, Or, Signature, Theory

Pair = tuple[frozenset[str], frozenset[str]]


def sat_classical(true_set, f: Formula) -> bool:
    if isinstance(f, Atom):
        return f.name in true_set
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return sat_classical(true_set, f.left) and sat_classical(true_set, f.right)
    if isinstance(f, Or):
        return sat_classical(true_set, f.left) or sat_classical(true_set, f.right)
    if isinstance(f, Implies):
        return (not sat_classical(true_set, f.antecedent)) or sat_classical(
            true_set, f.consequent
        )
    raise TypeError(f"not a formula: {f!r}")


def sat_ht(here: frozenset[str], there: frozenset[str], f: Formula) -> bool:
    if isinstance(f, Atom):
        return f.name in here
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return sat_ht(here, there, f.left) and sat_ht(here, there, f.right)
    if isinstance(f, Or):
        return sat_ht(here, there, f.left) or sat_ht(here, there, f.right)
    if isinstance(f, Implies):
        # Local condition plus the classical reading at the there-world.
        if not sat_classical(there, f):
            return False
        return (not sat_ht(here, there, f.antecedent)) or sat_ht(
            here, there, f.consequent
        )
    raise TypeError(f"not a formula: {f!r}")


def sat_theory(here: frozenset[str], there: frozenset[str], t: Theory) -> bool:
    return all(sat_ht(here, there, f) for f in t.formulas)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask in ascending numeric order."""
    positions = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    for k in range(1 << len(positions)):
        sub = 0
        for j, position in enumerate(positions):
            if (k >> j) & 1:
                sub |= 1 << position
        yield sub


def atoms_of_mask(sig: Signature, mask: int) -> frozenset[str]:
    return frozenset(a for i, a in enumerate(sig) if (mask >> i) & 1)


def interpretations(sig: Signature) -> list[Pair]:
    return [
        (atoms_of_mask(sig, xmask), atoms_of_mask(sig, ymask))
        for ymask in range(1 << len(sig))
        for xmask in submasks(ymask)
    ]


def models(t: Theory) -> list[Pair]:
    return [(x, y) for x, y in interpretations(t.signature) if sat_theory(x, y, t)]


def countermodels(t: Theory) -> list[Pair]:
    return [
        (x, y) for x, y in interpretations(t.signature) if not sat_theory(x, y, t)
    ]


def valid(f: Formula, sig: Signature) -> bool:
    return all(sat_ht(x, y, f) for x, y in interpretations(sig))


def equivalence_witness(t1: Theory, t2: Theory) -> Optional[Pair]:
    """The first interpretation satisfying exactly one side, or None."""
    left = Theory(t1.formulas, t1.signature | t2.signature)
    right = Theory(t2.formulas, left.signature)
    for x, y in interpretations(left.signature):
        if sat_theory(x, y, left) != sat_theory(x, y, right):
            return x, y
    return None


def equilibrium_models(t: Theory) -> list[frozenset[str]]:
    sig = t.signature
    found = []
    for ymask in range(1 << len(sig)):
        there = atoms_of_mask(sig, ymask)
        if not sat_theory(there, there, t):
            continue
        if not any(
            sat_theory(atoms_of_mask(sig, xmask), there, t)
            for xmask in submasks(ymask)
            if xmask != ymask
        ):
            found.append(there)
    return found


def closure_violation(members: list[Pair], sig: Signature) -> Optional[tuple[Pair, Pair]]:
    """The first total member whose column is incomplete, with its first gap."""
    have = set(members)
    for x, y in interpretations(sig):
        if (x, y) in have and x == y:
            for here, there in interpretations(sig):
                if there == y and (here, there) not in have:
                    return (y, y), (here, there)
    return None
