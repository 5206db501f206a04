"""Exact count of logic programs over n atoms, modulo strong equivalence.

Strong-equivalence classes of programs correspond one-to-one to
total-closed sets of interpretations, so counting those sets counts the
classes.  The closed form

    product over i = 0..n of (2^(2^i - 1) + 1) ^ C(n, i)

is exact integer arithmetic.  The tests check it against two
brute-force counts (tests/count_reference.py).
"""

from __future__ import annotations

import math

from .formula import Value

#: The count has about 3^n bits; n = 12 has 158,754 decimal digits.
FORMULA_MAX_N = 12


class CountBoundExceededError(ValueError):
    def __init__(self, n: int, bound: int, what: str):
        super().__init__(f"{what} supports n <= {bound}, got {n}")


class ProgramCount(Value):
    __slots__ = __match_args__ = ("n", "value")

    def __init__(self, n: int, value: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)


def count_formula(n: int) -> ProgramCount:
    """The closed-form count for a signature of n atoms."""
    if n < 0 or n > FORMULA_MAX_N:
        raise CountBoundExceededError(n, FORMULA_MAX_N, "count_formula")
    return ProgramCount(n, math.prod(factor**binom for _, binom, factor in factor_table(n)))


def factor_table(n: int) -> list[tuple[int, int, int]]:
    """Rows (i, C(n, i), 2^(2^i - 1) + 1) of the closed-form product."""
    if n < 0 or n > FORMULA_MAX_N:
        raise CountBoundExceededError(n, FORMULA_MAX_N, "factor_table")
    return [(i, math.comb(n, i), 2 ** (2**i - 1) + 1) for i in range(n + 1)]
