"""Brute-force counts of programs modulo strong equivalence.

The reference the closed form in htlp.counting is checked against: a
raw filter over all subsets of the interpretation space, and a
per-there-set product that enumerates the admissible choices for each
column separately.  Both are exact and only feasible for tiny n.
"""

from __future__ import annotations

import string
from itertools import combinations

from htlp import (
    CountBoundExceededError,
    InterpretationSet,
    ProgramCount,
    Signature,
)
from api_reference import enumerate_interpretations

BRUTEFORCE_MAX_N = 4
FILTER_MAX_N = 2


def column_choices_bruteforce(k: int) -> int:
    """Admissible interpretation sets sharing one there-set of k atoms.

    Candidates are all subsets of the 2^k pairs (X, Y) with X subseteq Y;
    a candidate is admissible iff containing (Y, Y) forces it to be the
    whole column.  Checked by direct enumeration.
    """
    subsets = 1 << k
    full = (1 << subsets) - 1
    total_bit = 1 << (subsets - 1)  # X = Y is the largest submask
    count = 0
    for candidate in range(1 << subsets):
        if not candidate & total_bit or candidate == full:
            count += 1
    return count


def count_bruteforce(n: int) -> ProgramCount:
    """Total-closed set count via the per-column independence argument.

    Columns with different there-sets are independent, so the total is
    the product of the per-column counts, each obtained by enumeration.
    """
    if n < 0 or n > BRUTEFORCE_MAX_N:
        raise CountBoundExceededError(n, BRUTEFORCE_MAX_N, "count_bruteforce")
    per_size = {k: column_choices_bruteforce(k) for k in range(n + 1)}
    value = 1
    for ymask in range(1 << n):
        value *= per_size[ymask.bit_count()]
    return ProgramCount(n, value)


def count_subset_filter(n: int) -> ProgramCount:
    """Total-closed set count by filtering every subset of the 3^n space.

    The entirely unoptimized oracle; only feasible for n <= 2
    (2^(3^n) candidate subsets).
    """
    if n < 0 or n > FILTER_MAX_N:
        raise CountBoundExceededError(n, FILTER_MAX_N, "count_subset_filter")
    sig = Signature(string.ascii_lowercase[:n])
    interps = tuple(enumerate_interpretations(sig))
    count = 0
    for size in range(len(interps) + 1):
        for subset in combinations(interps, size):
            if InterpretationSet(subset, sig).total_closure_violation() is None:
                count += 1
    return ProgramCount(n, count)
