"""An independent here-and-there evaluator for checking htlp's outputs.

Shares no code with htlp.  Formulas are tuples:

    ("atom", i)   ("bot",)   ("and", f, g)   ("or", f, g)   ("imp", f, g)

with i the atom's index in the sorted signature.  A `Space` numbers the
3^n interpretations (X, Y) of n atoms in canonical order (there-mask
ascending, then here-mask ascending) and evaluates a formula into two
packed truth tables, one bit per interpretation:

    here[(X, Y)]   the formula holds in HT at (X, Y)
    there[(X, Y)]  the formula holds classically at Y

An implication holds "there" when it holds classically at Y, and "here"
when it also holds locally: there & (~A.here | B.here).  This is the
truth-table form of the here/there-copy reduction of HT to classical
logic, so nothing here enumerates interpretations one by one.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

BOT = ("bot",)
TOP = ("imp", BOT, BOT)


def neg(f):
    return ("imp", f, BOT)


def conj(parts):
    parts = list(parts)
    if not parts:
        return TOP
    acc = parts[0]
    for p in parts[1:]:
        acc = ("and", acc, p)
    return acc


def disj(parts):
    parts = list(parts)
    if not parts:
        return BOT
    acc = parts[0]
    for p in parts[1:]:
        acc = ("or", acc, p)
    return acc


# --- text ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|[&|~()]|[a-z][A-Za-z0-9_]*)")
_BINARY = {"<->": (1, "right"), "->": (2, "right"), "|": (3, "left"), "&": (4, "left")}


class OracleParseError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleParseError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse(text: str, index: dict[str, int]) -> tuple:
    """Parse one formula of the htlp text grammar by precedence climbing."""
    tokens = tokenize(text)
    pos = 0

    def primary():
        nonlocal pos
        if pos >= len(tokens):
            raise OracleParseError(f"unexpected end in {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok in ("~", "not"):
            return neg(primary())
        if tok == "(":
            inner = climb(1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise OracleParseError(f"missing ')' in {text!r}")
            pos += 1
            return inner
        if tok == "bot":
            return BOT
        if tok == "top":
            return TOP
        if tok in index:
            return ("atom", index[tok])
        raise OracleParseError(f"unexpected {tok!r} in {text!r}")

    def climb(min_prec):
        nonlocal pos
        left = primary()
        while pos < len(tokens) and tokens[pos] in _BINARY:
            op = tokens[pos]
            prec, assoc = _BINARY[op]
            if prec < min_prec:
                break
            pos += 1
            right = climb(prec if assoc == "right" else prec + 1)
            if op == "&":
                left = ("and", left, right)
            elif op == "|":
                left = ("or", left, right)
            elif op == "->":
                left = ("imp", left, right)
            else:
                left = ("and", ("imp", left, right), ("imp", right, left))
        return left

    result = climb(1)
    if pos != len(tokens):
        raise OracleParseError(f"trailing {tokens[pos]!r} in {text!r}")
    return result


def render(f: tuple, names: list[str]) -> str:
    """Fully parenthesized text that htlp's parser reads back as f."""
    kind = f[0]
    if kind == "atom":
        return names[f[1]]
    if kind == "bot":
        return "bot"
    if kind == "imp" and f[2] == BOT:
        return "~" + render(f[1], names)
    symbol = {"and": "&", "or": "|", "imp": "->"}[kind]
    return f"({render(f[1], names)} {symbol} {render(f[2], names)})"


_LITERAL = re.compile(r"~?[a-z][A-Za-z0-9_]*\Z")


def nonnested_rule(line: str, index: dict[str, int]):
    """(body literals, head literals) of a nonnested rule line, else None.

    Literals are (atom index, positive); `top` is the empty body and `bot`
    the empty head.
    """
    if "->" in line:
        body_text, sep, head_text = line.partition(" -> ")
        if not sep or "->" in head_text:
            return None
        body_parts = [] if body_text == "top" else body_text.split(" & ")
    else:
        body_parts, head_text = [], line
    head_parts = [] if head_text == "bot" else head_text.split(" | ")

    def literals(parts):
        out = []
        for part in parts:
            if not _LITERAL.match(part):
                return None
            name = part.lstrip("~")
            if name not in index or part.count("~") > 1:
                return None
            out.append((index[name], not part.startswith("~")))
        return out

    body, head = literals(body_parts), literals(head_parts)
    if body is None or head is None:
        return None
    return body, head


# --- the interpretation space -------------------------------------------

class Space:
    """The 3^n interpretations of n atoms, canonically numbered."""

    def __init__(self, n: int):
        self.n = n
        self.size = 3 ** n
        self.full = (1 << self.size) - 1
        self.pairs: list[tuple[int, int]] = []  # position -> (there, here)
        self.column_start: list[int] = []
        for y in range(1 << n):
            self.column_start.append(len(self.pairs))
            for x in range(y + 1):
                if x & ~y == 0:
                    self.pairs.append((y, x))
        self.position = {pair: i for i, pair in enumerate(self.pairs)}
        self._here = []
        self._there = []
        for a in range(n):
            bit = 1 << a
            self._here.append(self._table(lambda y, x: x & bit))
            self._there.append(self._table(lambda y, x: y & bit))

    def _table(self, predicate) -> int:
        digits = "".join(
            "1" if predicate(y, x) else "0" for y, x in reversed(self.pairs)
        )
        return int(digits, 2)

    def column(self, y: int) -> tuple[int, int]:
        """(first position, width) of the interpretations with there-set y."""
        return self.column_start[y], 1 << bin(y).count("1")

    # evaluation

    def tables(self, f: tuple) -> tuple[int, int]:
        kind = f[0]
        if kind == "atom":
            return self._here[f[1]], self._there[f[1]]
        if kind == "bot":
            return 0, 0
        lh, lt = self.tables(f[1])
        rh, rt = self.tables(f[2])
        if kind == "and":
            return lh & rh, lt & rt
        if kind == "or":
            return lh | rh, lt | rt
        there = (self.full & ~lt) | rt
        return there & ((self.full & ~lh) | rh), there

    def models(self, formulas) -> int:
        bits = self.full
        for f in formulas:
            bits &= self.tables(f)[0]
        return bits

    def literal_table(self, atom: int, positive: bool) -> int:
        """HT table of a (a is in X) or of ~a (a is outside Y)."""
        return self._here[atom] if positive else self.full & ~self._there[atom]

    def nonnested_models(self, body, head) -> int:
        """Models of one nonnested rule given as (atom, positive) literal lists."""
        b_here, b_there = self.full, self.full
        for atom, positive in body:
            b_here &= self.literal_table(atom, positive)
            b_there &= self._there[atom] if positive else self.literal_table(atom, False)
        h_here, h_there = 0, 0
        for atom, positive in head:
            h_here |= self.literal_table(atom, positive)
            h_there |= self._there[atom] if positive else self.literal_table(atom, False)
        there = (self.full & ~b_there) | h_there
        return there & ((self.full & ~b_here) | h_here)

    # reading sets

    def positions(self, bits: int) -> list[int]:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def bits_of(self, pairs) -> int:
        """Bitset of [there, here] mask pairs; KeyError on a non-interpretation."""
        bits = 0
        for y, x in pairs:
            bits |= 1 << self.position[(y, x)]
        return bits

    def first_difference(self, a: int, b: int):
        """The first interpretation in canonical order in exactly one set."""
        diff = a ^ b
        if not diff:
            return None
        return self.pairs[(diff & -diff).bit_length() - 1]

    def equilibrium(self, models: int) -> list[int]:
        """There-masks Y where (Y, Y) is the only model in Y's column."""
        found = []
        for y in range(1 << self.n):
            start, width = self.column(y)
            if (models >> start) & ((1 << width) - 1) == 1 << (width - 1):
                found.append(y)
        return found

    def total_closed(self, bits: int) -> bool:
        """Every column holding its total member is held whole."""
        for y in range(1 << self.n):
            start, width = self.column(y)
            col = (bits >> start) & ((1 << width) - 1)
            if col >> (width - 1) and col != (1 << width) - 1:
                return False
        return True

    def persistent_to_total(self, models: int) -> bool:
        """(X, Y) a model implies (Y, Y) a model."""
        for y in range(1 << self.n):
            start, width = self.column(y)
            col = (models >> start) & ((1 << width) - 1)
            if col and not col >> (width - 1):
                return False
        return True


@lru_cache(maxsize=None)
def space(n: int) -> Space:
    return Space(n)


# --- counting ------------------------------------------------------------

def count_closed_form(n: int) -> int:
    """Programs over n atoms modulo strong equivalence, by the closed form."""
    value = 1
    for i in range(n + 1):
        value *= (2 ** (2 ** i - 1) + 1) ** math.comb(n, i)
    return value


def count_enumerated(n: int) -> int:
    """The same count by listing every total-closed subset of the space.

    Feasible for n <= 2 (2^9 candidate subsets at n = 2).
    """
    s = space(n)
    return sum(1 for bits in range(1 << s.size) if s.total_closed(bits))


def raw_rule_bound(f: tuple, cap: int) -> int:
    """Rules of htlp's literal syntactic construction, saturating at cap.

    Disjunctions are first encoded as ((F->G)->G) & ((G->F)->F); an
    implication of programs of m and k rules has 2^m * k rules and a
    conjunction adds.  Every intermediate value saturates at cap, so the
    bound stays cheap however deep the formula is.
    """
    def pow2(m):
        return cap if m >= cap.bit_length() else min(cap, 1 << m)

    def count(g):
        kind = g[0]
        if kind in ("atom", "bot"):
            return 1
        left, right = count(g[1]), count(g[2])
        if kind == "and":
            return min(cap, left + right)
        if kind == "imp":
            return min(cap, pow2(left) * right)
        one = min(cap, pow2(min(cap, pow2(left) * right)) * right)
        other = min(cap, pow2(min(cap, pow2(right) * left)) * left)
        return min(cap, one + other)

    return count(f)

