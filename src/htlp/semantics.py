"""Satisfaction in the logic of here-and-there and everything built on it.

An interpretation is a pair (X, Y) of atom sets with X subseteq Y
subseteq the signature; X holds the atoms true "here", atoms outside Y
are false, the rest are undefined.  Satisfaction follows the standard
two-world reading: an implication holds when it holds locally and its
classical reading holds at Y.  Total interpretations (X = Y) collapse to
classical logic.

One evaluator answers everything: it compiles a formula, without
recursion, into Python-int truth tables over the interpretations, "here"
(the formula holds) and "there" (it holds classically at Y).  & and | act
on both; F -> G gives there = ~F.there | G.there and here = there &
(~F.here | G.here), the truth-table form of the here/there-copy reduction
of HT to classical logic (Pearce, Tompits & Woltran, TPLP 2009).

Layout: digit i (base 3) of a position is 0, 1 or 2 when atom i is
absent, only "there", or "here"; the n-atom tables are built by tripling
the (n-1)-atom tables.  Within one there-set, and among the total
interpretations, position order is canonical order (there-set mask, then
here-set mask), but the columns of different there-sets interleave.  So
ordered scans go through the projection of a set onto its total members
(Y, Y), n shifted ORs, which also give the equilibrium and closure tests.
The tables have 3^n bits, hence an explicit cap (default 16 atoms).

One walk, _Space.pairs, lists a table's members in canonical order as
(X, Y) bit masks, which the countermodel and DNF builders read as they
are.  Decoding a table into an InterpretationSet takes the same walk and
builds one checked HtInterpretation per member, eagerly.  The members
share one frozenset per atom mask, so the constructor's checks are two
subset tests and allocate nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .formula import (
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Or,
    Signature,
    Theory,
    Value,
    atoms_of,
)

DEFAULT_CAP = 16


class CapExceededError(Exception):
    """Raised when an enumeration would exceed the configured atom cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"enumeration over {needed} atoms exceeds the cap of {cap}"
        )


def format_atom_set(atoms: Iterable[str]) -> str:
    names = sorted(atoms)
    return " ".join(names) if names else "∅"


class HtInterpretation(Value):
    """A pair (here, there) of atom sets over a signature; immutable."""

    __slots__ = __match_args__ = ("here", "there", "over")

    here: frozenset[str]
    there: frozenset[str]
    over: Signature

    def __init__(
        self, here: Iterable[str], there: Iterable[str], over: Signature
    ) -> None:
        here, there = frozenset(here), frozenset(there)
        if not here <= there:
            raise ValueError(
                f"here-set must be contained in there-set: "
                f"{format_atom_set(here)} | {format_atom_set(there)}"
            )
        if not there <= over.names:
            extra = there - over.names
            raise ValueError(f"atoms outside the signature: {sorted(extra)}")
        _set_here(self, here)
        _set_there(self, there)
        _set_over(self, over)

    def total(self) -> bool:
        return self.here == self.there

    def display(self) -> str:
        return f"{format_atom_set(self.here)} | {format_atom_set(self.there)}"

    def __repr__(self) -> str:
        return f"({self.display()})"


_set_here = HtInterpretation.here.__set__
_set_there = HtInterpretation.there.__set__
_set_over = HtInterpretation.over.__set__


# --- the evaluator -----------------------------------------------------

_Tables = tuple[int, int]


def _tables(f: Formula, space: _Space) -> _Tables:
    """The (here, there) tables of f over the space's interpretations."""
    atom, full = space.atom, space.full
    values: list[_Tables] = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if node is And or node is Or or node is Implies:  # its operands are done
            g_here, g_there = values.pop()
            f_here, f_there = values.pop()
            if node is And:
                values.append((f_here & g_here, f_there & g_there))
            elif node is Or:
                values.append((f_here | g_here, f_there | g_there))
            else:
                there = (~f_there | g_there) & full
                values.append((there & (~f_here | g_here), there))
        elif kind is Atom:
            values.append(atom(node.name))
        elif kind is Implies:
            todo += (Implies, node.consequent, node.antecedent)
        elif kind is And or kind is Or:
            todo += (kind, node.right, node.left)
        elif kind is Bottom:
            values.append((0, 0))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


class _Space:
    """The 3^n interpretations over a signature, as table positions."""

    def __init__(self, sig: Signature, cap: int | None = None) -> None:
        if cap is not None and len(sig) > cap:
            raise CapExceededError(len(sig), cap)
        self.signature = sig
        self.weight = {name: 3**i for i, name in enumerate(sig)}
        # (X, Y) sits at offset[Y mask] + offset[X mask]; names[mask] is the
        # atom set, shared; twos[3^i] marks the positions whose digit i is 2.
        self.offset, self.names, self.total, self.twos = [0], [frozenset()], 1, {}
        for name, step in self.weight.items():
            self.offset += [o + step for o in self.offset]
            self.names += [atoms | {name} for atoms in self.names]
            self.total |= self.total << 2 * step
            self.twos = {s: t | t << step | t << 2 * step for s, t in self.twos.items()}
            self.twos[step] = ((1 << step) - 1) << 2 * step
        self.size = 3 ** len(sig)
        self.full = (1 << self.size) - 1

    def atom(self, name: str) -> _Tables:
        step = self.weight[name]
        here = self.twos[step]
        return here, here | here >> step

    def theory(self, t: Theory) -> int:
        table = self.full
        for f in t.formulas:
            table &= _tables(f, self)[0]
        return table

    def project(self, table: int) -> int:
        """The totals (Y, Y) whose column meets table."""
        for step, here in self.twos.items():
            table |= (table & here >> step) << step
        return table & self.total

    def totals(self, table: int) -> Iterator[int]:
        """The masks Y with (Y, Y) in table, ascending."""
        bits = table.to_bytes(self.size // 8 + 1, "little")
        for y, base in enumerate(self.offset):
            if bits[base >> 2] >> (2 * base & 7) & 1:  # (Y, Y) is at 2 * base
                yield y

    def pairs(self, table: int, columns: int | None = None, decode=None) -> Iterator:
        """table's members in canonical order, from the given totals' columns:
        each as its masks (x, y), or with decode as decode(X, Y, signature)."""
        bits = table.to_bytes(self.size // 8 + 1, "little")
        offset, names, sig = self.offset, self.names, self.signature
        for y in self.totals(self.project(table) if columns is None else columns):
            base, x = offset[y], 0
            while True:
                p = base + offset[x]
                if bits[p >> 3] >> (p & 7) & 1:
                    yield (x, y) if decode is None else decode(names[x], names[y], sig)
                if x == y:
                    break
                x = (x - y) & y  # the next submask of y

    def members(self, table: int, columns: int | None = None) -> Iterator[HtInterpretation]:
        """table's interpretations in canonical order, decoded on the walk of pairs."""
        return self.pairs(table, columns, HtInterpretation)

    def closure_violation(self, table: int) -> tuple[HtInterpretation, ...] | None:
        """A total member of table whose column is incomplete, with a missing (X, Y)."""
        missing = self.full ^ table
        broken = table & self.project(missing)
        if not broken:
            return None
        gap = next(self.members(missing, broken & -broken))
        return HtInterpretation(gap.there, gap.there, self.signature), gap


class InterpretationSet(Value):
    """A finite set of interpretations over one signature.

    Members are kept deduplicated in the canonical enumeration order
    (there-set mask ascending, then here-set mask), so equal sets compare
    equal structurally.
    """

    __slots__ = ("members", "signature", "_table")
    __match_args__ = ("members", "signature")

    def __init__(
        self, members: Iterable[HtInterpretation], signature: Signature | None = None
    ) -> None:
        members = tuple(members)
        if signature is None:
            if not members:
                raise ValueError("empty set needs an explicit signature")
            signature = members[0].over
        for m in members:
            if m.over != signature:
                raise ValueError(
                    f"interpretation over {m.over!r} in a set over {signature!r}"
                )
        object.__setattr__(self, "signature", signature)
        space = _Space(signature)
        weight = space.weight
        positions = {
            sum(weight[a] for a in m.there) + sum(weight[a] for a in m.here)
            for m in members
        }
        self._decode(space, sum(1 << p for p in positions))

    @classmethod
    def _of(cls, space: _Space, table: int) -> InterpretationSet:
        result = cls.__new__(cls)
        object.__setattr__(result, "signature", space.signature)
        result._decode(space, table)
        return result

    def _decode(self, space: _Space, table: int) -> None:
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "members", tuple(space.members(table)))

    def __iter__(self) -> Iterator[HtInterpretation]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: object) -> bool:
        return item in self.members

    def total_closure_violation(self) -> tuple[HtInterpretation, HtInterpretation] | None:
        """A total member whose family is incomplete, with a missing (X, Y)."""
        return _Space(self.signature).closure_violation(self._table)

    def display_lines(self) -> list[str]:
        return [m.display() for m in self.members]


# --- model sets --------------------------------------------------------

def ht_models(t: Theory, cap: int = DEFAULT_CAP) -> InterpretationSet:
    """The interpretations over t's signature satisfying every formula of t."""
    space = _Space(t.signature, cap)
    return InterpretationSet._of(space, space.theory(t))


def ht_countermodels(t: Theory, cap: int = DEFAULT_CAP) -> InterpretationSet:
    """The complement of ht_models; always total-closed."""
    space = _Space(t.signature, cap)
    return InterpretationSet._of(space, space.full ^ space.theory(t))


def _models_and_countermodels(
    t: Theory, cap: int = DEFAULT_CAP
) -> tuple[InterpretationSet, InterpretationSet]:
    """ht_models and ht_countermodels of t, from one compiled table."""
    space = _Space(t.signature, cap)
    models = space.theory(t)
    return (
        InterpretationSet._of(space, models),
        InterpretationSet._of(space, space.full ^ models),
    )


def ht_valid(f: Formula, cap: int = DEFAULT_CAP) -> bool:
    """True iff f holds at every interpretation over its own atoms.

    Validity is insensitive to enlarging the signature, so checking over
    the occurring atoms is enough.
    """
    space = _Space(atoms_of(f), cap)
    return _tables(f, space)[0] == space.full


class EquivalenceResult(Value):
    """Outcome of an equivalence check; witness satisfies exactly one side."""

    __slots__ = __match_args__ = ("equivalent", "witness")

    def __init__(
        self, equivalent: bool, witness: HtInterpretation | None = None
    ) -> None:
        object.__setattr__(self, "equivalent", equivalent)
        object.__setattr__(self, "witness", witness)


def ht_equivalent(
    t1: Theory, t2: Theory, cap: int = DEFAULT_CAP
) -> EquivalenceResult:
    """Equivalence in here-and-there, decided over the union signature.

    By the known characterization this coincides with strong equivalence
    of the two theories.  The witness is the first differing
    interpretation in canonical order.
    """
    space = _Space(t1.signature | t2.signature, cap)
    differ = space.theory(t1) ^ space.theory(t2)
    if not differ:
        return EquivalenceResult(True)
    return EquivalenceResult(False, next(space.members(differ)))


def equilibrium_models(
    t: Theory, cap: int = DEFAULT_CAP
) -> tuple[frozenset[str], ...]:
    """All Y with (Y, Y) a model of t and no (X, Y), X proper, a model."""
    space = _Space(t.signature, cap)
    models = space.theory(t)
    stable = models & space.total & ~space.project(models & ~space.total)
    return tuple(space.names[y] for y in space.totals(stable))
