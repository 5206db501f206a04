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
of HT to classical logic (Pearce, Tompits & Woltran, TPLP 2009).  When
G.there is empty, as for F -> bot, both tables are ~F.there: one big-int
operation per negation.

Layout: digit i (base 3) of a position is 0, 1 or 2 when atom i is
absent, only "there", or "here"; the n-atom tables are built by tripling
the (n-1)-atom tables.  Within one there-set, and among the total
interpretations, position order is canonical order (there-set mask, then
here-set mask), but the columns of different there-sets interleave.  So
ordered scans go through the projection of a set onto its total members
(Y, Y), n shifted ORs, which also give the equilibrium and closure tests.
The tables have 3^n bits, hence an explicit cap (default 16 atoms).

A listing goes column by column, the column of Y being its (X, Y).  The
first listing of a column builds its selector (_Space.column), which the
space keeps: the submasks X in order, an operator.itemgetter of the byte
of each position in the table's bytes, and the bit of each position in
its byte.  itertools.compress then picks the column's members in C, so a
listing runs no Python code per position once its columns are built.
Building a selector costs about as much per position as testing the
position in Python, and keeping it about 60 bytes per position.
_Space.pairs gives the members as (X, Y) bit masks, which the
countermodel and DNF builders read as they are.  _Space.members gives
each as the space's one HtInterpretation of (X, Y): a column keeps a
slot per position and fills it the first time its member is listed, so
every later set over that signature shares the object.  A submask pair
is valid by construction, so the fill skips the constructor's checks;
the members share one frozenset per atom mask.  An equivalence witness
or a closure violation decodes its one member, not its column.  The last
space of each signature size is shared (_space), so the sub-spaces of a
per-formula translation leave the theory's own space in place.  A space
also keeps the last theory compiled over it, under a weak reference, and
its table (_Space.compiled): theories are immutable, and a dropped one
is neither kept nor matched.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator
from itertools import compress, repeat
from operator import and_, itemgetter, rshift

from .formula import (
    And,
    Atom,
    Bottom,
    Formula,
    Or,
    Signature,
    Theory,
    Value,
    _postorder,
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
_new = object.__new__


# --- the evaluator -----------------------------------------------------

_Tables = tuple[int, int]
_BIT = bytes([1 << i for i in range(8)])  # the bit of each position mod 8 in its byte
# _ROTATE[k] takes the bit of position p in its byte to that of p + k.
_ROTATE = [bytes.maketrans(_BIT, _BIT[k:] + _BIT[:k]) for k in range(8)]


def _tables(f: Formula, space: _Space) -> _Tables:
    """The (here, there) tables of f over the space's interpretations."""
    atom, full = space.atom, space.full
    values: list[_Tables] = []
    for node in _postorder(f):
        kind = type(node)
        if kind is Atom:
            values.append(atom(node.name))
        elif kind is Bottom:
            values.append((0, 0))
        else:  # a kind whose operands are done
            g_here, g_there = values.pop()
            f_here, f_there = values.pop()
            if node is And:
                values.append((f_here & g_here, f_there & g_there))
            elif node is Or:
                values.append((f_here | g_here, f_there | g_there))
            elif not g_there:  # F -> bot and its kin: both tables are ~F.there
                there = full ^ f_there
                values.append((there, there))
            else:
                there = full ^ f_there | g_there
                values.append(((full ^ f_here | g_here) & there, there))
    return values[0]


class _Space:
    """The 3^n interpretations over a signature, as table positions; the
    selector of each column listed so far sits in columns[Y mask]."""

    def __init__(self, sig: Signature) -> None:
        self.signature, self.columns, self.last = sig, {}, (lambda: None, 0)
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

    def position(self, m: HtInterpretation) -> int:
        """The bit of m, an interpretation over the space's signature."""
        weight = self.weight
        return sum(weight[a] for a in m.there) + sum(weight[a] for a in m.here)

    def theory(self, t: Theory) -> int:
        table = self.full
        for f in t.formulas:
            table &= _tables(f, self)[0]
        return table

    def compiled(self, t: Theory) -> int:
        """t's table, compiled unless t is the last theory compiled here."""
        key, table = self.last  # one read: another thread may replace it
        if key() is not t:
            table = self.theory(t)
            self.last = weakref.ref(t), table
        return table

    def project(self, table: int) -> int:
        """The totals (Y, Y) whose column meets table."""
        for step, here in self.twos.items():
            table |= (table & here >> step) << step
        return table & self.total

    def totals(self, table: int) -> Iterator[int]:
        """The masks Y with (Y, Y) in table, ascending."""
        bits = self.as_bytes(table)
        for y, base in enumerate(self.offset):
            if bits[base >> 2] >> (2 * base & 7) & 1:  # (Y, Y) is at 2 * base
                yield y

    def as_bytes(self, table: int) -> bytes:
        return table.to_bytes(self.size // 8 + 1, "little")

    def column(self, y: int) -> tuple:
        """Column y's selector, built once: its submasks x ascending, a getter
        of the byte of each position (X, Y) in a table's bytes, the bit of
        each position in its byte, and the column's decoded members."""
        selector = self.columns.get(y)
        if selector is None:
            from array import array  # its own shared library: not loaded by import htlp

            base = self.offset[y]
            xs, positions, masks = [0], [base], bytes([1 << (base & 7)])
            for i in range(y.bit_length()):
                if y >> i & 1:  # the submasks with atom i follow all those without
                    atom, step = 1 << i, self.offset[1 << i]
                    xs += [x | atom for x in xs]
                    positions += [p + step for p in positions]
                    masks += masks.translate(_ROTATE[step & 7])
            # The trailing 0 keeps a one-position column's bytes a tuple.
            get = itemgetter(*map(rshift, positions, repeat(3)), 0)
            selector = self.columns[y] = array("L", xs), get, masks, [None] * len(xs)
        return selector

    def pairs(self, table: int, columns: int | None = None) -> Iterator[tuple[int, int]]:
        """table's members in canonical order, from the given totals' columns,
        each as its masks (x, y)."""
        bits = self.as_bytes(table)
        for y in self.totals(self.project(table) if columns is None else columns):
            xs, get, masks, _ = self.column(y)
            yield from zip(compress(xs, map(and_, get(bits), masks)), repeat(y))

    def members(self, table: int, columns: int | None = None) -> list[HtInterpretation]:
        """The space's one HtInterpretation of each (X, Y) of pairs, decoded
        on first listing."""
        bits, names, sig, found = self.as_bytes(table), self.names, self.signature, []
        for y in self.totals(self.project(table) if columns is None else columns):
            xs, get, masks, slots = self.column(y)
            if not all(slots):  # some member of the column is not decoded yet
                there = names[y]
                for i in compress(range(len(xs)), map(and_, get(bits), masks)):
                    if slots[i] is None:  # a valid pair by construction: no checks
                        slots[i] = m = _new(HtInterpretation)
                        _set_here(m, names[xs[i]]), _set_there(m, there), _set_over(m, sig)
            found += compress(slots, map(and_, get(bits), masks))
        return found

    def member(self, table: int, total: int) -> HtInterpretation:
        """table's first member in the column of the total at bit total,
        decoded alone."""
        x, y = next(self.pairs(table, total))
        return self.members(1 << self.offset[y] + self.offset[x], total)[0]

    def closure_violation(self, table: int) -> tuple[HtInterpretation, ...] | None:
        """A total member of table whose column is incomplete, with a missing (X, Y)."""
        missing = self.full ^ table
        broken = table & self.project(missing)
        if not broken:
            return None
        column = broken & -broken
        return self.member(broken, column), self.member(missing, column)


_spaces: dict[int, _Space] = {}


def _space(sig: Signature, cap: int | None = None) -> _Space:
    """The space over sig, shared since the last call over another signature
    of its size."""
    if cap is not None and len(sig) > cap:
        raise CapExceededError(len(sig), cap)
    space = _spaces.get(len(sig))
    if space is None or space.signature != sig:
        space = _spaces[len(sig)] = _Space(sig)
    return space


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
        space = _space(signature)
        positions = {space.position(m) for m in members}
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
        if type(item) is not HtInterpretation or item.over != self.signature:
            return False
        return self._table >> _space(self.signature).position(item) & 1 == 1

    def total_closure_violation(self) -> tuple[HtInterpretation, HtInterpretation] | None:
        """A total member whose family is incomplete, with a missing (X, Y)."""
        return _space(self.signature).closure_violation(self._table)

    def display_lines(self) -> list[str]:
        return [m.display() for m in self.members]


# --- model sets --------------------------------------------------------

def ht_models(t: Theory, cap: int = DEFAULT_CAP) -> InterpretationSet:
    """The interpretations over t's signature satisfying every formula of t."""
    space = _space(t.signature, cap)
    return InterpretationSet._of(space, space.compiled(t))


def ht_countermodels(t: Theory, cap: int = DEFAULT_CAP) -> InterpretationSet:
    """The complement of ht_models; always total-closed."""
    space = _space(t.signature, cap)
    return InterpretationSet._of(space, space.full ^ space.compiled(t))


def ht_valid(f: Formula, cap: int = DEFAULT_CAP) -> bool:
    """True iff f holds at every interpretation over its own atoms.

    Validity is insensitive to enlarging the signature, so checking over
    the occurring atoms is enough.
    """
    t = Theory((f,))
    space = _space(t.signature, cap)
    return space.theory(t) == space.full


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
    space = _space(t1.signature | t2.signature, cap)
    differ = space.compiled(t1) ^ space.compiled(t2)
    if not differ:
        return EquivalenceResult(True)
    columns = space.project(differ)
    return EquivalenceResult(False, space.member(differ, columns & -columns))


def equilibrium_models(
    t: Theory, cap: int = DEFAULT_CAP
) -> tuple[frozenset[str], ...]:
    """All Y with (Y, Y) a model of t and no (X, Y), X proper, a model."""
    space = _space(t.signature, cap)
    models = space.compiled(t)
    stable = models & space.total & ~space.project(models & ~space.total)
    return tuple(space.names[y] for y in space.totals(stable))
