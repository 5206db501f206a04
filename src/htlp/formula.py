"""Propositional syntax trees and the rule/program view built on them.

The only primitive connectives are bot, &, | and ->.  The usual
abbreviations are definitional and expand on construction:

    ~F        is  F -> bot
    top       is  bot -> bot
    F <-> G   is  (F -> G) & (G -> F)

A *nested expression* is a formula whose implications are all negations
(consequent bot), a *rule* is an implication between two nested
expressions, and a *program* is a set of rules.  Bare nested expressions
count as rules with body top.

Nodes, signatures, rules, theories and programs are immutable values
(Value).  The leaves are interned: Atom(name) returns the one atom of that
name and Bottom() returns BOT, so they compare and hash by identity; the
binary nodes and the rest compare and hash by their fields.  Every
constructor checks, and copies and pickles are rebuilt through the
constructors: the node kinds refuse non-formula children, so every tree
is well formed, and acyclic, which lets _collector_paused pause the cyclic
collector.  The walks dispatch on the exact node type, so the node kinds
are not meant to be subclassed.  Two walks use an explicit stack, so no
depth is too deep: _postorder, which the evaluator, the raw rule count and
the syntactic translation fold over, and _operands, the leaves of an & or
| chain, which the nonnested check and the simplifier read.

Every node also keeps one private int, _bits, which its constructor
computes from its children's: bit 0 is set when the node is not a nested
expression, and bit i + 1 when the i-th name of a process-wide atom index
(numbered in first-seen order) occurs in it.  So the rule checks,
atoms_of and the signature checks of Theory and Program OR ints instead
of walking trees.  It costs 8 bytes per node, and past 256 (about the 8th
indexed atom) 32 more per binary node: CPython shares no larger int.  The
index keeps each atom name's one Atom, and its bit, for the life of the process.
_bits is not a field, so hash, == and repr ignore it, and on the binary
nodes they still recurse through the tree.
"""

from __future__ import annotations

import gc
import re
import threading
from collections.abc import Callable, Iterable, Iterator
from functools import wraps

_ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Words of the text grammar that can never be atom names.
RESERVED_WORDS = frozenset({"not", "bot", "top"})


def is_valid_atom_name(name: str) -> bool:
    return bool(_ATOM_NAME.match(name)) and name not in RESERVED_WORDS


class Value:
    """An immutable value whose fields are named, in order, by __match_args__.

    Instances are equal and hashed by their fields, as frozen dataclasses
    are; assignment and deletion raise dataclasses.FrozenInstanceError;
    copies and pickles go back through the constructor, so its checks hold
    for every instance: the node kinds refuse a non-formula child with
    TypeError.  Subclasses declare __slots__ and, since their own
    __setattr__ raises, set their fields in __init__ with
    object.__setattr__, or where construction is hot with the slot
    descriptors' __set__.  The leaves are interned and compare and hash
    by identity; the binary nodes and Rule spell __eq__ and __hash__ out
    over their fields: trees are hashed and compared node by node, where
    the generic methods cost about twice as much.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Formula(Value):
    """Base class of the five syntax-tree node kinds."""

    __slots__ = ("_bits",)
    # The leaves are interned, so identity is their equality; _Binary
    # compares its fields.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return to_text(self)


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls) -> Bottom:
        return BOT


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> Atom:
        # Only valid names are indexed, so an indexed one skips the check.
        atom = _ATOMS.get(name) if type(name) is str else None
        if atom is None:
            if not is_valid_atom_name(name):
                raise ValueError(f"invalid atom name: {name!r}")
            with _INDEX_LOCK:
                atom = _ATOMS.get(name)
                if atom is None:
                    atom = object.__new__(cls)
                    _set_name(atom, name)
                    _INDEXED.append(name)
                    _set_bits(atom, 1 << len(_INDEXED))
                    _ATOMS[name] = atom
        return atom


class _Binary(Formula):
    """The fields and methods And, Or and Implies share, __eq__ and __hash__
    spelt out over the two children; not a node kind itself."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)
        try:
            _set_bits(self, left._bits | right._bits)
        except (AttributeError, TypeError):
            raise _not_a_formula(left, right) from None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()
    __match_args__ = ("antecedent", "consequent")
    antecedent, consequent = _Binary.left, _Binary.right

    def __init__(self, antecedent: Formula, consequent: Formula) -> None:
        _set_left(self, antecedent)
        _set_right(self, consequent)
        try:  # a nested expression only when a negation
            bits = antecedent._bits | consequent._bits | (consequent is not BOT)
        except (AttributeError, TypeError):
            raise _not_a_formula(antecedent, consequent) from None
        _set_bits(self, bits)


# The slot descriptors' setters, the cheapest way past Value.__setattr__.
_set_bits, _set_name = Formula._bits.__set__, Atom.name.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__

# The process-wide atom index: the one atom of each name, and the names by
# bit position minus one.  Only Atom adds to them, under the lock.
_ATOMS: dict[str, Atom] = {}
_INDEXED: list[str] = []
_INDEX_LOCK = threading.Lock()

BOT = object.__new__(Bottom)
_set_bits(BOT, 0)  # no atoms, and nested


def _not_a_formula(*values: object) -> TypeError:
    """The error naming the first of values that has no node's int bits."""
    bad = next(v for v in values if type(getattr(v, "_bits", None)) is not int)
    return TypeError(f"not a formula: {bad!r}")


def _names(bits: int) -> set[str]:
    """The atom names whose bits are set in bits (bit 0 is ignored)."""
    names: set[str] = set()
    bits &= ~1
    while bits:
        low = bits & -bits
        names.add(_INDEXED[low.bit_length() - 2])
        bits ^= low
    return names


TOP = Implies(BOT, BOT)


def _is_top(f: object) -> bool:
    """f == TOP, by the one BOT: no field-by-field comparison."""
    return type(f) is Implies and f.antecedent is BOT and f.consequent is BOT


def _postorder(f: Formula, as_or: Callable | None = None) -> list:
    """f's atoms and bots as themselves and its other nodes as their kind
    (And, Or or Implies) once their operands are done, left to right,
    listed from an explicit stack.  as_or(node) may name a pair (F, G) for
    an And node, which is then walked as F | G."""
    if type(getattr(f, "_bits", None)) is not int:
        raise _not_a_formula(f)  # below the root, the constructors checked
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is And and as_or is not None and (pair := as_or(node)):
            todo += (Or, pair[1], pair[0])
        elif kind is Implies or kind is And or kind is Or:
            todo += (kind, node.right, node.left)
        else:  # an atom, a bot or a kind whose operands are done
            out.append(node)
    return out


def _operands(f: Formula, kind: type) -> list[Formula]:
    """The leaves of the kind (And or Or) tree at the top of f, left to right."""
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        if type(node) is kind:
            todo += (node.right, node.left)
        else:
            out.append(node)
    return out


def neg(f: Formula) -> Formula:
    """~F, stored as F -> bot."""
    return Implies(f, BOT)


def iff(f: Formula, g: Formula) -> Formula:
    """F <-> G, stored expanded as (F -> G) & (G -> F)."""
    return And(Implies(f, g), Implies(g, f))


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is top."""
    parts = iter(parts)
    acc = next(parts, TOP)
    for part in parts:
        acc = And(acc, part)
    return acc


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; the empty disjunction is bot."""
    parts = iter(parts)
    acc = next(parts, BOT)
    for part in parts:
        acc = Or(acc, part)
    return acc


class Signature(Value):
    """Finite set of atom names, always iterated in name order.

    atoms, the one field, is the sorted tuple of the names; names holds
    the same names as a frozenset, for membership and subset tests
    without allocation.
    """

    __slots__ = ("atoms", "names")
    __match_args__ = ("atoms",)

    def __init__(self, atoms: Iterable[str] = ()) -> None:
        names = frozenset(atoms)
        sorted_atoms = tuple(sorted(names))
        for name in sorted_atoms:
            if not is_valid_atom_name(name):
                raise ValueError(f"invalid atom name: {name!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "atoms", sorted_atoms)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(self.atoms + other.atoms)

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(self.atoms)


def atoms_of(*formulas: Formula) -> Signature:
    """The atoms occurring in the formulas, in canonical order."""
    return Signature(_atom_names(formulas))


def _atom_names(formulas: tuple[Formula, ...]) -> set[str]:
    """The atoms of the formulas, from their nodes' bits; a non-formula
    among them is refused, the last one first."""
    bits = 0
    try:
        for f in formulas:
            bits |= f._bits
    except (AttributeError, TypeError):
        raise _not_a_formula(*formulas[::-1]) from None
    return _names(bits)


def _covering(signature: Signature | None, occurring: set[str]) -> Signature:
    """signature, by default the occurring atoms, which it must cover."""
    if signature is None:
        return Signature(occurring)
    extra = occurring - signature.names
    if extra:
        raise ValueError(f"signature is missing occurring atoms: {sorted(extra)}")
    return signature


class Theory(Value):
    """A finite list of formulas over an explicit signature.

    The signature always covers the occurring atoms and may be strictly
    larger when supplied explicitly.
    """

    __slots__ = ("formulas", "signature", "__weakref__")  # the key of _Space.compiled
    __match_args__ = ("formulas", "signature")

    def __init__(
        self, formulas: Iterable[Formula], signature: Signature | None = None
    ) -> None:
        formulas = tuple(formulas)
        object.__setattr__(self, "formulas", formulas)
        object.__setattr__(self, "signature", _covering(signature, _atom_names(formulas)))

    def union(self, other: "Theory") -> "Theory":
        """Set union of the two theories over the union signature."""
        merged = list(dict.fromkeys(self.formulas + other.formulas))
        return Theory(tuple(merged), self.signature | other.signature)


# --- syntactic classes -------------------------------------------------

def is_nested_expression(f: Formula) -> bool:
    """True iff every implication inside f is a negation (or top)."""
    try:
        return not f._bits & 1
    except (AttributeError, TypeError):
        raise _not_a_formula(f) from None


def is_literal(f: Formula) -> bool:
    """An atom or a negated atom."""
    return type(f) is Atom or (
        type(f) is Implies and f.consequent is BOT and type(f.antecedent) is Atom
    )


def _split_rule(f: Formula) -> tuple[Formula, Formula] | None:
    """Body/head decomposition of a formula in rule form, or None.

    A proper implication between nested expressions splits as written,
    even when it also happens to be a negation; any other nested
    expression G becomes the implicit rule top -> G.
    """
    if (
        type(f) is Implies
        and not _is_top(f)
        and is_nested_expression(f.antecedent)
        and is_nested_expression(f.consequent)
    ):
        return f.antecedent, f.consequent
    if is_nested_expression(f):
        return TOP, f
    return None


def is_rule(f: Formula) -> bool:
    """True iff f is an implication of nested expressions, or nested itself."""
    return _split_rule(f) is not None


def is_nonnested_rule(f: Formula) -> bool:
    """True iff f is a rule of the shape literals -> literals.

    The body is a conjunction of literals (top when empty) and the head a
    disjunction of literals (bot when empty), in any association.
    """
    split = _split_rule(f)
    if split is None:
        return False
    body, head = split
    body_ok = _is_top(body) or all(map(is_literal, _operands(body, And)))
    return body_ok and (head is BOT or all(map(is_literal, _operands(head, Or))))


class Rule(Value):
    """body -> head with both sides nested expressions.

    A rule keeps its two sides and nothing else: its atoms are the set
    bits of its sides' _bits, which Program's signature check ORs.
    """

    __slots__ = __match_args__ = ("body", "head")

    def __init__(self, body: Formula, head: Formula) -> None:
        try:
            bits = body._bits | head._bits
        except (AttributeError, TypeError):  # a non-formula side
            bits = 1
        if bits & 1:  # say which side fails, and how: the body first
            for side, f in (("body", body), ("head", head)):
                if not is_nested_expression(f):
                    raise ValueError(f"rule {side} is not a nested expression: {f!r}")
        _set_body(self, body)
        _set_head(self, head)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.body, self.head) == (other.body, other.head)

    def __hash__(self) -> int:
        return hash((self.body, self.head))

    @staticmethod
    def from_formula(f: Formula) -> "Rule":
        split = _split_rule(f)
        if split is None:
            raise ValueError(f"formula is not a rule: {f!r}")
        return Rule(*split)

    def to_formula(self) -> Formula:
        return self.head if _is_top(self.body) else Implies(self.body, self.head)

    def is_nonnested(self) -> bool:
        return is_nonnested_rule(self.to_formula())

    def __repr__(self) -> str:
        return rule_to_text(self)


_set_body, _set_head = Rule.body.__set__, Rule.head.__set__


def _rule_atoms(rules: tuple[Rule, ...]) -> set[str]:
    """The atoms of the rules, from their sides' bits."""
    bits = 0
    try:
        for r in rules:
            bits |= r.body._bits | r.head._bits
    except AttributeError:  # only a non-rule lacks body or head
        bad = next(r for r in rules if not isinstance(r, Rule))
        raise TypeError(f"not a rule: {bad!r}") from None
    return _names(bits)


def _collector_paused(build: Callable) -> Callable:
    """build, with CPython's cyclic collector off if it was on, then on again.
    Nodes take finished children and the builders' memos are int-keyed dicts
    and lru_caches, so no tree, rule, program or interpretation holds a cycle:
    while a tree grows, the collector only rescans it and frees nothing."""
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Program(Value):
    """A finite list of rules over an explicit signature."""

    __slots__ = __match_args__ = ("rules", "signature")

    def __init__(
        self, rules: Iterable[Rule], signature: Signature | None = None
    ) -> None:
        rules = tuple(rules)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "signature", _covering(signature, _rule_atoms(rules)))

    def is_nonnested(self) -> bool:
        return all(r.is_nonnested() for r in self.rules)

    @_collector_paused
    def to_theory(self) -> Theory:
        """The rules as formulas, over the program's signature."""
        return Theory(tuple(r.to_formula() for r in self.rules), self.signature)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __repr__(self) -> str:
        return program_to_text(self)


# --- printing ----------------------------------------------------------

def _chain(f: And | Or) -> tuple[str, list[Formula]]:
    """f's symbol and the operands of its left-nested chain (deep from conj, disj)."""
    kind, operands = type(f), []
    while type(f) is kind:
        operands.append(f.right)
        f = f.left
    return (" & " if kind is And else " | "), [f] + operands[::-1]


# Binding strengths used by the printer and the parser; parenthesize a
# subterm whenever its own strength is below what the context requires.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NEG = 4


def _sugared(f: Formula, context: int) -> str:
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Implies:
        antecedent = f.antecedent
        if f.consequent is BOT:  # ~a, top, then any other negation
            if type(antecedent) is Atom:
                return "~" + antecedent.name
            if antecedent is BOT:
                return "top"
            return "~" + _sugared(antecedent, _PREC_NEG)
        text = (
            f"{_sugared(antecedent, _PREC_IMPLIES + 1)} -> "
            f"{_sugared(f.consequent, _PREC_IMPLIES)}"
        )
        return f"({text})" if context > _PREC_IMPLIES else text
    if kind is And or kind is Or:
        prec = _PREC_AND if kind is And else _PREC_OR
        symbol, (first, *rest) = _chain(f)
        parts = [_sugared(first, prec)] + [_sugared(g, prec + 1) for g in rest]
        text = symbol.join(parts)
        return f"({text})" if context > prec else text
    if kind is Bottom:
        return "bot"
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula) -> str:
    """Render f in the text grammar, folding ~ and top back and dropping
    redundant parentheses; the text round-trips through the parser."""
    return _sugared(f, _PREC_IMPLIES)


def rule_to_text(r: Rule) -> str:
    """One-line rule text; an implicit top body prints as the bare head."""
    if _is_top(r.body):
        return to_text(r.head)
    return f"{to_text(r.body)} -> {to_text(r.head)}"


def program_to_text(p: Program) -> str:
    """One rule per line; a side that several rules share is printed once."""
    texts: dict[int, str] = {}  # by id: p holds every side while this runs

    def side(f: Formula) -> str:
        text = texts.get(id(f))
        if text is None:
            text = texts[id(f)] = to_text(f)
        return text

    return "\n".join(
        side(r.head) if _is_top(r.body) else f"{side(r.body)} -> {side(r.head)}"
        for r in p.rules
    )
