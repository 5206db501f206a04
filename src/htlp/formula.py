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

Nodes and rules are immutable values, compared and hashed by their
fields, with __slots__ declared by hand (under dataclass(slots=True) the
frozen __setattr__ raises TypeError for names that are not fields).
Every constructor still checks, and copies and pickles are rebuilt
through the constructors.  The walks dispatch on the exact node type, so
the node kinds are not meant to be subclassed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

_ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Words of the text grammar that can never be atom names.
RESERVED_WORDS = frozenset({"not", "bot", "top"})


def is_valid_atom_name(name: str) -> bool:
    return bool(_ATOM_NAME.match(name)) and name not in RESERVED_WORDS


class Formula:
    """Base class of the five syntax-tree node kinds."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    __slots__ = ("name",)
    name: str

    def __post_init__(self) -> None:
        if not is_valid_atom_name(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True, repr=False)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    __slots__ = ("antecedent", "consequent")
    antecedent: Formula
    consequent: Formula


BOT = Bottom()
TOP = Implies(BOT, BOT)


def _is_top(f: object) -> bool:
    """f == TOP, by node type: no field-by-field dataclass comparison."""
    return (
        type(f) is Implies
        and type(f.antecedent) is Bottom
        and type(f.consequent) is Bottom
    )


def neg(f: Formula) -> Formula:
    """~F, stored as F -> bot."""
    return Implies(f, BOT)


def iff(f: Formula, g: Formula) -> Formula:
    """F <-> G, stored expanded as (F -> G) & (G -> F)."""
    return And(Implies(f, g), Implies(g, f))


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is top."""
    acc: Optional[Formula] = None
    for part in parts:
        acc = part if acc is None else And(acc, part)
    return TOP if acc is None else acc


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; the empty disjunction is bot."""
    acc: Optional[Formula] = None
    for part in parts:
        acc = part if acc is None else Or(acc, part)
    return BOT if acc is None else acc


class Signature:
    """Finite set of atom names, always iterated in name order.

    atoms is the sorted tuple of the names, names the same names as a
    frozenset, for membership and subset tests without allocation.
    """

    __slots__ = ("atoms", "names")

    def __init__(self, atoms: Iterable[str] = ()) -> None:
        self.names: frozenset[str] = frozenset(atoms)
        self.atoms: tuple[str, ...] = tuple(sorted(self.names))
        for name in self.atoms:
            if not is_valid_atom_name(name):
                raise ValueError(f"invalid atom name: {name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(self.atoms + other.atoms)

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(self.atoms)


def atoms_of(*formulas: Formula) -> Signature:
    """The atoms occurring in the formulas, in canonical order."""
    names: set[str] = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            names.add(node.name)
        elif kind is And or kind is Or:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Implies:
            if type(node.antecedent) is Atom:  # a literal ~a, or a -> G
                names.add(node.antecedent.name)
            else:
                stack.append(node.antecedent)
            stack.append(node.consequent)
    return Signature(names)


def _covering(signature: Optional[Signature], formulas: Iterable[Formula]) -> Signature:
    """signature, by default the formulas' atoms, which it must cover."""
    occurring = atoms_of(*formulas)
    signature = occurring if signature is None else signature
    extra = occurring.names - signature.names
    if extra:
        raise ValueError(f"signature is missing occurring atoms: {sorted(extra)}")
    return signature


@dataclass(frozen=True)
class Theory:
    """A finite list of formulas over an explicit signature.

    The signature always covers the occurring atoms and may be strictly
    larger when supplied explicitly.
    """

    formulas: tuple[Formula, ...]
    signature: Signature = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "signature", _covering(self.signature, self.formulas))

    def union(self, other: "Theory") -> "Theory":
        """Set union of the two theories over the union signature."""
        merged = list(dict.fromkeys(self.formulas + other.formulas))
        return Theory(tuple(merged), self.signature | other.signature)

    def with_signature(self, signature: Signature) -> "Theory":
        return Theory(self.formulas, signature)


# --- syntactic classes -------------------------------------------------

def is_nested_expression(f: Formula) -> bool:
    """True iff every implication inside f is a negation (or top).

    Walks the subtrees left to right and stops at the first implication
    that is not a negation, or raises TypeError at the first non-formula.
    """
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack.append(node.right)
            stack.append(node.left)
        elif kind is Implies:
            if type(node.consequent) is not Bottom:
                return False
            stack.append(node.antecedent)
        elif kind is not Atom and kind is not Bottom:
            raise TypeError(f"not a formula: {node!r}")
    return True


def is_literal(f: Formula) -> bool:
    """An atom or a negated atom."""
    if type(f) is Atom:
        return True
    return (
        type(f) is Implies
        and type(f.consequent) is Bottom
        and type(f.antecedent) is Atom
    )


def _is_literal_conjunction(f: Formula) -> bool:
    if type(f) is And:
        return _is_literal_conjunction(f.left) and _is_literal_conjunction(f.right)
    return is_literal(f)


def _is_literal_disjunction(f: Formula) -> bool:
    if type(f) is Or:
        return _is_literal_disjunction(f.left) and _is_literal_disjunction(f.right)
    return is_literal(f)


def _split_rule(f: Formula) -> Optional[tuple[Formula, Formula]]:
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
    body_ok = _is_top(body) or _is_literal_conjunction(body)
    head_ok = type(head) is Bottom or _is_literal_disjunction(head)
    return body_ok and head_ok


@dataclass(frozen=True, repr=False)
class Rule:
    """body -> head with both sides nested expressions."""

    __slots__ = ("body", "head")
    body: Formula
    head: Formula

    def __post_init__(self) -> None:
        if not is_nested_expression(self.body):
            raise ValueError(f"rule body is not a nested expression: {self.body!r}")
        if not is_nested_expression(self.head):
            raise ValueError(f"rule head is not a nested expression: {self.head!r}")

    @staticmethod
    def from_formula(f: Formula) -> "Rule":
        split = _split_rule(f)
        if split is None:
            raise ValueError(f"formula is not a rule: {f!r}")
        return Rule(*split)

    def __reduce__(self):
        return Rule, (self.body, self.head)

    def to_formula(self) -> Formula:
        return self.head if _is_top(self.body) else Implies(self.body, self.head)

    def is_nonnested(self) -> bool:
        return is_nonnested_rule(self.to_formula())

    def __repr__(self) -> str:
        return rule_to_text(self)


@dataclass(frozen=True, repr=False)
class Program:
    """A finite list of rules over an explicit signature."""

    rules: tuple[Rule, ...]
    signature: Signature = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        sides = (side for r in self.rules for side in (r.body, r.head))
        object.__setattr__(self, "signature", _covering(self.signature, sides))

    def is_nonnested(self) -> bool:
        return all(r.is_nonnested() for r in self.rules)

    def to_theory(self) -> Theory:
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


def _raw(f: Formula) -> str:
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Implies:
        return f"({_raw(f.antecedent)} -> {_raw(f.consequent)})"
    if kind is And or kind is Or:
        symbol, (first, *rest) = _chain(f)
        tail = "".join(f"{symbol}{_raw(g)})" for g in rest)
        return "(" * len(rest) + _raw(first) + tail
    if kind is Bottom:
        return "bot"
    raise TypeError(f"not a formula: {f!r}")


# Binding strengths used by the sugared printer; parenthesize a subterm
# whenever its own strength is below what the context requires.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NEG = 4
_PREC_ATOM = 5


def _sugared(f: Formula, context: int) -> str:
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Implies:
        antecedent = f.antecedent
        if type(f.consequent) is Bottom:  # ~a, top, then any other negation
            if type(antecedent) is Atom:
                return "~" + antecedent.name
            if type(antecedent) is Bottom:
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


def to_text(f: Formula, style: str = "sugared") -> str:
    """Render f in the text grammar.

    The raw style emits the five primitives fully parenthesized; the
    sugared style folds ~ and top back and drops redundant parentheses.
    Both round-trip through the parser.
    """
    if style == "raw":
        return _raw(f)
    if style == "sugared":
        return _sugared(f, _PREC_IMPLIES)
    raise ValueError(f"unknown style: {style!r}")


def rule_to_text(r: Rule) -> str:
    """One-line rule text; an implicit top body prints as the bare head."""
    if _is_top(r.body):
        return to_text(r.head)
    return f"{to_text(r.body)} -> {to_text(r.head)}"


def program_to_text(p: Program) -> str:
    return "\n".join(rule_to_text(r) for r in p.rules)
