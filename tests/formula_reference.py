"""Reference walks and printer over formula trees, for differential tests.

Recursive, isinstance-based and unoptimized on purpose: the syntax-tree
code that htlp's type-dispatched walks replaced.  The property tests
check that htlp gives the same verdicts, the same errors, the same atoms
and the same texts.
"""

from __future__ import annotations

from htlp import BOT, TOP, And, Atom, Bottom, Formula, Implies, Or, Signature


def is_nested_expression(f: Formula) -> bool:
    if isinstance(f, (Atom, Bottom)):
        return True
    if isinstance(f, (And, Or)):
        return is_nested_expression(f.left) and is_nested_expression(f.right)
    if isinstance(f, Implies):
        return f.consequent == BOT and is_nested_expression(f.antecedent)
    raise TypeError(f"not a formula: {f!r}")


def same_tree(f: Formula, g: Formula) -> bool:
    """f and g have the same node kinds and atom names, node by node: the
    structural equality that == and hash must agree with."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        return f.name == g.name
    if isinstance(f, (And, Or)):
        return same_tree(f.left, g.left) and same_tree(f.right, g.right)
    if isinstance(f, Implies):
        return same_tree(f.antecedent, g.antecedent) and same_tree(f.consequent, g.consequent)
    return isinstance(f, Bottom)


def postorder(f: Formula) -> list:
    """f's atoms and bots, and each other node's class after its operands."""
    if isinstance(f, (Atom, Bottom)):
        return [f]
    if isinstance(f, (And, Or)):
        return postorder(f.left) + postorder(f.right) + [type(f)]
    if isinstance(f, Implies):
        return postorder(f.antecedent) + postorder(f.consequent) + [Implies]
    raise TypeError(f"not a formula: {f!r}")


def _is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (
        isinstance(f, Implies) and f.consequent == BOT and isinstance(f.antecedent, Atom)
    )


def _literal_tree(f: Formula, kind: type) -> bool:
    if isinstance(f, kind):
        return _literal_tree(f.left, kind) and _literal_tree(f.right, kind)
    return _is_literal(f)


def is_nonnested_rule(f: Formula) -> bool:
    """A conjunction of literals (or top) -> a disjunction of literals (or
    bot); an implication other than top splits as written, and any other
    nested expression G is top -> G."""
    if (
        isinstance(f, Implies) and f != TOP
        and is_nested_expression(f.antecedent) and is_nested_expression(f.consequent)
    ):
        body, head = f.antecedent, f.consequent
    elif is_nested_expression(f):
        body, head = TOP, f
    else:
        return False
    return (body == TOP or _literal_tree(body, And)) and (head == BOT or _literal_tree(head, Or))


def atoms_of(*formulas: Formula) -> Signature:
    names: set[str] = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Implies):
            stack.append(node.antecedent)
            stack.append(node.consequent)
        elif not isinstance(node, Bottom):
            raise TypeError(f"not a formula: {node!r}")
    return Signature(names)


def _chain(f):
    kind, operands = type(f), []
    while type(f) is kind:
        operands.append(f.right)
        f = f.left
    return (" & " if kind is And else " | "), [f] + operands[::-1]


def _raw(f: Formula) -> str:
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (And, Or)):
        symbol, (first, *rest) = _chain(f)
        tail = "".join(f"{symbol}{_raw(g)})" for g in rest)
        return "(" * len(rest) + _raw(first) + tail
    if isinstance(f, Implies):
        return f"({_raw(f.antecedent)} -> {_raw(f.consequent)})"
    raise TypeError(f"not a formula: {f!r}")


_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NEG = 1, 2, 3, 4


def _sugared(f: Formula, context: int) -> str:
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Atom):
        return f.name
    if f == TOP:
        return "top"
    if isinstance(f, Implies) and f.consequent == BOT:
        return "~" + _sugared(f.antecedent, _PREC_NEG)
    if isinstance(f, (And, Or)):
        prec = _PREC_AND if isinstance(f, And) else _PREC_OR
        symbol, (first, *rest) = _chain(f)
        parts = [_sugared(first, prec)] + [_sugared(g, prec + 1) for g in rest]
        text = symbol.join(parts)
        return f"({text})" if context > prec else text
    if isinstance(f, Implies):
        text = (
            f"{_sugared(f.antecedent, _PREC_IMPLIES + 1)} -> "
            f"{_sugared(f.consequent, _PREC_IMPLIES)}"
        )
        return f"({text})" if context > _PREC_IMPLIES else text
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula, style: str = "sugared") -> str:
    return _raw(f) if style == "raw" else _sugared(f, _PREC_IMPLIES)
