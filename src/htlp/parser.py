"""Tokenizer and parser for the formula text grammar.

Grammar, loosest binding first (`->` is right-associative, `&` and `|`
left-associative, `~` binds tightest), read by one operator-precedence
loop with explicit stacks, so any depth of nesting parses:

    formula     := implication ('<->' formula)?
    implication := disjunction ('->' implication)?
    disjunction := conjunction ('|' conjunction)*
    conjunction := negation ('&' negation)*
    negation    := ('~' | 'not') negation | primary
    primary     := atom | 'bot' | 'top' | '(' formula ')'

Theory files hold one formula per line; '%' starts a comment and an
optional '#signature a b c' line extends the signature beyond the atoms
that occur.
"""

from __future__ import annotations

import re

from .formula import (
    _PREC_AND,
    _PREC_IMPLIES,
    _PREC_OR,
    BOT,
    TOP,
    And,
    Atom,
    Formula,
    Implies,
    Or,
    Signature,
    Theory,
    Value,
    iff,
    is_valid_atom_name,
    neg,
)


class ParseError(Exception):
    """Syntax error with position and the token kinds that were expected."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = ""
        if expected:
            suffix = f" (expected {', '.join(expected)})"
        super().__init__(f"line {line}, column {column}: {message}{suffix}")


class Token(Value):
    __slots__ = __match_args__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>%[^\n]*)
    | (?P<newline>\n)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<and>&)
    | (?P<or>\|)
    | (?P<neg>~)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<word>[a-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not": "neg", "bot": "bot", "top": "top"}

_PRIMARY_EXPECTED = ("atom", "'bot'", "'top'", "'~'", "'not'", "'('")


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line = start_line
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        assert kind is not None
        value = match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "word":
            tokens.append(Token(_KEYWORDS.get(value, "atom"), value, line, column))
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, column))
        pos = match.end()
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


# Each binary connective's binding strength (the printer's, with '<->' one
# level looser than '->'), whether it groups to the right, and its node.
_LOOSEST = _PREC_IMPLIES - 1
_BINARY = {
    "iff": (_LOOSEST, True, iff),
    "implies": (_PREC_IMPLIES, True, Implies),
    "or": (_PREC_OR, False, Or),
    "and": (_PREC_AND, False, And),
}
_CONSTANTS = {"bot": BOT, "top": TOP}


def _reduce(operands: list[Formula], pending: list[str], strength: int) -> None:
    """Apply the pending binary connectives that bind at least `strength`."""
    while pending and (entry := _BINARY.get(pending[-1])) and entry[0] >= strength:
        pending.pop()
        right = operands.pop()
        operands[-1] = entry[2](operands[-1], right)


def parse(text: str, start_line: int = 1) -> Formula:
    """Parse a single formula; derived connectives are stored expanded."""
    operands: list[Formula] = []
    pending: list[str] = []  # '(', '~' and binary connectives, innermost last
    expect_operand = True
    for token in tokenize(text, start_line):
        kind = token.kind
        if expect_operand:
            if kind == "neg" or kind == "lparen":
                pending.append(kind)
                continue
            if kind == "atom":
                operand = Atom(token.text)
            elif kind in _CONSTANTS:
                operand = _CONSTANTS[kind]
            else:
                raise ParseError(
                    f"unexpected {token.text!r}" if token.text
                    else "unexpected end of input",
                    token.line, token.column, _PRIMARY_EXPECTED,
                )
        elif kind in _BINARY:
            strength, right, _ = _BINARY[kind]
            _reduce(operands, pending, strength + right)  # to the right: equals wait
            pending.append(kind)
            expect_operand = True
            continue
        else:  # the operand so far is complete up to the innermost '('
            _reduce(operands, pending, _LOOSEST)
            if kind == "rparen" and pending:
                pending.pop()
                operand = operands.pop()
            elif pending:
                raise ParseError(
                    f"unbalanced parenthesis at {token.text!r}" if token.text
                    else "unbalanced parenthesis at end of input",
                    token.line, token.column, ("')'",),
                )
            elif kind == "end":
                break
            else:
                raise ParseError(
                    f"trailing input {token.text!r}", token.line, token.column,
                    ("end of input", "'&'", "'|'", "'->'", "'<->'"),
                )
        while pending and pending[-1] == "neg":  # each '~' whose operand is whole
            pending.pop()
            operand = neg(operand)
        operands.append(operand)
        expect_operand = False
    return operands.pop()


def parse_theory(text: str, signature: Signature | None = None) -> Theory:
    """Parse a theory file: one formula per line, '%' comments allowed.

    '#signature a b c' lines extend the signature; atoms passed via the
    `signature` argument are merged in the same way.
    """
    formulas: list[Formula] = []
    extra: set[str] = set(signature) if signature is not None else set()
    # Lines end at '\n' alone and blanks are ' ', '\t' and '\r', as in
    # tokenize: str.splitlines, strip and split would also take characters
    # the tokenizer rejects, such as '\x0c', for line breaks or blanks.
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("%", 1)[0]
        stripped = line.strip(" \t\r")
        if not stripped:
            continue
        if stripped.startswith("#"):
            fields = re.findall(r"[^ \t\r]+", stripped[1:])
            if not fields or fields[0] != "signature":
                directive = re.match(r"#[^ \t\r]*", stripped).group()
                raise ParseError(f"unknown directive {directive!r}", lineno, 1)
            for name in fields[1:]:
                if not is_valid_atom_name(name):
                    raise ParseError(
                        f"invalid atom name {name!r} in #signature", lineno, 1
                    )
                extra.add(name)
            continue
        formulas.append(parse(line, start_line=lineno))
    theory = Theory(tuple(formulas))
    if extra <= theory.signature.names:  # nothing to add: keep the one walk
        return theory
    return Theory(theory.formulas, theory.signature | Signature(extra))
