"""Tokenizer and parser for the formula text grammar.

Grammar, loosest binding first (`->` is right-associative, `&` and `|`
left-associative, `~` binds tightest):

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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek().kind == "iff":
            self.advance()
            return iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "implies":
            self.advance()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "or":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.peek().kind == "and":
            self.advance()
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        if self.peek().kind == "neg":
            self.advance()
            return neg(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        token = self.peek()
        if token.kind == "atom":
            self.advance()
            return Atom(token.text)
        if token.kind == "bot":
            self.advance()
            return BOT
        if token.kind == "top":
            self.advance()
            return TOP
        if token.kind == "lparen":
            self.advance()
            inner = self.formula()
            closing = self.peek()
            if closing.kind != "rparen":
                raise ParseError(
                    f"unbalanced parenthesis at {closing.text!r}" if closing.text
                    else "unbalanced parenthesis at end of input",
                    closing.line, closing.column, ("')'",),
                )
            self.advance()
            return inner
        raise ParseError(
            f"unexpected {token.text!r}" if token.text else "unexpected end of input",
            token.line, token.column, _PRIMARY_EXPECTED,
        )


def parse(text: str, start_line: int = 1) -> Formula:
    """Parse a single formula; derived connectives are stored expanded."""
    parser = _Parser(tokenize(text, start_line))
    result = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"trailing input {trailing.text!r}", trailing.line, trailing.column,
            ("end of input", "'&'", "'|'", "'->'", "'<->'"),
        )
    return result


def parse_theory(text: str, signature: Signature | None = None) -> Theory:
    """Parse a theory file: one formula per line, '%' comments allowed.

    '#signature a b c' lines extend the signature; atoms passed via the
    `signature` argument are merged in the same way.
    """
    formulas: list[Formula] = []
    extra: set[str] = set(signature) if signature is not None else set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("%", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            fields = stripped[1:].split()
            if not fields or fields[0] != "signature":
                raise ParseError(
                    f"unknown directive {stripped.split()[0]!r}", lineno, 1
                )
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
