"""The recursive-descent parser that htlp's precedence loop replaced.

Six mutually recursive methods, one per level of the grammar in
htlp.parser's docstring, over the same tokens.  Unchanged on purpose,
its recursion limit included: the property tests check that htlp.parse
builds the same trees and raises the same errors (message, line, column
and expected kinds).
"""

from __future__ import annotations

from htlp import BOT, TOP, And, Atom, Formula, Implies, Or, iff, neg
from htlp.parser import ParseError, Token, tokenize

_PRIMARY_EXPECTED = ("atom", "'bot'", "'top'", "'~'", "'not'", "'('")


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
