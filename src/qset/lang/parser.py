"""Recursive-descent parser producing spanned syntax trees.

Statements are self-delimiting (there are no infix operators), so a
program is just a sequence of statements with optional ';' noise
between them.  Operator arity is checked here, not at evaluation time,
so a malformed call never starts executing.

Calls, quasi-set literals and pair literals nest at most 200 levels
deep; the parser, the evaluator and the kernel all recurse on each
level, and the limit keeps every script inside Python's stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError
from .lexer import Span, Token

__all__ = [
    "KindDecl",
    "MAtomsDecl",
    "CAtomDecl",
    "LetStmt",
    "CheckStmt",
    "Name",
    "IntLit",
    "QSetLit",
    "Elem",
    "PairLit",
    "App",
    "OPERATORS",
    "parse",
]

_MAX_NESTING = 200

# op name -> (min arity, max arity)
OPERATORS: dict[str, tuple[int, int]] = {
    "indist": (2, 2),
    "qc": (1, 1),
    "classical": (1, 1),
    "mem": (2, 2),
    "pow": (1, 1),
    "sing": (2, 2),
    "pair": (3, 3),
    "opair": (3, 3),
    "prod": (2, 2),
    "union": (2, 2),
    "bigunion": (1, 1),
    "qfun": (3, 3),
    "idq": (1, 1),
    "comp": (2, 2),
    "qequiv": (2, 2),
    "eq": (2, 2),
    "build": (1, 2),
    "audit": (1, 1),
    "classify": (2, 2),
    "small": (3, 3),
}


@dataclass(frozen=True)
class KindDecl:
    name: str
    span: Span


@dataclass(frozen=True)
class MAtomsDecl:
    alias: str
    kind_name: str
    count: int
    span: Span


@dataclass(frozen=True)
class CAtomDecl:
    name: str
    span: Span


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: object
    span: Span


@dataclass(frozen=True)
class CheckStmt:
    expr: object
    span: Span


@dataclass(frozen=True)
class Name:
    ident: str
    span: Span


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span


@dataclass(frozen=True)
class PairLit:
    first: object
    second: object
    span: Span


@dataclass(frozen=True)
class Elem:
    node: object
    count: int
    span: Span


@dataclass(frozen=True)
class QSetLit:
    elems: tuple[Elem, ...]
    span: Span


@dataclass(frozen=True)
class App:
    op: str
    args: tuple
    span: Span


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, expected=(), span: Span | None = None):
        tok = self.peek()
        raise ParseError(message, span=span or tok.span, expected=expected)

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            return self.advance()
        self.fail("expected '%s', found %s" % (ch, _show(tok)), expected=("'%s'" % ch,))

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident":
            return self.advance()
        self.fail("expected %s, found %s" % (what, _show(tok)), expected=("ident",))

    def expect_int(self) -> Token:
        tok = self.peek()
        if tok.kind == "int":
            return self.advance()
        self.fail("expected integer, found %s" % _show(tok), expected=("int",))

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def descend(self, tok: Token) -> None:
        """Enter one nesting level opened by ``tok``; the caller leaves it."""
        if self.nesting == _MAX_NESTING:
            self.fail("nesting is deeper than %d levels" % _MAX_NESTING, span=tok.span)
        self.nesting += 1

    # -- grammar -----------------------------------------------------

    def program(self) -> tuple:
        stmts = []
        while True:
            while self.at_punct(";"):
                self.advance()
            if self.peek().kind == "eof":
                return tuple(stmts)
            stmts.append(self.statement())

    def statement(self):
        tok = self.peek()
        if tok.kind == "keyword":
            self.advance()
            if tok.text == "kind":
                name = self.expect_ident("kind name")
                return KindDecl(name.text, Span(tok.span.start, name.span.end))
            if tok.text == "matoms":
                alias = self.expect_ident("atom name")
                self.expect_punct(":")
                kind_name = self.expect_ident("kind name")
                self.expect_punct("^")
                count = self.expect_int()
                value = int(count.text)
                if value < 1:
                    self.fail("atom population must be >= 1", span=count.span)
                return MAtomsDecl(alias.text, kind_name.text, value, Span(tok.span.start, count.span.end))
            if tok.text == "catom":
                name = self.expect_ident("atom name")
                return CAtomDecl(name.text, Span(tok.span.start, name.span.end))
            if tok.text == "let":
                name = self.expect_ident("name")
                self.expect_punct("=")
                expr = self.expression()
                return LetStmt(name.text, expr, Span(tok.span.start, _span_of(expr).end))
            if tok.text == "check":
                expr = self.expression()
                return CheckStmt(expr, Span(tok.span.start, _span_of(expr).end))
            self.fail("unexpected keyword '%s'" % tok.text, span=tok.span)
        return self.expression()

    def expression(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text), tok.span)
        if tok.kind == "ident":
            self.advance()
            if self.at_punct("("):
                return self.call(tok)
            return Name(tok.text, tok.span)
        if tok.kind == "punct" and tok.text == "{":
            return self.qset_literal()
        self.fail(
            "expected an expression, found %s" % _show(tok),
            expected=("ident", "int", "'{'"),
        )

    def call(self, op_tok: Token) -> App:
        arity = OPERATORS.get(op_tok.text)
        if arity is None:
            self.fail("unknown operator '%s'" % op_tok.text, span=op_tok.span)
        self.descend(op_tok)
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            args.append(self.expression())
            while self.at_punct(","):
                self.advance()
                args.append(self.expression())
        close = self.expect_punct(")")
        self.nesting -= 1
        lo, hi = arity
        if not (lo <= len(args) <= hi):
            want = str(lo) if lo == hi else "%d to %d" % (lo, hi)
            self.fail(
                "%s takes %s argument%s, got %d"
                % (op_tok.text, want, "" if want == "1" else "s", len(args)),
                span=Span(op_tok.span.start, close.span.end),
            )
        return App(op_tok.text, tuple(args), Span(op_tok.span.start, close.span.end))

    def qset_literal(self) -> QSetLit:
        self.descend(self.peek())
        open_tok = self.expect_punct("{")
        elems = []
        if not self.at_punct("}"):
            elems.append(self.element())
            while self.at_punct(","):
                self.advance()
                elems.append(self.element())
        close = self.expect_punct("}")
        self.nesting -= 1
        return QSetLit(tuple(elems), Span(open_tok.span.start, close.span.end))

    def element(self) -> Elem:
        node = self.pair_literal() if self.at_punct("<") else self.expression()
        count = 1
        end = _span_of(node).end
        if self.at_punct("^"):
            self.advance()
            count_tok = self.expect_int()
            count = int(count_tok.text)
            if count < 1:
                self.fail("element count must be >= 1", span=count_tok.span)
            end = count_tok.span.end
        return Elem(node, count, Span(_span_of(node).start, end))

    def pair_literal(self) -> PairLit:
        self.descend(self.peek())
        open_tok = self.expect_punct("<")
        first = self.pair_literal() if self.at_punct("<") else self.expression()
        self.expect_punct(",")
        second = self.pair_literal() if self.at_punct("<") else self.expression()
        close = self.expect_punct(">")
        self.nesting -= 1
        return PairLit(first, second, Span(open_tok.span.start, close.span.end))


def _span_of(node) -> Span:
    return node.span


def _show(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return "'%s'" % tok.text


def parse(tokens: list[Token]) -> tuple:
    """Parse a token stream into a program (tuple of statements)."""
    return _Parser(tokens).program()
