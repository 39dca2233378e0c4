"""Recursive-descent parser producing spanned syntax trees.

Statements are self-delimiting (there are no infix operators), so a
program is just a sequence of statements with optional ';' noise
between them.  Operator arity is checked here, not at evaluation time,
so a malformed call never starts executing.

Calls, quasi-set literals and pair literals nest at most 200 levels
deep; the parser, the evaluator and the kernel all recurse on each
level, and the limit keeps every script inside Python's stack.

Syntax nodes are named tuples: a script makes one per term, and a
tuple is the cheapest record Python builds.  Dispatch on a node reads
its type with ``isinstance``, never its equality.
"""

from __future__ import annotations

from typing import NamedTuple

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


class KindDecl(NamedTuple):
    name: str
    span: Span


class MAtomsDecl(NamedTuple):
    alias: str
    kind_name: str
    count: int
    span: Span


class CAtomDecl(NamedTuple):
    name: str
    span: Span


class LetStmt(NamedTuple):
    name: str
    expr: object
    span: Span


class CheckStmt(NamedTuple):
    expr: object
    span: Span


class Name(NamedTuple):
    ident: str
    span: Span


class IntLit(NamedTuple):
    value: int
    span: Span


class PairLit(NamedTuple):
    first: object
    second: object
    span: Span


class Elem(NamedTuple):
    node: object
    count: int
    span: Span


class QSetLit(NamedTuple):
    elems: tuple[Elem, ...]
    span: Span


class App(NamedTuple):
    op: str
    args: tuple
    span: Span


class _Parser:
    """One pass over a token list.

    A punctuation character is the text of no other token kind, so
    ``tok.text == ch`` alone tells a punctuation token apart.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def fail(self, message: str, expected=(), span: Span | None = None):
        tok = self.tokens[self.pos]
        raise ParseError(message, span=span or tok.span, expected=expected)

    def expect_punct(self, ch: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text == ch:
            self.pos += 1
            return tok
        self.fail("expected '%s', found %s" % (ch, _show(tok)), expected=("'%s'" % ch,))

    def expect_ident(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return tok
        self.fail("expected %s, found %s" % (what, _show(tok)), expected=("ident",))

    def expect_int(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "int":
            self.pos += 1
            return tok
        self.fail("expected integer, found %s" % _show(tok), expected=("int",))

    def descend(self, tok: Token) -> None:
        """Enter one nesting level opened by ``tok``; the caller leaves it."""
        if self.nesting == _MAX_NESTING:
            self.fail("nesting is deeper than %d levels" % _MAX_NESTING, span=tok.span)
        self.nesting += 1

    # -- grammar -----------------------------------------------------

    def program(self) -> tuple:
        tokens = self.tokens
        stmts = []
        while True:
            while tokens[self.pos].text == ";":
                self.pos += 1
            if tokens[self.pos].kind == "eof":
                return tuple(stmts)
            stmts.append(self.statement())

    def statement(self):
        tok = self.tokens[self.pos]
        if tok.kind == "keyword":
            self.pos += 1
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
                return LetStmt(name.text, expr, Span(tok.span.start, expr.span.end))
            if tok.text == "check":
                expr = self.expression()
                return CheckStmt(expr, Span(tok.span.start, expr.span.end))
            self.fail("unexpected keyword '%s'" % tok.text, span=tok.span)
        return self.expression()

    def expression(self):
        tok = self.tokens[self.pos]
        if tok.kind == "int":
            self.pos += 1
            return IntLit(int(tok.text), tok.span)
        if tok.kind == "ident":
            self.pos += 1
            if self.tokens[self.pos].text == "(":
                return self.call(tok)
            return Name(tok.text, tok.span)
        if tok.text == "{":
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
        self.pos += 1  # the '(' that expression saw
        tokens = self.tokens
        args = []
        if tokens[self.pos].text != ")":
            args.append(self.expression())
            while tokens[self.pos].text == ",":
                self.pos += 1
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
        tokens = self.tokens
        open_tok = tokens[self.pos]  # the '{' that expression saw
        self.descend(open_tok)
        self.pos += 1
        elems = []
        if tokens[self.pos].text != "}":
            elems.append(self.element())
            while tokens[self.pos].text == ",":
                self.pos += 1
                elems.append(self.element())
        close = self.expect_punct("}")
        self.nesting -= 1
        return QSetLit(tuple(elems), Span(open_tok.span.start, close.span.end))

    def element(self) -> Elem:
        tokens = self.tokens
        node = self.pair_literal() if tokens[self.pos].text == "<" else self.expression()
        count = 1
        span = node.span
        if tokens[self.pos].text == "^":
            self.pos += 1
            count_tok = self.expect_int()
            count = int(count_tok.text)
            if count < 1:
                self.fail("element count must be >= 1", span=count_tok.span)
            span = Span(span.start, count_tok.span.end)
        return Elem(node, count, span)

    def pair_literal(self) -> PairLit:
        tokens = self.tokens
        open_tok = tokens[self.pos]  # the '<' that the caller saw
        self.descend(open_tok)
        self.pos += 1
        first = self.pair_literal() if tokens[self.pos].text == "<" else self.expression()
        self.expect_punct(",")
        second = self.pair_literal() if tokens[self.pos].text == "<" else self.expression()
        close = self.expect_punct(">")
        self.nesting -= 1
        return PairLit(first, second, Span(open_tok.span.start, close.span.end))


def _show(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return "'%s'" % tok.text


def parse(tokens: list[Token]) -> tuple:
    """Parse a token stream into a program (tuple of statements)."""
    return _Parser(tokens).program()
