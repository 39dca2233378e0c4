"""Tokenizer for the script language.

Spans are byte offsets into the UTF-8 encoding of the source, so the
lexer walks bytes: the language itself is pure ASCII and any byte
outside it is rejected at its exact offset.  ``Span`` and ``Token`` are
named tuples, the cheapest record Python builds, since a script makes
one of each per token.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

from ..errors import LexError

__all__ = ["LineTable", "Span", "Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({"kind", "matoms", "catom", "let", "check"})

_PUNCT = frozenset(b"{}(),^:=;<>")
_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset(b"0123456789")
_DIGITS = frozenset(b"0123456789")
_WS = frozenset(b" \t\r\n")


class LineTable:
    """The byte offset at which each line of a source starts.

    Build one per source and pass it to every ``Span.line_col`` on that
    source: each lookup is a bisection, so locating every span of a
    source costs time linear in the source, not quadratic.
    """

    __slots__ = ("starts",)

    def __init__(self, source: str):
        data = source.encode("utf-8")
        self.starts = [0]
        i = data.find(b"\n")
        while i >= 0:
            self.starts.append(i + 1)
            i = data.find(b"\n", i + 1)


class Span(NamedTuple):
    start: int
    end: int

    def line_col(self, lines: LineTable) -> tuple[int, int]:
        """The 1-based line and byte column of the span's start."""
        line = bisect.bisect_right(lines.starts, self.start)
        return line, self.start - lines.starts[line - 1] + 1


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "keyword" | "punct" | "eof"
    text: str
    span: Span


def tokenize(source: str) -> list[Token]:
    data = source.encode("utf-8")
    out: list[Token] = []
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b in _WS:
            i += 1
            continue
        if b == ord("#"):
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        if b in _IDENT_START:
            j = i + 1
            while j < n and data[j] in _IDENT_CONT:
                j += 1
            text = data[i:j].decode("ascii")
            out.append(Token("keyword" if text in KEYWORDS else "ident", text, Span(i, j)))
            i = j
            continue
        if b in _DIGITS:
            j = i + 1
            while j < n and data[j] in _DIGITS:
                j += 1
            out.append(Token("int", data[i:j].decode("ascii"), Span(i, j)))
            i = j
            continue
        if b in _PUNCT:
            out.append(Token("punct", chr(b), Span(i, i + 1)))
            i += 1
            continue
        raise LexError("unexpected byte 0x%02x" % b, span=Span(i, i + 1))
    out.append(Token("eof", "", Span(n, n)))
    return out
