"""The surface language: scripts over quasi-set values.

The syntax deliberately has no way to name an individual m-atom, so no
program can observe a label; atom names always mean "an atom of this
kind" and literal counts say how many go in.
"""

from .lexer import LineTable, Span, Token, tokenize
from .parser import (
    App,
    CAtomDecl,
    CheckStmt,
    Elem,
    IntLit,
    KindDecl,
    LetStmt,
    MAtomsDecl,
    Name,
    PairLit,
    QSetLit,
    parse,
)
from .eval import Session, evaluate, render, run_program

__all__ = [
    "LineTable",
    "Span",
    "Token",
    "tokenize",
    "parse",
    "App",
    "CAtomDecl",
    "CheckStmt",
    "Elem",
    "IntLit",
    "KindDecl",
    "LetStmt",
    "MAtomsDecl",
    "Name",
    "PairLit",
    "QSetLit",
    "Session",
    "evaluate",
    "render",
    "run_program",
]
