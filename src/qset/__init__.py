"""Finite quasi-set kernel: collections with indistinguishable atoms.

The package models collections whose elements may be indistinguishable
without being identical.  Atoms of a kind carry no observable labels;
equality of values is indistinguishability, decided by comparing
canonical texts.  On top of the kernel sit the algebra (power,
products, unions, family unions), class-level quasi-functions with
category-law checking, bounded universe fragments with closure audits,
and a small script language with a CLI.
"""

from .algebra import (
    POWER_QCARD_CAP,
    PRODUCT_QCARD_CAP,
    family_from_pairs,
    family_union,
    opair_in,
    pair_in,
    power,
    product,
    singleton_in,
    union,
)
from .errors import (
    CapExceeded,
    EmptyUniverse,
    EvalError,
    InvalidPermutation,
    InvalidQuasiFunction,
    LexError,
    NonClassicalIndex,
    NotComposable,
    NotInUniverse,
    ParseError,
    QsetError,
)
from .kernel import (
    CAtom,
    Kind,
    MAtom,
    PrimPair,
    QSet,
    RawPair,
    as_descriptor,
    canonical_text,
    canonicalize,
    indist,
    is_classical,
    mem_count,
    qcard,
    relabel,
)
from .lang import Session, evaluate, parse, render, run_program, tokenize
from .morphism import (
    CategoryPresentation,
    LawReport,
    QuasiFunction,
    QuasiRelation,
    check_category_laws,
    compose,
    decode_quasi_function,
    describe,
    encode_quasi_function,
    identity,
    is_quasi_function,
    qfun_equiv,
    quasi_function,
)
from .universe import (
    BuildCaps,
    Classification,
    ClosureReport,
    Defect,
    Fragment,
    LedgerEntry,
    build_fragment,
    check_qED,
    classify,
    is_small_category,
    replay_ledger,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "Kind",
    "CAtom",
    "MAtom",
    "PrimPair",
    "RawPair",
    "QSet",
    "canonicalize",
    "canonical_text",
    "as_descriptor",
    "relabel",
    "indist",
    "qcard",
    "is_classical",
    "mem_count",
    # algebra
    "POWER_QCARD_CAP",
    "PRODUCT_QCARD_CAP",
    "power",
    "singleton_in",
    "pair_in",
    "opair_in",
    "product",
    "union",
    "family_union",
    "family_from_pairs",
    # morphisms
    "QuasiRelation",
    "QuasiFunction",
    "quasi_function",
    "is_quasi_function",
    "identity",
    "compose",
    "qfun_equiv",
    "describe",
    "LawReport",
    "check_category_laws",
    "encode_quasi_function",
    "decode_quasi_function",
    "CategoryPresentation",
    # universe
    "BuildCaps",
    "LedgerEntry",
    "Fragment",
    "build_fragment",
    "replay_ledger",
    "Defect",
    "ClosureReport",
    "check_qED",
    "Classification",
    "classify",
    "is_small_category",
    # language
    "Session",
    "run_program",
    "evaluate",
    "render",
    "parse",
    "tokenize",
    # errors
    "QsetError",
    "CapExceeded",
    "NotInUniverse",
    "InvalidPermutation",
    "NonClassicalIndex",
    "NotComposable",
    "InvalidQuasiFunction",
    "EmptyUniverse",
    "LexError",
    "ParseError",
    "EvalError",
]
