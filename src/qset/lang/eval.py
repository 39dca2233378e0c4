"""Evaluator for parsed programs.

A Session owns the declaration registries (kinds, atom populations,
classical atom ids, let-bindings) and the results of check statements.
Declaring is the only mutation in the whole package; evaluation itself
only reads.

Atom names never denote a particular atom.  In a literal, ``name^k``
contributes k atoms of the name's kind, bounded by the declared
population; anywhere else the name means "some atom of this kind",
which is all the language lets you say.
"""

from __future__ import annotations

from typing import NamedTuple

from .. import algebra
from ..errors import EvalError, NonClassicalIndex, QsetError
from ..kernel import (
    CAtom,
    Kind,
    MAtom,
    PrimPair,
    QSet,
    canonical_text,
    indist,
    is_classical,
    mem_count,
    qcard,
)
from ..morphism import (
    LawReport,
    QuasiFunction,
    compose,
    identity,
    qfun_equiv,
)
from ..morphism import CategoryPresentation
from ..universe import (
    CONSTRUCTORS,
    BuildCaps,
    Classification,
    ClosureReport,
    Fragment,
    Parts,
    build_fragment,
    check_qED,
    classify,
    is_small_category,
)
from .lexer import Span, tokenize
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

__all__ = ["Session", "CheckResult", "Outcome", "evaluate", "render", "run_program", "run_statements"]


class _KindBinding(NamedTuple):
    kind: Kind


class _AtomsBinding(NamedTuple):
    kind: Kind


class _ValueBinding(NamedTuple):
    value: object


class CheckResult(NamedTuple):
    passed: bool
    span: Span


class Outcome(NamedTuple):
    """What one top-level statement produced."""

    kind: str  # "value" | "check" | "decl"
    value: object = None
    check: CheckResult | None = None
    span: Span | None = None


class Session:
    """Declaration registries plus evaluation state for one script/REPL."""

    def __init__(self, caps: BuildCaps = BuildCaps(), depth: int | None = None):
        self.caps = caps
        self.depth = depth  # when set, every build uses it
        self.kinds: dict[str, Kind] = {}
        self.populations: dict[str, int] = {}
        self.env: dict[str, object] = {
            "true": _ValueBinding(True),
            "false": _ValueBinding(False),
        }
        self.checks: list[CheckResult] = []

    # -- declarations -------------------------------------------------

    def _bind(self, name: str, binding, span: Span):
        existing = self.env.get(name)
        if existing is not None:
            if (
                isinstance(existing, _AtomsBinding)
                and isinstance(binding, _AtomsBinding)
                and existing.kind == binding.kind
            ):
                return
            raise EvalError("name '%s' is already bound" % name, span=span)
        self.env[name] = binding

    def declare_kind(self, name: str, span: Span | None = None) -> Kind:
        if name in self.kinds:
            raise EvalError("kind '%s' is already declared" % name, span=span)
        kind = Kind(name)
        self._bind(name, _KindBinding(kind), span)
        self._bind(kind.text, _AtomsBinding(kind), span)
        self.kinds[name] = kind
        self.populations[name] = 0
        return kind

    def declare_matoms(self, alias: str, kind_name: str, count: int, span: Span | None = None):
        kind = self.kinds.get(kind_name)
        if kind is None:
            raise EvalError("kind '%s' is not declared" % kind_name, span=span)
        if self.populations[kind_name] > 0:
            raise EvalError("atoms of kind '%s' are already declared" % kind_name, span=span)
        self._bind(alias, _AtomsBinding(kind), span)
        self.populations[kind_name] = count

    def declare_catom(self, name: str, span: Span | None = None) -> CAtom:
        try:
            atom = CAtom(name)
        except ValueError as err:
            raise EvalError(str(err), span=span) from err
        self._bind(name, _ValueBinding(atom), span)
        return atom

    def population(self, kind: Kind) -> int:
        return self.populations.get(kind.ident, 0)


def run_program(source: str, session: Session) -> list[Outcome]:
    """Tokenize, parse and evaluate a whole program against a session."""
    return run_statements(parse(tokenize(source)), session)


def run_statements(program, session: Session) -> list[Outcome]:
    """Evaluate already parsed statements in order against a session."""
    return [_exec_statement(stmt, session) for stmt in program]


def _exec_statement(stmt, session: Session) -> Outcome:
    if isinstance(stmt, KindDecl):
        session.declare_kind(stmt.name, stmt.span)
        return Outcome("decl", span=stmt.span)
    if isinstance(stmt, MAtomsDecl):
        session.declare_matoms(stmt.alias, stmt.kind_name, stmt.count, stmt.span)
        return Outcome("decl", span=stmt.span)
    if isinstance(stmt, CAtomDecl):
        session.declare_catom(stmt.name, stmt.span)
        return Outcome("decl", span=stmt.span)
    if isinstance(stmt, LetStmt):
        value = evaluate(stmt.expr, session)
        session._bind(stmt.name, _ValueBinding(value), stmt.span)
        return Outcome("decl", span=stmt.span)
    if isinstance(stmt, CheckStmt):
        value = evaluate(stmt.expr, session)
        if not isinstance(value, bool):
            raise EvalError(
                "check needs a boolean, got %s" % _type_name(value), span=stmt.span
            )
        result = CheckResult(passed=value, span=stmt.span)
        session.checks.append(result)
        return Outcome("check", check=result, span=stmt.span)
    value = evaluate(stmt, session)
    return Outcome("value", value=value, span=stmt.span)


def evaluate(term, env: Session):
    """Evaluate an expression term to a value against a session."""
    # the most frequent forms first: names, then calls
    if isinstance(term, Name):
        binding = env.env.get(term.ident)
        if binding is None:
            raise EvalError("name '%s' is not bound" % term.ident, span=term.span)
        if isinstance(binding, _ValueBinding):
            return binding.value
        if isinstance(binding, _AtomsBinding):
            if env.population(binding.kind) < 1:
                raise EvalError(
                    "no atoms of kind '%s' are declared" % binding.kind.ident, span=term.span
                )
            return MAtom(binding.kind, 0)
        raise EvalError("kind name '%s' cannot be used as a value" % term.ident, span=term.span)
    if isinstance(term, App):
        handler = _HANDLERS[term.op]
        try:
            return handler(term, env)
        except QsetError as err:
            if err.span is None:
                err.span = term.span
            raise
    if isinstance(term, QSetLit):
        return _eval_qset_literal(term, env)
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, PairLit):
        raise EvalError("a pair can only appear inside a quasi-set literal", span=term.span)
    raise EvalError("cannot evaluate %r" % (term,), span=getattr(term, "span", None))


def _eval_qset_literal(lit: QSetLit, env: Session) -> QSet:
    entries = []
    for elem in lit.elems:
        node = elem.node
        if isinstance(node, PairLit):
            entries.append((_eval_pair(node, env), elem.count))
            continue
        if isinstance(node, Name) and isinstance(env.env.get(node.ident), _AtomsBinding):
            kind = env.env[node.ident].kind
            entries.append((kind, elem.count))
            continue
        value = evaluate(node, env)
        if isinstance(value, MAtom):
            entries.append((value.kind, elem.count))
        elif isinstance(value, CAtom):
            if elem.count != 1:
                raise EvalError(
                    "classical atom %s cannot carry multiplicity %d" % (value.ident, elem.count),
                    span=elem.span,
                )
            entries.append((value, 1))
        elif isinstance(value, QSet):
            entries.append((value, elem.count))
        else:
            raise EvalError(
                "cannot place %s in a quasi-set literal" % _type_name(value), span=elem.span
            )
    result = QSet(entries)
    for desc, n in result.classes():
        if isinstance(desc, Kind) and n > env.population(desc):
            raise EvalError(
                "literal uses %d atoms of kind '%s' but only %d are declared"
                % (n, desc.ident, env.population(desc)),
                span=lit.span,
            )
    return result


def _eval_pair(node: PairLit, env: Session) -> PrimPair:
    return PrimPair(_eval_pair_component(node.first, env), _eval_pair_component(node.second, env))


def _eval_pair_component(node, env: Session):
    if isinstance(node, PairLit):
        return _eval_pair(node, env)
    value = evaluate(node, env)
    if isinstance(value, MAtom):
        return value.kind
    if isinstance(value, (CAtom, QSet)):
        return value
    raise EvalError("cannot place %s in a pair" % _type_name(value), span=node.span)


# -- operator handlers ------------------------------------------------


def _type_name(value) -> str:
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, int):
        return "a natural"
    if isinstance(value, QSet):
        return "a quasi-set"
    if isinstance(value, (MAtom, CAtom)):
        return "an atom"
    if isinstance(value, QuasiFunction):
        return "a quasi-function"
    if isinstance(value, Fragment):
        return "a universe fragment"
    if isinstance(value, (ClosureReport, LawReport)):
        return "a report"
    if isinstance(value, Classification):
        return "a classification"
    return type(value).__name__


def _arg(term: App, env: Session, i: int):
    return evaluate(term.args[i], env)


def _need(value, types, what: str, term: App, i: int):
    if not isinstance(value, types):
        raise EvalError(
            "%s argument %d must be %s, got %s" % (term.op, i + 1, what, _type_name(value)),
            span=term.args[i].span,
        )
    return value


def _need_qset(term: App, env: Session, i: int) -> QSet:
    return _need(_arg(term, env, i), QSet, "a quasi-set", term, i)


def _need_element(term: App, env: Session, i: int):
    return _need(_arg(term, env, i), (QSet, MAtom, CAtom), "a quasi-set or atom", term, i)


def _need_universe(term: App, env: Session, i: int) -> QSet:
    value = _need(_arg(term, env, i), (QSet, Fragment), "a universe", term, i)
    return value.elements if isinstance(value, Fragment) else value


def _need_qfun(term: App, env: Session, i: int) -> QuasiFunction:
    return _need(_arg(term, env, i), QuasiFunction, "a quasi-function", term, i)


def _need_nat(term: App, env: Session, i: int) -> int:
    value = _arg(term, env, i)
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvalError(
            "%s argument %d must be a natural, got %s" % (term.op, i + 1, _type_name(value)),
            span=term.args[i].span,
        )
    return value


def _op_indist(term, env):
    return indist(_need_element(term, env, 0), _need_element(term, env, 1))


def _op_qc(term, env):
    return qcard(_need_qset(term, env, 0))


def _op_classical(term, env):
    return is_classical(_need_element(term, env, 0))


def _op_mem(term, env):
    return mem_count(_need_element(term, env, 0), _need_qset(term, env, 1))


def _constructor_op(row):
    """The handler for one constructor row: operands, then the universe.

    Caps are not tested up front; the algebra raises CapExceeded itself.
    """
    need = _need_qset if row.collections else _need_element

    def handler(term, env):
        # A plain loop: a comprehension would add a stack frame per
        # nesting level of the script.
        args = []
        for i in range(row.arity):
            args.append(need(term, env, i))
        parts = Parts(_need_universe(term, env, row.arity)) if row.relative else None
        return row.apply(tuple(args), parts, env.caps)

    return handler


def _op_bigunion(term, env):
    graph = _need_qset(term, env, 0)
    try:
        entries = algebra.family_from_pairs(graph)
    except (TypeError, ValueError, NonClassicalIndex) as err:
        raise EvalError(str(err), span=term.args[0].span) from err
    return algebra.family_union(entries.values())


def _op_qfun(term, env):
    dom = _need_qset(term, env, 0)
    cod = _need_qset(term, env, 1)
    graph_q = _need_qset(term, env, 2)
    graph = []
    for desc, _ in graph_q.classes():
        if not isinstance(desc, PrimPair):
            raise EvalError(
                "qfun graph elements must be pairs, got %s" % canonical_text(desc),
                span=term.args[2].span,
            )
        graph.append((desc.first, desc.second))
    try:
        return QuasiFunction(dom, cod, frozenset(graph))
    except ValueError as err:
        raise EvalError(str(err), span=term.span) from err


def _op_idq(term, env):
    return identity(_need_qset(term, env, 0))


def _op_comp(term, env):
    return compose(_need_qfun(term, env, 0), _need_qfun(term, env, 1))


def _op_qequiv(term, env):
    return qfun_equiv(_need_qfun(term, env, 0), _need_qfun(term, env, 1))


def _op_eq(term, env):
    a = _arg(term, env, 0)
    b = _arg(term, env, 1)
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    if _is_nat(a) and _is_nat(b):
        return a == b
    if isinstance(a, (QSet, MAtom, CAtom)) and isinstance(b, (QSet, MAtom, CAtom)):
        return indist(a, b)
    if isinstance(a, QuasiFunction) and isinstance(b, QuasiFunction):
        return qfun_equiv(a, b)
    if isinstance(a, Classification) and isinstance(b, Classification):
        return a is b
    raise EvalError(
        "cannot compare %s with %s" % (_type_name(a), _type_name(b)), span=term.span
    )


def _is_nat(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _op_build(term, env):
    seeds = _need_qset(term, env, 0)
    depth = _need_nat(term, env, 1) if len(term.args) == 2 else 1
    if env.depth is not None:
        depth = env.depth
    return build_fragment(seeds, depth, env.caps)


def _op_audit(term, env):
    value = _need(_arg(term, env, 0), (QSet, Fragment), "a universe", term, 0)
    return check_qED(value, caps=env.caps)


def _op_classify(term, env):
    return classify(_need_qset(term, env, 0), _need_universe(term, env, 1))


def _op_small(term, env):
    objects = _need_qset(term, env, 0)
    morphisms = _need_qset(term, env, 1)
    universe = _need_universe(term, env, 2)
    try:
        presentation = CategoryPresentation(objects, morphisms)
    except ValueError as err:
        raise EvalError(str(err), span=term.span) from err
    return is_small_category(presentation, universe)


_HANDLERS = {
    "indist": _op_indist,
    "qc": _op_qc,
    "classical": _op_classical,
    "mem": _op_mem,
    "bigunion": _op_bigunion,
    "qfun": _op_qfun,
    "idq": _op_idq,
    "comp": _op_comp,
    "qequiv": _op_qequiv,
    "eq": _op_eq,
    "build": _op_build,
    "audit": _op_audit,
    "classify": _op_classify,
    "small": _op_small,
}
# Script name of each constructor row, by ledger op.
_FORMS = {"power": "pow", "singleton": "sing", "pair": "pair", "opair": "opair",
          "product": "prod", "union": "union"}
_HANDLERS.update((_FORMS[row.name], _constructor_op(row)) for row in CONSTRUCTORS)


# -- rendering --------------------------------------------------------


def render(value) -> str:
    """Canonical text for a value; quasi-set renderings parse back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, QSet):
        return value.text
    if isinstance(value, (MAtom, CAtom)):
        return canonical_text(value)
    if isinstance(value, QuasiFunction):
        graph_q = QSet((PrimPair(a, b), 1) for a, b in value.sorted_graph())
        return "qfun(%s, %s, %s)" % (value.dom.text, value.cod.text, graph_q.text)
    if isinstance(value, (Fragment, ClosureReport, LawReport)):
        return value.to_json()
    if isinstance(value, Classification):
        return value.value
    raise TypeError("cannot render %r" % (value,))
