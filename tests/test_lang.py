"""Lexer, parser and evaluator behaviour, including span bookkeeping."""

import random

import pytest

from oracles import family_union_oracle, onf_value
from qset import (
    CAtom,
    Classification,
    ClosureReport,
    EvalError,
    Fragment,
    InvalidQuasiFunction,
    Kind,
    LexError,
    NotInUniverse,
    ParseError,
    PrimPair,
    QSet,
    QuasiFunction,
)
from qset.lang import (
    App,
    CAtomDecl,
    CheckStmt,
    Elem,
    IntLit,
    KindDecl,
    LetStmt,
    LineTable,
    MAtomsDecl,
    Name,
    PairLit,
    QSetLit,
    Session,
    Span,
    Token,
    parse,
    render,
    run_program,
    tokenize,
)

from qset.gen import StructureGen
from qset.lang.eval import _FORMS, _HANDLERS
from qset.lang.parser import OPERATORS
from qset.universe import CONSTRUCTORS


def kinds_of(tokens):
    return [t.kind for t in tokens]


def texts_of(tokens):
    return [t.text for t in tokens]


# -- lexer ---------------------------------------------------------------


def test_tokenize_call():
    toks = tokenize("qc(x)")
    assert kinds_of(toks) == ["ident", "punct", "ident", "punct", "eof"]
    assert texts_of(toks) == ["qc", "(", "x", ")", ""]
    assert [(t.span.start, t.span.end) for t in toks] == [
        (0, 2), (2, 3), (3, 4), (4, 5), (5, 5),
    ]


def test_tokenize_literal_with_counts():
    toks = tokenize("{a, a, b^2}")
    assert texts_of(toks)[:-1] == ["{", "a", ",", "a", ",", "b", "^", "2", "}"]
    assert kinds_of(toks)[-2:] == ["punct", "eof"]


def test_keywords_are_not_idents():
    toks = tokenize("let check kind matoms catom lettuce")
    assert kinds_of(toks)[:-1] == ["keyword"] * 5 + ["ident"]


def test_comments_run_to_end_of_line():
    toks = tokenize("qc(x) # qc(y)\n2")
    assert texts_of(toks)[:-1] == ["qc", "(", "x", ")", "2"]


def test_non_ascii_rejected_at_exact_byte():
    with pytest.raises(LexError) as err:
        tokenize("qc(é)")
    assert err.value.span.start == 3


def test_a_quote_is_a_lex_error():
    # the language has no string literals
    with pytest.raises(LexError) as err:
        tokenize('qc("a")')
    assert err.value.span.start == 3


def test_spans_count_bytes_not_chars():
    # a two-byte character inside a comment shifts later byte offsets
    src = "# café\nqc(x)"
    toks = tokenize(src)
    assert toks[0].text == "qc"
    assert toks[0].span.start == len(src.encode("utf-8")) - 5


def test_line_col_is_one_based():
    src = "a\nbb\n c"
    toks = tokenize(src)
    assert toks[-2].text == "c"
    assert toks[-2].span.line_col(LineTable(src)) == (3, 2)


def test_line_col_matches_the_byte_prefix_at_every_token():
    # non-ASCII text in comments shifts byte offsets away from characters
    src = (
        "# café, ünïcode\n"
        "kind K   # ∀x ∈ K\n"
        "matoms k: K^2\n"
        "\n"
        "  let x = {k, k}  # 日本語\n"
        "check eq(qc(x), 2)  # é\n"
        "# ☃\n"
        "\tqc(x)"
    )
    lines = LineTable(src)
    data = src.encode("utf-8")
    tokens = tokenize(src)
    assert len(tokens) > 30
    for tok in tokens:
        prefix = data[: tok.span.start]
        expected = (prefix.count(b"\n") + 1, tok.span.start - (prefix.rfind(b"\n") + 1) + 1)
        assert tok.span.line_col(lines) == expected, tok
    assert tokens[-2].span.line_col(lines) == (8, 6)


def test_eof_token_sits_at_end():
    src = "qc(x)"
    assert tokenize(src)[-1].span == Span(5, 5)


def test_tokens_carry_spans():
    toks = tokenize("kind K\nlet x = {k^2} # note\n")
    assert all(isinstance(t, Token) and isinstance(t.span, Span) for t in toks)
    assert toks[-1] == Token("eof", "", Span(28, 28))


# -- parser --------------------------------------------------------------


def test_parse_declarations():
    prog = parse(tokenize("kind K; matoms k: K^3; catom A"))
    assert isinstance(prog[0], KindDecl) and prog[0].name == "K"
    assert isinstance(prog[1], MAtomsDecl)
    assert (prog[1].alias, prog[1].kind_name, prog[1].count) == ("k", "K", 3)
    assert isinstance(prog[2], CAtomDecl) and prog[2].name == "A"


def test_parse_let_and_check():
    prog = parse(tokenize("let x = {k}\ncheck eq(1, 1)"))
    assert isinstance(prog[0], LetStmt) and prog[0].name == "x"
    assert isinstance(prog[0].expr, QSetLit)
    assert isinstance(prog[1], CheckStmt)
    assert isinstance(prog[1].expr, App) and prog[1].expr.op == "eq"


def test_each_form_parses_to_its_node_type():
    # evaluation dispatches on these types, so each statement and
    # expression form is pinned to its node
    src = "kind K; matoms k: K^3; catom A; let x = {k^2, <A, {}>}; check eq(1, 1); x; 7"
    kind, matoms, catom, let, check, name, num = parse(tokenize(src))
    assert isinstance(kind, KindDecl)
    assert isinstance(matoms, MAtomsDecl)
    assert isinstance(catom, CAtomDecl)
    assert isinstance(let, LetStmt) and isinstance(let.expr, QSetLit)
    atoms, pair = let.expr.elems
    assert isinstance(atoms, Elem) and isinstance(atoms.node, Name) and atoms.count == 2
    assert isinstance(pair, Elem) and isinstance(pair.node, PairLit)
    assert isinstance(pair.node.first, Name) and isinstance(pair.node.second, QSetLit)
    assert isinstance(check, CheckStmt) and isinstance(check.expr, App)
    assert all(isinstance(arg, IntLit) for arg in check.expr.args)
    assert isinstance(name, Name) and isinstance(num, IntLit)
    nodes = [kind, matoms, catom, let, let.expr, atoms, atoms.node, pair, pair.node,
             check, check.expr, name, num]
    assert all(isinstance(node.span, Span) for node in nodes)


def test_semicolons_are_noise():
    assert parse(tokenize(";;;")) == ()
    assert len(parse(tokenize("qc(x);;qc(y);"))) == 2


def test_call_spans_are_exact():
    (app,) = parse(tokenize("qc(x)"))
    assert app.span == Span(0, 5)
    assert app.args[0] == Name("x", Span(3, 4))


def test_arity_is_checked_at_parse_time():
    with pytest.raises(ParseError) as err:
        parse(tokenize("qc()"))
    assert "qc takes 1 argument, got 0" in err.value.message
    with pytest.raises(ParseError):
        parse(tokenize("union({}, {}, {})"))
    # build accepts one or two
    parse(tokenize("build({k})"))
    parse(tokenize("build({k}, 2)"))


def test_unknown_operator():
    with pytest.raises(ParseError) as err:
        parse(tokenize("frobnicate(1)"))
    assert "unknown operator" in err.value.message
    assert err.value.span == Span(0, 10)


def test_zero_population_and_zero_count_are_rejected():
    with pytest.raises(ParseError):
        parse(tokenize("matoms k: K^0"))
    with pytest.raises(ParseError):
        parse(tokenize("{a^0}"))


def test_pairs_only_inside_literals():
    parse(tokenize("{<a, b>, <<a, b>, c>}"))
    with pytest.raises(ParseError) as err:
        parse(tokenize("opair(<a, b>, c, u)"))
    assert err.value.expected == ("ident", "int", "'{'")


def test_unclosed_call_fails_at_eof():
    src = "qc(x"
    with pytest.raises(ParseError) as err:
        parse(tokenize(src))
    assert err.value.span.start == len(src.encode("utf-8"))
    assert "')'" in err.value.expected


def test_error_expectations_name_the_missing_piece():
    with pytest.raises(ParseError) as err:
        parse(tokenize("let = 3"))
    assert err.value.expected == ("ident",)
    with pytest.raises(ParseError) as err:
        parse(tokenize("matoms k K^2"))
    assert err.value.expected == ("':'",)


# -- evaluator -----------------------------------------------------------


PRELUDE = "kind K\nmatoms k: K^5\ncatom A\ncatom B\n"


def fresh(source="", **kwargs):
    session = Session(**kwargs)
    run_program(PRELUDE + source, session)
    return session


def run_one(source, session=None):
    session = session or fresh()
    outcomes = run_program(source, session)
    return outcomes[-1]


def test_declarations_bind_and_guard():
    session = fresh()
    assert session.kinds["K"] == Kind("K")
    assert session.population(Kind("K")) == 5
    with pytest.raises(EvalError):
        run_program("kind K", session)
    with pytest.raises(EvalError):
        run_program("matoms j: K^2", session)
    with pytest.raises(EvalError):
        run_program("catom A", session)
    with pytest.raises(EvalError):
        run_program("let k = 1", session)


def test_matoms_for_missing_kind():
    with pytest.raises(EvalError) as err:
        run_program("matoms j: J^2", Session())
    assert "not declared" in err.value.message


def test_kind_declaration_binds_the_render_token():
    # {m_K} must evaluate once atoms exist, so canonical text round-trips
    session = fresh()
    outcome = run_one("qc({m_K^5})", session)
    assert outcome.value == 5


def test_atom_names_never_pick_an_individual():
    session = fresh()
    a = run_one("k", session).value
    b = run_one("k", session).value
    assert a == b  # only the kind is observable


def test_literal_population_enforcement():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("{k^6}", session)
    assert "only 5 are declared" in err.value.message
    with pytest.raises(EvalError):
        run_program("qc({m_K})", Session())  # no kind at all: unbound name


def test_atom_value_requires_population():
    session = Session()
    run_program("kind J", session)
    with pytest.raises(EvalError) as err:
        run_program("sing(m_J, {m_J})", session)
    assert "no atoms of kind 'J'" in err.value.message


def test_kind_name_is_not_a_value():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("qc(K)", session)
    assert "cannot be used as a value" in err.value.message


def test_catom_multiplicity_is_rejected():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("{A^2}", session)
    assert "cannot carry multiplicity" in err.value.message


def test_literal_values_and_render():
    session = fresh()
    outcome = run_one("let x = {k^2, A, {k}}\nx", session)
    assert outcome.kind == "value"
    assert isinstance(outcome.value, QSet)
    assert render(outcome.value) == "{m_K^2, A, {m_K}}"


def test_pair_literals_build_primitive_pairs():
    session = fresh()
    value = run_one("{<k, A>, <<k, k>, B>}", session).value
    assert render(value) == "{<<m_K, m_K>, B>, <m_K, A>}"


def test_operator_tables_agree():
    assert set(OPERATORS) == set(_HANDLERS)
    # a constructor form takes its operands, then the universe if relative
    for row in CONSTRUCTORS:
        n = row.arity + row.relative
        assert OPERATORS[_FORMS[row.name]] == (n, n), row.name


def test_operator_sweep():
    session = fresh()
    cases = {
        "qc({k^2, A})": 3,
        "indist(k, k)": True,
        "indist({k}, {A})": False,
        "classical({A, {B}})": True,
        "classical({k})": False,
        "mem(k, {k^2})": 2,
        "mem(A, {k})": 0,
        "qc(pow({k^2}))": 4,
        "qc(prod({k}, {k^2}))": 2,
        "eq(union({k}, {k^2}), {k^2})": True,
        "eq(sing(k, {k^2, A}), {k^2})": True,
        "eq(pair(k, A, {k^2, A}), {k^2, A})": True,
        "qc(opair(k, A, {k, A}))": 2,
        "qc(opair(k, k, {k, A}))": 1,
        "eq(bigunion({<A, {k}>, <B, {k^2}>}), {k^2})": True,
        "eq(true, false)": False,
        "eq(qc({k}), 1)": True,
    }
    for src, expected in cases.items():
        assert run_one(src, session).value == expected, src


def test_eq_refuses_mixed_types():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("eq(1, true)", session)
    assert "cannot compare" in err.value.message


def test_sing_requires_membership():
    session = fresh()
    with pytest.raises(NotInUniverse) as err:
        run_program("sing(A, {k})", session)
    assert err.value.span is not None


def test_quasi_function_flow():
    session = fresh()
    outcome = run_one(
        "let f = qfun({k}, {k}, {<k, k>})\n"
        "check qequiv(f, idq({k}))\n"
        "check qequiv(comp(f, f), f)\n"
        "f",
        session,
    )
    assert isinstance(outcome.value, QuasiFunction)
    assert render(outcome.value) == "qfun({m_K}, {m_K}, {<m_K, m_K>})"
    assert all(c.passed for c in session.checks)


def test_qfun_graph_must_be_pairs():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("qfun({k}, {k}, {A})", session)
    assert "must be pairs" in err.value.message


def test_qfun_totality_violations_carry_spans():
    session = fresh()
    with pytest.raises(InvalidQuasiFunction) as err:
        run_program("qfun({k, A}, {k}, {<k, k>})", session)
    assert err.value.span is not None


def test_build_audit_classify_small():
    session = fresh()
    outcome = run_one("let u = build({k}, 1)\nu", session)
    assert isinstance(outcome.value, Fragment)
    assert outcome.value.depth == 1

    report = run_one("audit(u)", session).value
    assert isinstance(report, ClosureReport)

    verdict = run_one("classify({k}, u)", session).value
    assert verdict is Classification.U_QSET
    assert render(verdict) == "UQset"
    assert run_one("classify({k^2}, u)", session).value is Classification.NEITHER
    proper = run_one("classify({{k}, {{k}}}, u)", session).value
    assert proper is Classification.U_PROPER_QCLASS

    outcome = run_one(
        "let obs = {{k}}\n"
        "let mor = {{<{k}, <{k}, {<k, k>}>>}}\n"
        "small(obs, mor, {obs, mor, {k}})",
        session,
    )
    assert outcome.value is True


def test_build_depth_handling():
    session = fresh()
    assert run_one("build({k})", session).value.depth == 1
    assert run_one("build({k}, 0)", session).value.depth == 0

    forced = fresh(depth=0)
    assert run_one("build({k}, 2)", forced).value.depth == 0


def test_check_statements_record_results():
    session = fresh()
    outcomes = run_program("check eq(1, 1)\ncheck eq(1, 2)", session)
    assert [o.kind for o in outcomes] == ["check", "check"]
    assert [c.passed for c in session.checks] == [True, False]


def test_check_requires_boolean():
    session = fresh()
    with pytest.raises(EvalError) as err:
        run_program("check qc({k})", session)
    assert "check needs a boolean" in err.value.message


def test_error_spans_locate_the_line():
    src = "kind J\nmatoms j: J^2\ncheck qc({j^5})\n"
    with pytest.raises(EvalError) as err:
        run_program(src, Session())
    assert err.value.span.line_col(LineTable(src)) == (3, 10)


def test_outcome_kinds():
    session = Session()
    outcomes = run_program("kind K\nmatoms k: K^2\nlet x = {k}\nqc(x)", session)
    assert [o.kind for o in outcomes] == ["decl", "decl", "decl", "value"]
    assert outcomes[-1].value == 1


# Declares every kind and classical atom that StructureGen draws from.
GEN_PRELUDE = (
    "kind K1\nkind K2\nkind K3\n"
    "matoms k1: K1^99\nmatoms k2: K2^99\nmatoms k3: K3^99\n"
    "catom A1\ncatom A2\ncatom A3\n"
)


def fresh_gen():
    session = Session()
    run_program(GEN_PRELUDE, session)
    return session


def test_bigunion_matches_the_oracle_on_random_graphs():
    rng = random.Random(5)
    session = fresh_gen()
    firsts = [CAtom("A1"), CAtom("A2"), CAtom("A3"), QSet(), QSet([CAtom("A1")])]
    # few classes, so entries share classes at different counts
    classes = [Kind("K1"), Kind("K2"), CAtom("A1"), QSet(), QSet([(Kind("K1"), 2)])]

    def entry():
        return QSet((d, 1 if isinstance(d, CAtom) else rng.randint(1, 3))
                    for d in rng.sample(classes, rng.randint(0, 3)))

    for _ in range(60):
        index = rng.sample(firsts, rng.randint(0, 3))
        entries = [entry() for _ in index]
        graph = QSet(PrimPair(i, v) for i, v in zip(index, entries))
        value = run_one("bigunion(%s)" % render(graph), session).value
        assert onf_value(value) == family_union_oracle(entries), render(graph)


def test_rendered_values_parse_back():
    gen = StructureGen(seed=11)
    session = fresh_gen()
    for _ in range(60):
        value = gen.qset(max_qcard=4, max_depth=2)
        text = render(value)
        again = run_one(text, session).value
        assert again == value
        assert render(again) == text


def test_program_runs_are_deterministic():
    src = PRELUDE + "let u = build({k, A}, 1)\naudit(u)"
    first = run_program(src, Session())[-1].value
    second = run_program(src, Session())[-1].value
    assert first.to_json() == second.to_json()
