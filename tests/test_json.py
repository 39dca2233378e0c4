"""The package's indent-2 JSON writer against the stdlib as its oracle."""

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qset import BuildCaps, ClosureReport, Fragment, LedgerEntry, _json, check_qED, cli
from qset.gen import StructureGen
from qset.universe import Defect

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Characters the encoder escapes or passes through differently: quote,
# backslash, control characters, DEL, non-ASCII, line separators, lone
# surrogates and an astral character (written as a surrogate pair).
TRICKY = '"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\u2029\ud800\udfff\U0001f600'

chars = st.one_of(st.sampled_from(TRICKY), st.characters(blacklist_categories=()))
strings = st.text(chars, max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(),
    strings,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(strings, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_dumps_matches_the_stdlib_indent_2_output(doc):
    assert _json.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [[], {}, (), [[], {}], {"a": [], "b": {}}, "", 0, -0, True, None])
def test_empty_containers_and_bare_scalars(doc):
    assert _json.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, {1, 2}, {1: "a"}, [{"a": 1.0}], {"a": ["b", {True: 1}]}, ["a", {"b": object()}]],
    ids=["float", "set", "int-key", "nested-float", "nested-bool-key", "object-without-hook"],
)
def test_types_the_package_does_not_emit_raise_type_error(doc):
    with pytest.raises(TypeError):
        _json.dumps(doc)


# -- closure reports and fragments, which write themselves ----------------


def _audited(seed, max_members, power_qcard, product_qcard):
    """A StructureGen fragment under these caps, and its closure report."""
    caps = BuildCaps(max_members=max_members, power_qcard=power_qcard, product_qcard=product_qcard)
    frag = StructureGen(seed).fragment(max_seeds=4, max_depth=2, caps=caps)
    return frag, check_qED(frag, caps=caps)


audited = st.builds(
    _audited,
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=4, max_value=16),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
)


def _same(got: str, want: str) -> None:
    # a report runs to thousands of lines, and a full diff of two of them takes minutes
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail("first difference at line %d: %r != %r" % (i + 1, g[i:i + 1], w[i:i + 1]))


def _audit_envelope(reports):
    # the document `qset audit --format json` writes, with reports as the CLI passes them
    return {"schema": "qset/1", "mode": "audit", "reports": reports, "checks": {"passed": 0, "failed": 0}}


def _eval_envelope(values):
    # the document `qset eval --format json` writes, with values as the CLI passes them
    results = [{"line": i + 1, "kind": "value", "value": v} for i, v in enumerate(values)]
    return {"schema": "qset/1", "mode": "eval", "results": results, "checks": {"passed": 0, "failed": 0}}


@settings(max_examples=60, deadline=None)
@given(audited)
def test_reports_and_fragments_write_what_the_stdlib_writes_for_their_dicts(drawn):
    frag, report = drawn
    for x in (frag, report):
        _same(x.to_json(), json.dumps(x.to_dict(), indent=2))
    _same(_json.dumps(_audit_envelope([report, report])),
          json.dumps(_audit_envelope([report.to_dict(), report.to_dict()]), indent=2))
    _same(_json.dumps(_eval_envelope([cli._json_value(frag), cli._json_value(report)])),
          json.dumps(_eval_envelope([frag.to_dict(), report.to_dict()]), indent=2))


def test_the_drawn_reports_and_fragments_hold_every_shape():
    # the shapes the writers special-case all occur in what `audited` draws
    shapes = set()
    for seed in range(40):
        frag, report = _audited(seed, 4 + seed % 13, 1 + seed % 6, 1 + seed % 40)
        for e in frag.ledger:
            shapes.add("ledger " + (e.cutoff or (e.op if e.op in ("seed", "round") else "listed")))
        for section in ("cond1", "cond2", "cond3", "cond4", "theorem1"):
            defects = getattr(report, section)
            if not defects:
                shapes.add("empty section")
            for d in defects:
                shapes.add(d.note if d.missing is None else "missing")
                if section == "cond4":
                    shapes.add("cond4 %d witnesses" % len(d.witnesses))
    assert shapes >= {
        "ledger seed", "ledger round", "ledger listed", "ledger member-cap", "ledger power-cap",
        "ledger product-cap", "empty section", "missing", "power-cap", "product-cap",
        "cond4 4 witnesses", "cond4 6 witnesses",
    }


def test_hand_made_shapes_write_what_the_stdlib_writes():
    # shapes the build and the audit never make: no ledger, a defect without witnesses
    frag, report = _audited(3, 8, 2, 10)
    bare = Fragment(frag.elements, (), frag.caps, 0)
    odd = ClosureReport(report.elements, [Defect("cond1", "power", (), None, "power-cap")], [], [], [], [],
                        {"members": 0})
    for x in (bare, odd, Fragment(frag.elements, (LedgerEntry("union", (), None),), frag.caps, 1)):
        for newline in ("\n", "\n    ", "\n      "):
            out = []
            _json._write(x, newline, out)
            _same("".join(out), json.dumps(x.to_dict(), indent=2).replace("\n", newline))


@pytest.mark.parametrize("argv, pin", [
    (("audit", "demos/universe.qst", "--format", "json"), "audit_universe.json"),
    (("eval", "demos/universe.qst", "--format", "json"), "eval_universe.json"),
])
def test_json_emission_builds_no_report_or_fragment_dict(argv, pin, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("%s.to_dict called" % type(self).__name__)

    for cls in (ClosureReport, Fragment, Defect, LedgerEntry):
        monkeypatch.setattr(cls, "to_dict", refuse)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("QSET_COLOR", "0")
    frag, report = _audited(5, 12, 3, 20)
    frag.to_json()
    report.to_json()
    assert cli.main(list(argv)) == 0
    pins = dict(reversed(line.split()) for line in (ROOT / "tests" / "cli_json.sha256").read_text().splitlines())
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == pins[pin]
