"""End-to-end command line behaviour, mostly via subprocesses."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qset.cli import main
from qset.lang.eval import _HANDLERS
from qset.lang.lexer import KEYWORDS

PRELUDE = "kind K\nmatoms k: K^5\ncatom A\n"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv, stdin_text=None, cwd=None):
    env = dict(os.environ)
    env.setdefault("QSET_COLOR", "0")
    return subprocess.run(
        [sys.executable, "-m", "qset", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def script(tmp_path, body, name="script.qst"):
    path = tmp_path / name
    path.write_text(PRELUDE + body, encoding="utf-8")
    return str(path)


# -- eval ----------------------------------------------------------------


def test_eval_prints_values(tmp_path):
    proc = run_cli("eval", script(tmp_path, "qc({k^2})\n{k^2, A}\n"))
    assert proc.returncode == 0
    assert proc.stdout == "2\n{m_K^2, A}\n"
    assert proc.stderr == ""


def test_eval_reads_stdin():
    proc = run_cli("eval", "-", stdin_text=PRELUDE + "qc({k})\n")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_eval_json_document(tmp_path):
    proc = run_cli("eval", script(tmp_path, "qc({k^2})\n"), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "qset/1"
    assert doc["mode"] == "eval"
    assert doc["results"] == [{"line": 4, "kind": "value", "value": "2"}]
    assert doc["checks"] == {"passed": 0, "failed": 0}


def test_eval_check_failure_exits_one(tmp_path):
    path = script(tmp_path, "check eq(qc({k}), 2)\n")
    proc = run_cli("eval", path)
    assert proc.returncode == 1
    assert "check failed at %s:4:" % path in proc.stdout
    assert "checks: 0 passed, 1 failed" in proc.stdout


def test_eval_passing_checks_exit_zero(tmp_path):
    proc = run_cli("eval", script(tmp_path, "check eq(qc({k}), 1)\n"))
    assert proc.returncode == 0
    assert "checks: 1 passed, 0 failed" in proc.stdout


def test_json_stdout_stays_machine_readable(tmp_path):
    proc = run_cli("eval", script(tmp_path, "check eq(1, 2)\n"), "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)  # nothing but the document on stdout
    assert doc["checks"] == {"passed": 0, "failed": 1}


def test_missing_file_is_a_usage_error():
    proc = run_cli("eval", "/no/such/file.qst")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_parse_error_diagnostic(tmp_path):
    path = tmp_path / "bad.qst"
    path.write_text("qc(", encoding="utf-8")
    proc = run_cli("eval", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "%s:1:4: error: expected an expression" % path in proc.stderr
    assert "^" in proc.stderr
    assert "\x1b" not in proc.stderr


def eval_stdin(monkeypatch, source):
    """Run ``qset eval -`` in this process, so a stray exception fails the test."""
    monkeypatch.setenv("QSET_COLOR", "0")
    monkeypatch.setattr(sys, "stdin", io.StringIO(source))
    return main(["eval", "-"])


@pytest.mark.parametrize("opener", ["{", "qc(", "union(", "<"])
def test_nesting_past_the_limit_is_a_parse_error(opener, monkeypatch, capsys):
    # pairs only occur inside a literal, whose '{' is the first level
    source = ("{" if opener == "<" else "") + opener * 2000
    assert eval_stdin(monkeypatch, source) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # the opener of level 201 starts at byte 200 * len(opener)
    assert err.startswith("-:1:%d: error: nesting is deeper than 200 levels\n" % (200 * len(opener) + 1))


@pytest.mark.parametrize("source, value", [
    ("{" * 200 + "}" * 200, "{" * 200 + "}" * 200),
    ("union(" * 200 + "e, e)" + ", e)" * 199, "{}"),
    ("{" + "<" * 199 + "A, A>" + ", A>" * 198 + "}", "{" + "<" * 199 + "A, A>" + ", A>" * 198 + "}"),
])
def test_two_hundred_levels_still_evaluate(source, value, monkeypatch, capsys):
    assert eval_stdin(monkeypatch, "catom A\nlet e = {}\n" + source + "\n") == 0
    assert capsys.readouterr().out == value + "\n"


# Pieces of the script language for the fuzzer: keywords, operator
# names, punctuation, the names PRELUDE declares, numbers and spacing.
SCRIPT_PIECES = sorted(KEYWORDS) + sorted(_HANDLERS) + list('{}(),^:=;<>"#') + [
    "k", "K", "A", "x", "0", "1", "2", "5", "99", " ", "\n",
]


@given(st.booleans(), st.lists(st.one_of(st.sampled_from(SCRIPT_PIECES), st.text(max_size=4)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_script_text_exits_with_a_documented_code(prelude, pieces):
    source = (PRELUDE if prelude else "") + "".join(pieces)
    stdin, sys.stdin = sys.stdin, io.StringIO(source)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["eval", "-"]) in (0, 1, 2)
    finally:
        sys.stdin = stdin


def test_a_classical_atom_named_like_an_m_atom_is_a_diagnostic(monkeypatch, capsys):
    assert eval_stdin(monkeypatch, "kind Z\ncatom m_Z\n") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("-:2:1: error: classical atom id 'm_Z' must not start with 'm_'\n")


def test_runtime_error_diagnostic_points_at_the_literal(tmp_path):
    path = script(tmp_path, "qc({k^9})\n")
    proc = run_cli("eval", path)
    assert proc.returncode == 2
    assert "%s:4:4: error:" % path in proc.stderr
    assert "only 5 are declared" in proc.stderr


QFUN_ATOMS = "catom A; catom B; catom C; catom D; catom E; catom F\n"


@pytest.mark.parametrize("call, message", [
    ("qfun({A, B}, {C, D}, {<A, C>, <A, D>, <B, C>, <B, D>})",
     "domain class A is paired with two codomain classes"),
    ("qfun({A}, {B}, {<C, B>, <D, B>, <E, B>, <F, B>})", "graph uses C, not a class of the domain"),
    ("qfun({A, B, C, D}, {A}, {<A, F>, <B, E>, <C, D>, <D, C>})", "graph uses F, not a class of the codomain"),
    ("qfun({A, B, C}, {D}, {<C, D>})", "domain class A has no image"),
], ids=["two-images", "domain", "codomain", "no-image"])
def test_qfun_diagnostics_name_the_first_fault_whatever_the_hash_seed(call, message, monkeypatch):
    # the graph is a frozenset walked in hash order; the fault named is
    # the first in canonical order under every string hash seed
    caret = "  %s\n  %s\n" % (call, "^" * len(call))
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        proc = run_cli("eval", "-", stdin_text=QFUN_ATOMS + call + "\n")
        assert proc.returncode == 2
        assert proc.stderr == "-:2:1: error: %s\n%s" % (message, caret)


@pytest.mark.parametrize("call, message, caret", [
    ("bigunion({<k, {k}>})", "family index must be classical (no m-atoms anywhere)",
     "         ^^^^^^^^^^"),
    ("bigunion({<A, k>})", "family entry for A must be a quasi-set",
     "         ^^^^^^^^"),
    ("bigunion({A})", "family graph elements must be pairs, got A",
     "         ^^^"),
    ("bigunion({<A, {k}>, <A, {k^2}>})", "family assigns two entries to index element A",
     "         ^^^^^^^^^^^^^^^^^^^^^^"),
    ("bigunion({<k, {k}>, <A, k>})", "family entry for A must be a quasi-set",
     "         ^^^^^^^^^^^^^^^^^^"),
], ids=["classical", "entry", "pairs", "two-entries", "entry-before-classical"])
def test_bigunion_diagnostics(call, message, caret, monkeypatch, capsys):
    # every fault of the family graph, a non-classical index too, points at the graph argument
    assert eval_stdin(monkeypatch, PRELUDE + call + "\n") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "-:4:%d: error: %s\n  %s\n  %s\n" % (caret.count(" ") + 1, message, call, caret)


def test_cap_flags_bound_evaluation(tmp_path):
    path = script(tmp_path, "pow({k^3})\n")
    assert run_cli("eval", path).returncode == 0
    proc = run_cli("eval", path, "--cap-power", "2")
    assert proc.returncode == 2
    assert "power" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("laws", "--samples", "-1"),
        ("eval", "demos/universe.qst", "--depth", "-1"),
        ("audit", "demos/universe.qst", "--cap-power", "-1"),
        ("audit", "demos/universe.qst", "--cap-product", "-1"),
    ],
    ids=["samples", "depth", "cap-power", "cap-product"],
)
def test_negative_counts_are_usage_errors(argv):
    proc = run_cli(*argv, cwd=ROOT)
    assert proc.returncode == 2
    assert "must be a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_usage_error_leaves_the_next_call_as_the_first(monkeypatch, capsysbinary):
    # main parses with one parser per process; a call that fails to parse
    # must not change what the next good call parses or prints
    monkeypatch.setenv("QSET_COLOR", "0")
    good = ["eval", str(ROOT / "demos" / "powerset.qst"), "--format", "json", "--depth", "1"]
    assert main(good) == 0
    first = capsysbinary.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "-", "--depth", "-1", "--format", "xml"])
    assert exit_.value.code == 2
    assert b"usage: qset" in capsysbinary.readouterr().err
    assert main(good) == 0
    assert capsysbinary.readouterr() == first
    assert first.out and first.err == b""


# -- audit ---------------------------------------------------------------


def test_audit_reports_defects_and_stays_sound(tmp_path):
    proc = run_cli("audit", script(tmp_path, "build({k})\n"))
    assert proc.returncode == 0
    assert "members: 3 distinct classes, qc 3" in proc.stdout
    assert "defects:" in proc.stdout
    assert "sound: yes" in proc.stdout


def test_audit_json_document(tmp_path):
    proc = run_cli("audit", script(tmp_path, "build({k})\n"), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["mode"] == "audit"
    assert doc["reports"][0]["schema"] == "qset/1"
    assert doc["reports"][0]["totals"]["members"] == 3


def test_audit_accepts_explicit_reports(tmp_path):
    proc = run_cli("audit", script(tmp_path, "audit(build({k}))\n"), "--format", "json")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["reports"]) == 1


def test_depth_flag_forces_builds(tmp_path):
    path = script(tmp_path, "build({k}, 2)\n")
    proc = run_cli("audit", path, "--format", "json", "--depth", "0")
    assert json.loads(proc.stdout)["reports"][0]["totals"]["members"] == 1
    proc = run_cli("audit", path, "--format", "json", "--depth", "1")
    assert json.loads(proc.stdout)["reports"][0]["totals"]["members"] == 3


def test_audit_without_a_fragment_is_an_error(tmp_path):
    proc = run_cli("audit", script(tmp_path, "qc({k})\n"))
    assert proc.returncode == 2
    assert "no universe fragment" in proc.stderr


def test_audit_failed_checks_exit_one(tmp_path):
    proc = run_cli("audit", script(tmp_path, "check eq(1, 2)\nbuild({k})\n"))
    assert proc.returncode == 1


# -- laws ----------------------------------------------------------------


def test_laws_text_reports_no_violations():
    proc = run_cli("laws", "--samples", "30")
    assert proc.returncode == 0
    assert "violations: 0" in proc.stdout


def test_laws_json_is_deterministic():
    first = run_cli("laws", "--samples", "40", "--format", "json")
    second = run_cli("laws", "--samples", "40", "--format", "json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["violations"] == []
    assert doc["sample_size"] == 40


def test_laws_seed_is_embedded():
    a = json.loads(run_cli("laws", "--samples", "20", "--format", "json").stdout)
    b = json.loads(run_cli("laws", "--samples", "20", "--seed", "7", "--format", "json").stdout)
    assert a["seed"] == 0
    assert b["seed"] == 7


# -- demos ---------------------------------------------------------------


def test_demo_scripts_run_clean():
    demo_dir = ROOT / "demos"
    demos = sorted(demo_dir.glob("*.qst"))
    assert len(demos) == 3
    for demo in demos:
        proc = run_cli("eval", str(demo))
        assert proc.returncode == 0, (demo.name, proc.stderr)
    proc = run_cli("audit", str(demo_dir / "universe.qst"))
    assert proc.returncode == 0
    assert "sound: yes" in proc.stdout


# The sha256 of each command's stdout as written by the stdlib's
# ``json.dumps`` with an indent of 2, so the pins hold the package's own
# writer to the stdlib's bytes.  The file is in ``sha256sum`` format, so CI
# checks the installed entry point against the same digests.
JSON_COMMANDS = {
    "eval_powerset.json": ("eval", "demos/powerset.qst", "--format", "json"),
    "eval_universe.json": ("eval", "demos/universe.qst", "--format", "json"),
    "audit_universe.json": ("audit", "demos/universe.qst", "--format", "json"),
    "laws_50_0.json": ("laws", "--samples", "50", "--seed", "0", "--format", "json"),
}


def json_pins() -> dict:
    text = (ROOT / "tests" / "cli_json.sha256").read_text()
    return {name: digest for digest, name in (line.split() for line in text.splitlines())}


def test_json_pins_name_exactly_the_pinned_commands():
    assert sorted(json_pins()) == sorted(JSON_COMMANDS)


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_output_is_pinned(name):
    proc = run_cli(*JSON_COMMANDS[name], cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == json_pins()[name]


# -- repl ----------------------------------------------------------------


def test_repl_piped_session():
    proc = run_cli("repl", stdin_text=PRELUDE + "qc({k})\ncheck eq(1, 1)\n")
    assert proc.returncode == 0
    assert "1\n" in proc.stdout
    assert "check passed" in proc.stdout


def test_repl_failed_check_exits_one():
    proc = run_cli("repl", stdin_text=PRELUDE + "check eq(1, 2)\n")
    assert proc.returncode == 1
    assert "check failed" in proc.stdout


def test_repl_buffers_incomplete_input():
    proc = run_cli("repl", stdin_text="kind K\nmatoms k: K^2\nqc(\n{k}\n)\n")
    assert proc.returncode == 0
    assert "1\n" in proc.stdout


def test_repl_recovers_after_an_error():
    proc = run_cli("repl", stdin_text="qc(]\n" + PRELUDE + "qc({k})\n")
    assert proc.returncode == 0
    assert "error" in proc.stderr
    assert "1\n" in proc.stdout


REPL_SESSION = (
    PRELUDE
    + "let x = {k^2, A}\nx\nqc(x)\npow({k})\ncheck eq(qc(x), 3)\ncheck eq(1, 2)\n"
    + "qc(nope)\nunion(x, {k^3})\n"
)


def test_repl_parses_each_input_once(monkeypatch, capsys):
    import qset.cli
    import qset.lang.eval

    parses = []

    def counting(parse):
        def wrapped(tokens):
            parses.append(1)
            return parse(tokens)
        return wrapped

    monkeypatch.setattr(qset.cli, "parse", counting(qset.cli.parse))
    monkeypatch.setattr(qset.lang.eval, "parse", counting(qset.lang.eval.parse))
    monkeypatch.setenv("QSET_COLOR", "0")
    monkeypatch.setattr(sys, "stdin", io.StringIO(REPL_SESSION))
    assert main(["repl"]) == 1
    out, err = capsys.readouterr()
    assert len(parses) == REPL_SESSION.count("\n")
    assert out == (
        "{m_K^2, A}\n3\n{{m_K}, {}}\ncheck passed\ncheck failed\n{m_K^3, A}\n"
    )
    assert err == "<repl>:1:4: error: name 'nope' is not bound\n  qc(nope)\n     ^^^^\n"
