"""Command line front end: batch evaluation, a REPL, closure audits,
and a category-law sweep.

Exit codes: 0 all good, 1 a check failed or a law/soundness violation
was found, 2 usage, parse, or runtime error.  In json mode stdout
carries only the machine-readable document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import _json
from .errors import ParseError, QsetError
from .gen import StructureGen
from .lang.eval import Outcome, Session, render, run_program, run_statements
from .lang.lexer import LineTable, Span, tokenize
from .lang.parser import parse
from .morphism import LawReport, check_category_laws
from .universe import SECTIONS, BuildCaps, ClosureReport, Fragment, check_qED

__all__ = ["main", "build_arg_parser"]


def _count(text: str) -> int:
    """An argparse type for counts: anything but a non-negative integer
    is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %r" % text)
    return n


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qset",
        description="Evaluate quasi-set scripts, audit universe fragments, "
        "and sweep the category laws.",
    )
    sub = ap.add_subparsers(dest="mode", required=True)

    def common(p: argparse.ArgumentParser, caps: bool = True):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
        if caps:
            p.add_argument("--cap-power", type=_count, default=None, metavar="N",
                           help="refuse power computations past qcard N")
            p.add_argument("--cap-product", type=_count, default=None, metavar="N",
                           help="refuse product computations past qcard N")
            p.add_argument("--depth", type=_count, default=None, metavar="D",
                           help="force every build to depth D")

    p_eval = sub.add_parser("eval", help="run a script file ('-' for stdin)")
    p_eval.add_argument("path")
    common(p_eval)

    p_repl = sub.add_parser("repl", help="interactive session")
    common(p_repl)

    p_audit = sub.add_parser("audit", help="run a script and report closure defects")
    p_audit.add_argument("path")
    common(p_audit)

    p_laws = sub.add_parser("laws", help="sweep identity/associativity laws on generated morphisms")
    p_laws.add_argument("--samples", type=_count, default=100, metavar="N",
                        help="number of generated quasi-functions (default: 100)")
    common(p_laws, caps=False)
    p_laws.add_argument("--seed", type=int, default=0,
                        help="generator seed (default: 0)")
    return ap


# parse_args leaves a parser as it was, so one serves every call
_parser = functools.cache(build_arg_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.mode == "eval":
            return _run_eval(args)
        if args.mode == "repl":
            return _run_repl(args)
        if args.mode == "audit":
            return _run_audit(args)
        return _run_laws(args)
    except BrokenPipeError:
        return 2


# -- shared plumbing --------------------------------------------------


def _caps_from(args) -> BuildCaps:
    base = BuildCaps()
    return BuildCaps(
        power_qcard=args.cap_power if args.cap_power is not None else base.power_qcard,
        product_qcard=args.cap_product if args.cap_product is not None else base.product_qcard,
        max_members=base.max_members,
    )


def _session_from(args) -> Session:
    return Session(caps=_caps_from(args), depth=args.depth)


def _color_ok(stream) -> bool:
    if os.environ.get("QSET_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _diagnostic(source: str, path: str, err: QsetError, stream=None) -> None:
    """path:line:col: error: message, with the offending line and a caret."""
    stream = stream if stream is not None else sys.stderr
    label = "\x1b[31merror\x1b[0m" if _color_ok(stream) else "error"
    span: Span | None = getattr(err, "span", None)
    if span is None:
        stream.write("%s: %s: %s\n" % (path, label, err.message))
        return
    lines = LineTable(source)
    line, col = span.line_col(lines)
    stream.write("%s:%d:%d: %s: %s\n" % (path, line, col, label, err.message))
    data = source.encode("utf-8")
    bol = lines.starts[line - 1]
    eol = data.find(b"\n", bol)
    if eol < 0:
        eol = len(data)
    text = data[bol:eol].decode("utf-8", errors="replace")
    width = max(1, min(span.end, eol) - span.start)
    stream.write("  %s\n" % text)
    stream.write("  %s%s\n" % (" " * (col - 1), "^" * width))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_and_run(args) -> tuple[str, Session, list[Outcome]] | int:
    """Returns (source, session, outcomes), or an exit code on failure."""
    try:
        source = _read_source(args.path)
    except OSError as err:
        sys.stderr.write("qset: error: cannot read '%s': %s\n" % (args.path, err.strerror or err))
        return 2
    session = _session_from(args)
    try:
        outcomes = run_program(source, session)
    except QsetError as err:
        _diagnostic(source, args.path, err)
        return 2
    return source, session, outcomes


def _check_totals(session: Session) -> tuple[int, int]:
    passed = sum(1 for c in session.checks if c.passed)
    return passed, len(session.checks) - passed


def _json_value(value):
    # fragments and closure reports write themselves into the document (see qset._json)
    if isinstance(value, (Fragment, ClosureReport)):
        return value
    if isinstance(value, LawReport):
        return value.to_dict()
    return render(value)


def _emit_json(doc: dict) -> None:
    sys.stdout.write(_json.dumps(doc))
    sys.stdout.write("\n")


# -- eval -------------------------------------------------------------


def _run_eval(args) -> int:
    loaded = _load_and_run(args)
    if isinstance(loaded, int):
        return loaded
    source, session, outcomes = loaded
    passed, failed = _check_totals(session)
    lines = LineTable(source)

    if args.format == "json":
        results = []
        for out in outcomes:
            line, _ = out.span.line_col(lines) if out.span else (0, 0)
            if out.kind == "value":
                results.append({"line": line, "kind": "value", "value": _json_value(out.value)})
            elif out.kind == "check":
                results.append({"line": line, "kind": "check", "passed": out.check.passed})
        _emit_json({
            "schema": "qset/1",
            "mode": "eval",
            "results": results,
            "checks": {"passed": passed, "failed": failed},
        })
    else:
        for out in outcomes:
            if out.kind == "value":
                print(render(out.value))
            elif out.kind == "check" and not out.check.passed:
                line, col = out.check.span.line_col(lines)
                print("check failed at %s:%d:%d" % (args.path, line, col))
        if session.checks:
            print("checks: %d passed, %d failed" % (passed, failed))
    return 1 if failed else 0


# -- audit ------------------------------------------------------------


def _sound(report: ClosureReport) -> bool:
    # Theorem-1 defects pass once the report has any primitive defect in
    # conditions 1-4; no defect is yet traced to the ones it derives from.
    return not report.theorem1 or bool(report.primitive_defects)


def _report_lines(report: ClosureReport) -> list[str]:
    totals = report.totals
    lines = [
        "members: %d distinct classes, qc %d" % (
            report.elements.distinct_classes(), report.elements.qcard),
        "defects: " + " ".join("%s=%d" % (s, len(getattr(report, s))) for s in SECTIONS),
        "checked: " + " ".join("%s=%d" % (s, totals.get(s + "_checked", 0)) for s in SECTIONS),
    ]
    if totals.get("cond4_truncated"):
        lines.append("cond4 sweep truncated")
    lines.append("sound: %s" % ("yes" if _sound(report) else "no"))
    return lines


def _run_audit(args) -> int:
    loaded = _load_and_run(args)
    if isinstance(loaded, int):
        return loaded
    source, session, outcomes = loaded
    del source

    reports: list[ClosureReport] = []
    for out in outcomes:
        if out.kind != "value":
            continue
        if isinstance(out.value, ClosureReport):
            reports.append(out.value)
        elif isinstance(out.value, Fragment):
            reports.append(check_qED(out.value, caps=out.value.caps))
    if not reports:
        sys.stderr.write("qset: error: script produced no universe fragment or closure report\n")
        return 2

    passed, failed = _check_totals(session)
    if args.format == "json":
        _emit_json({
            "schema": "qset/1",
            "mode": "audit",
            "reports": reports,
            "checks": {"passed": passed, "failed": failed},
        })
    else:
        for i, report in enumerate(reports):
            if len(reports) > 1:
                print("audit %d:" % (i + 1))
            for line in _report_lines(report):
                print(line)
        if session.checks:
            print("checks: %d passed, %d failed" % (passed, failed))
    if failed or any(not _sound(r) for r in reports):
        return 1
    return 0


# -- laws -------------------------------------------------------------


def _run_laws(args) -> int:
    gen = StructureGen(args.seed)
    fns = []
    while len(fns) < args.samples:
        fns.extend(gen.composable_chain(length=3, max_qcard=4))
    fns = fns[: args.samples]
    report = check_category_laws(fns, args.seed, max_triples=args.samples)

    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print("sample size: %d" % report.sample_size)
        print("identity checks: %d" % report.identity_checks)
        print("triples checked: %d" % report.triples_checked)
        print("violations: %d" % len(report.violations))
        for v in report.violations:
            print("violation: %s" % json.dumps(v, sort_keys=True))
    return 0 if report.ok else 1


# -- repl -------------------------------------------------------------


def _needs_more(source: str, err: QsetError) -> bool:
    span = getattr(err, "span", None)
    if not isinstance(err, ParseError) or span is None:
        return False
    return span.start >= len(source.encode("utf-8"))


def _run_repl(args) -> int:
    session = _session_from(args)
    interactive = hasattr(sys.stdin, "isatty") and sys.stdin.isatty()
    buffer = ""
    while True:
        if interactive:
            sys.stdout.write("  ... " if buffer else "qset> ")
            sys.stdout.flush()
        try:
            chunk = sys.stdin.readline()
        except KeyboardInterrupt:
            sys.stdout.write("\n")
            buffer = ""
            continue
        if not chunk:
            break
        buffer += chunk
        if not buffer.strip():
            buffer = ""
            continue
        try:
            program = parse(tokenize(buffer))
        except QsetError as err:
            if _needs_more(buffer, err):
                continue
            _diagnostic(buffer, "<repl>", err)
            buffer = ""
            continue
        source, buffer = buffer, ""
        try:
            outcomes = run_statements(program, session)
        except QsetError as err:
            _diagnostic(source, "<repl>", err)
            continue
        for out in outcomes:
            if out.kind == "value":
                print(render(out.value))
            elif out.kind == "check":
                print("check passed" if out.check.passed else "check failed")
    _, failed = _check_totals(session)
    return 1 if failed else 0
