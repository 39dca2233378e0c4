"""Spans around the package's public functions, installed from outside.

The tracer replaces a function at the names its callers look up at call
time (module attributes such as ``qset.algebra.product`` or
``qset.lang.eval.tokenize``, and the class attribute ``QSet.__init__``)
with a wrapper that records one span per call: name, start, end, the
span that was open when it started (its parent) and the current item id.
Spans stay in memory until the run ends.  Nothing here runs unless the
benchmark is asked for a traced run, and the untraced run never imports
the wrappers into the package.

Self time is derived from the spans afterwards: a span's duration minus
the durations of its direct children.  Calls are properly nested (one
thread), so the children of a span lie inside it.
"""

from __future__ import annotations

import gzip
import os
import time

# (module path, attribute, span name).  Each row wraps one binding; a
# function imported into several modules is wrapped in each of them,
# because each module looks the name up in its own namespace.
FUNCTIONS = [
    ("qset.algebra", "power", "algebra.power"),
    ("qset.algebra", "product", "algebra.product"),
    ("qset.algebra", "union", "algebra.union"),
    ("qset.algebra", "singleton_in", "algebra.singleton_in"),
    ("qset.algebra", "pair_in", "algebra.pair_in"),
    ("qset.algebra", "opair_in", "algebra.opair_in"),
    ("qset.algebra", "family_union", "algebra.family_union"),
    ("qset.universe", "build_fragment", "universe.build_fragment"),
    ("qset.gen", "build_fragment", "universe.build_fragment"),
    ("qset.lang.eval", "build_fragment", "universe.build_fragment"),
    ("qset.universe", "check_qED", "universe.check_qED"),
    ("qset.lang.eval", "check_qED", "universe.check_qED"),
    ("qset.cli", "check_qED", "universe.check_qED"),
    ("qset.universe", "replay_ledger", "universe.replay_ledger"),
    ("qset.lang.eval", "tokenize", "lang.tokenize"),
    ("qset.cli", "tokenize", "lang.tokenize"),
    ("qset.lang.eval", "parse", "lang.parse"),
    ("qset.cli", "parse", "lang.parse"),
    ("qset.lang.eval", "run_program", "lang.run_program"),
    ("qset.cli", "run_program", "lang.run_program"),
    ("qset.lang.eval", "render", "lang.render"),
    ("qset.cli", "render", "lang.render"),
    ("qset.morphism", "compose", "morphism.compose"),
    ("qset.lang.eval", "compose", "morphism.compose"),
    # check_category_laws binds compose as a default argument, so those
    # compositions are timed inside this span rather than on their own.
    ("qset.morphism", "check_category_laws", "morphism.check_category_laws"),
    ("qset.cli", "check_category_laws", "morphism.check_category_laws"),
    ("qset.morphism", "qfun_equiv", "morphism.qfun_equiv"),
    ("qset.lang.eval", "qfun_equiv", "morphism.qfun_equiv"),
    ("qset.cli", "main", "cli.main"),
]

# (module path, class, method, span name)
METHODS = [
    ("qset.kernel", "QSet", "__init__", "kernel.QSet"),
    ("qset.universe", "Fragment", "to_json", "universe.fragment_json"),
    ("qset.universe", "ClosureReport", "to_json", "universe.report_json"),
]

AUDIT_CONDITIONS = ("cond1", "cond2", "cond3", "cond4", "theorem1")

# The constructor a check_qED condition calls directly, by span name.
# Only cond4 builds a quasi-set itself (each family's index).
AUDIT_CONSTRUCTOR = {
    "kernel.QSet": "cond4",
    "algebra.power": "cond1",
    "algebra.singleton_in": "cond2",
    "algebra.product": "cond3",
    "algebra.family_union": "cond4",
    "algebra.union": "theorem1",
    "algebra.pair_in": "theorem1",
    "algebra.opair_in": "theorem1",
}

BUILD_COUNTS = (
    "applications", "new_members", "duplicates", "results_computed",
    "cutoffs.member_cap", "cutoffs.power_cap", "cutoffs.product_cap",
)


class Tracer:
    """Records spans and exact work counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index, item)
        self.stack: list[int] = []
        self.item = ""
        self.counts: dict[str, int] = {}
        self._undo: list = []

    # -- installation -------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every listed binding.  ``modules`` maps import path to module."""
        hooks = {
            "universe.build_fragment": self._count_build,
            "universe.check_qED": self._count_audit,
            "lang.tokenize": self._count_tokens,
            "lang.parse": self._count_statements,
        }
        for path, attr, name in FUNCTIONS:
            mod = modules[path]
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(original, name, hooks.get(name)))
            self._undo.append((mod, attr, original))
        for path, cls_name, attr, name in METHODS:
            cls = getattr(modules[path], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, None))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, on_return):
        nid = self._name_id(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, tracer.item)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- exact counts read from returned objects ----------------------

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_build(self, fragment) -> None:
        new = dup = 0
        cut = {"member-cap": 0, "power-cap": 0, "product-cap": 0}
        seen = set()
        for entry in fragment.ledger:
            if entry.op == "round":
                continue
            if entry.op == "seed":
                seen.add(entry.result)
            elif entry.cutoff is not None:
                cut[entry.cutoff] += 1
            elif entry.result in seen:
                dup += 1
            else:
                new += 1
                seen.add(entry.result)
        applications = new + dup + sum(cut.values())
        self._add("universe.build.applications", applications)
        self._add("universe.build.new_members", new)
        self._add("universe.build.duplicates", dup)
        # power-cap and product-cap refusals are decided before computing;
        # member-cap cutoffs are computed and then dropped.
        self._add("universe.build.results_computed", new + dup + cut["member-cap"])
        self._add("universe.build.cutoffs.member_cap", cut["member-cap"])
        self._add("universe.build.cutoffs.power_cap", cut["power-cap"])
        self._add("universe.build.cutoffs.product_cap", cut["product-cap"])

    def _count_audit(self, report) -> None:
        for cond in AUDIT_CONDITIONS:
            self._add("universe.audit.checked." + cond, report.totals[cond + "_checked"])
            self._add("universe.audit.defects." + cond, len(getattr(report, cond)))

    def _count_tokens(self, tokens) -> None:
        self._add("lang.tokens", len(tokens) - 1)  # the trailing eof token is not counted

    def _count_statements(self, program) -> None:
        self._add("lang.statements", len(program))

    # -- derived figures ----------------------------------------------

    def layer_totals(self, counted) -> dict:
        """Calls, total time and self time per span name, in seconds.

        Only spans whose item satisfies ``counted`` are summed; spans of
        other items still count as children, so they never leak into a
        parent's self time.  The audit conditions are the constructor
        spans whose parent is a ``check_qED`` span.
        """
        names = self.names
        spans = self.spans
        child_ns = [0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        qed = self._name_ids.get("universe.check_qED", -1)
        out: dict = {}
        cond_ns = dict.fromkeys(AUDIT_CONDITIONS, 0)
        for i, (nid, start, end, parent, item) in enumerate(spans):
            if not counted(item):
                continue
            name = names[nid]
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
            if parent >= 0 and spans[parent][0] == qed and name in AUDIT_CONSTRUCTOR:
                cond_ns[AUDIT_CONSTRUCTOR[name]] += end - start
        totals = {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                  for name, (c, t, s) in out.items()}
        return {"spans": totals, "audit_s": {c: ns / 1e9 for c, ns in cond_ns.items()}}

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i, (nid, start, end, parent, item) in enumerate(self.spans):
                fh.write("%d\t%s\t%d\t%d\t%d\t%s\n" % (i, self.names[nid], start, end, parent, item))
