"""The three workloads: seeded inputs, one timed item each, and checks.

Each workload is built in set-up from ``--seed`` and the freshly
imported package modules.  ``run`` is the timed part of an item and
calls the package only through its public API or ``qset.cli.main``;
``check`` verifies an item's output and returns ``None`` or the reason
it is wrong, and ``digest`` condenses the verdict part of the output so
that later passes over the same item can be compared with the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
DEFAULT_SEED = 0


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def recorded_digest(workload: str) -> dict | None:
    """Item label -> verdict digest, recorded for the default seed."""
    with open(os.path.join(REFERENCE_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


class Item:
    __slots__ = ("label", "data")

    def __init__(self, label: str, data):
        self.label = label
        self.data = data


# -- audit-corpus ------------------------------------------------------


class AuditCorpus:
    """Criterion-6 fragments, built, audited and rendered as ``qset audit`` does.

    Fragments come from ``StructureGen(seed).fragment`` with three seeds,
    depth up to 2 and caps 24 members / power qcard 10.  Each draw is
    placed in a stratum by the number of pair classes its cond3 sweep
    constructs (a property of the built fragment), and every run holds
    the same number of fragments from each stratum, so seeds change the
    fragments but not the mix.  The draws come from a pool of ``POOL``
    draws, so set-up does the same work whatever the seed; a stratum the
    pool holds too few draws for takes the unused draws nearest to its
    range.  Draws at or above ``PAIR_CLASS_LIMIT`` (about one in twenty;
    a power of a qcard-9 member puts a qcard-512 quasi-set in the fragment
    and one such audit costs as much as fifty others) are left out, so
    that a run's time does not hinge on how many of them its seed happened
    to draw.

    Above 2500 pair classes the draws cluster on a few shapes: 3600,
    5776 and about 17,900 pair classes.  The strata there are narrow
    windows around them, and the rare shapes in between (about one draw
    in forty, some costing twice their neighbours) get a quota of 0.  So
    the items around the tail percentile have the same shapes on every
    seed, and item_tail_ms does not depend on which shapes a seed drew.
    """

    name = "audit-corpus"
    STRATA = (0, 50, 150, 300, 600, 1000, 1500, 2000, 2500, 3500, 3700, 5700, 5800, 17000, 18500)
    QUOTAS = (19, 11, 2, 11, 16, 2, 17, 10, 0, 5, 0, 5, 0, 2, 0)
    PAIR_CLASS_LIMIT = 20000
    POOL = 280

    def __init__(self, modules: dict, seed: int):
        self.m = modules
        universe = modules["qset.universe"]
        kernel = modules["qset.kernel"]
        self.caps = universe.BuildCaps(max_members=24, power_qcard=10)
        gen = modules["qset.gen"].StructureGen(seed)
        pool = []
        for _ in range(self.POOL):
            frag = gen.fragment(max_seeds=3, max_depth=2, caps=self.caps)
            pairs = self._pair_classes(frag)
            if pairs < self.PAIR_CLASS_LIMIT:
                seeds = kernel.QSet([(e.result, e.count) for e in frag.ledger if e.op == "seed"])
                pool.append((pairs, seeds, frag.depth))
        bounds = list(zip(self.STRATA, self.STRATA[1:] + (self.PAIR_CLASS_LIMIT,)))
        strata = [[p for p in pool if lo <= p[0] < hi][:q] for (lo, hi), q in zip(bounds, self.QUOTAS)]
        used = {id(p) for s in strata for p in s}
        for (lo, hi), q, stratum in zip(bounds, self.QUOTAS, strata):
            if len(stratum) < q:
                distance = lambda p: abs(math.log((min(max(p[0], lo), hi - 1) + 1) / (p[0] + 1)))
                spare = sorted((p for p in pool if id(p) not in used), key=distance)
                stratum += spare[: q - len(stratum)]
                used.update(id(p) for p in stratum)
        if sum(map(len, strata)) < sum(self.QUOTAS):
            raise RuntimeError("audit-corpus: %d usable draws, need %d" % (len(pool), sum(self.QUOTAS)))
        self.items = [
            Item("s%d.%d" % (k, i), (seeds, depth))
            for k, stratum in enumerate(strata)
            for i, (_, seeds, depth) in enumerate(stratum)
        ]
        # warm up on a fragment from a middle stratum
        self.warmup = self.items[sum(self.QUOTAS[:4])]
        random.Random(seed).shuffle(self.items)

    def _pair_classes(self, frag) -> int:
        QSet = self.m["qset.kernel"].QSet
        qsets = [d for d, _ in frag.elements.classes() if isinstance(d, QSet)]
        cap = self.caps.product_qcard
        return sum(
            x.distinct_classes() * y.distinct_classes()
            for x in qsets for y in qsets if x.qcard * y.qcard <= cap
        )

    def run(self, item: Item):
        universe = self.m["qset.universe"]
        seeds, depth = item.data
        frag = universe.build_fragment(seeds, depth, self.caps)
        report = universe.check_qED(frag, caps=frag.caps)
        return report.to_json()

    def check(self, item: Item, output: str) -> str | None:
        doc = json.loads(output)
        members = {text for text, _ in doc["elements"]}
        for cond, defects in doc["defects"].items():
            for d in defects:
                if d["missing"] is not None and d["missing"] in members:
                    return "%s defect names a member as missing: %s" % (cond, d["missing"])
        if not doc["defects"]["cond1"]:
            return "cond1 is empty"
        n_qsets = sum(1 for text in members if text.startswith("{"))
        if doc["totals"]["cond3_checked"] != n_qsets * n_qsets:
            return "cond3_checked is %d, expected %d" % (doc["totals"]["cond3_checked"], n_qsets ** 2)
        return None

    def digest(self, output: str) -> str:
        """The five defect lists and their checked counts; other keys may change."""
        doc = json.loads(output)
        checked = {k: v for k, v in doc["totals"].items() if k.endswith("_checked")}
        return _sha({"defects": doc["defects"], "checked": checked})


# -- deep-build --------------------------------------------------------


class DeepBuild:
    """Depth-3 builds whose member cap fills during round 3.

    Each seed set is one element class: an m-atom kind with multiplicity
    1-3, a classical atom, a primitive pair of atoms, or the empty
    quasi-set.  Twenty members exist after round 2, so round 3 applies
    about 1,200 constructors and the 64-member cap turns most results
    into ``member-cap`` cutoffs.  Larger seed sets grow past 64 members
    in round 2.  Every run holds each shape the same number of times;
    the seed draws kind and atom names, multiplicities and the order.
    """

    name = "deep-build"
    SHAPES = (("kind", 34), ("catom", 20), ("pair", 38), ("empty", 8))
    DEPTH = 3

    def __init__(self, modules: dict, seed: int):
        self.m = modules
        kernel = modules["qset.kernel"]
        self.caps = modules["qset.universe"].BuildCaps(max_members=64, power_qcard=8, product_qcard=256)
        rng = random.Random(seed)

        def atom():
            if rng.random() < 0.5:
                return kernel.Kind("K%d" % rng.randint(1, 99))
            return kernel.CAtom("A%d" % rng.randint(1, 99))

        self.items = []
        for shape, count in self.SHAPES:
            for i in range(count):
                if shape == "kind":
                    seeds = kernel.QSet([(kernel.Kind("K%d" % rng.randint(1, 99)), rng.randint(1, 3))])
                elif shape == "catom":
                    seeds = kernel.QSet([kernel.CAtom("A%d" % rng.randint(1, 99))])
                elif shape == "pair":
                    seeds = kernel.QSet([kernel.PrimPair(atom(), atom())])
                else:
                    seeds = kernel.QSet([kernel.QSet()])
                self.items.append(Item("%s.%d" % (shape, i), seeds))
        rng.shuffle(self.items)
        self.warmup = self.items[0]

    def run(self, item: Item):
        frag = self.m["qset.universe"].build_fragment(item.data, self.DEPTH, self.caps)
        return frag, frag.to_json()

    def check(self, item: Item, output) -> str | None:
        frag, _ = output
        if frag.elements.distinct_classes() > self.caps.max_members:
            return "%d members exceed the cap of %d" % (frag.elements.distinct_classes(), self.caps.max_members)
        try:
            replayed = self.m["qset.universe"].replay_ledger(frag.ledger, frag.caps)
        except ValueError as err:
            return "ledger replay failed: %s" % err
        if replayed != frag.elements:
            return "ledger replay gives %s" % replayed.text
        return None

    def digest(self, output) -> str:
        return _sha(json.loads(output[1])["elements"])


# -- script-eval -------------------------------------------------------


def _reference(name: str) -> str:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return fh.read()


class ScriptEval:
    """In-process ``qset.cli.main`` calls on generated scripts and the demos.

    Most items are ``eval --format json`` on a generated script; some
    are ``laws --format json`` sweeps with their own seed; five are fixed:
    ``eval`` on each demo, ``audit`` on the universe demo, and the README's
    ``laws --samples 50 --seed 0``.  Generated checks carry expected
    values the generator worked out by plain arithmetic, and every bound
    value is printed back so its rendering can be compared with the text
    the script spelled it as.
    """

    name = "script-eval"
    SCRIPTS = 100
    LAWS = 12
    LAWS_SAMPLES = 200
    VALUES = 12

    def __init__(self, modules: dict, seed: int):
        self.m = modules
        gen_mod = modules["qset.gen"]
        rng = random.Random(seed)
        self.items = []
        for i in range(self.SCRIPTS):
            script, expect = self._script(gen_mod.StructureGen(rng.randrange(2 ** 31)), rng)
            self.items.append(Item("eval.%d" % i, ("gen", ["eval", "-", "--format", "json"], script, expect)))
        for i in range(self.LAWS):
            argv = ["laws", "--format", "json", "--samples", str(self.LAWS_SAMPLES),
                    "--seed", str(rng.randrange(2 ** 31))]
            self.items.append(Item("laws.%d" % i, ("laws", argv, None, None)))
        demo = lambda name: os.path.join(ROOT, "demos", name)
        self.items += [
            Item("demo.powerset", ("ref", ["eval", demo("powerset.qst")], None, _reference("eval_powerset.txt"))),
            Item("demo.universe-audit", ("ref", ["audit", demo("universe.qst")], None, _reference("audit_universe.txt"))),
            Item("demo.laws-50", ("ref", ["laws", "--samples", "50", "--seed", "0"], None, _reference("laws_50_0.txt"))),
            Item("demo.laws", ("demo", ["eval", demo("laws.qst")], None, 4)),
            Item("demo.universe-eval", ("demo", ["eval", demo("universe.qst")], None, 2)),
        ]
        rng.shuffle(self.items)
        self.warmup = next(it for it in self.items if it.data[0] == "gen")

    def _script(self, gen, rng):
        """One script plus what its output must show.

        Returns the source and ``(value texts in output order, number of
        checks)``.
        """
        lines = ["kind K1", "kind K2", "kind K3",
                 "matoms k1: K1^99", "matoms k2: K2^99", "matoms k3: K3^99",
                 "catom A1", "catom A2", "catom A3"]
        shown: list[str] = []
        checks = 0
        vals = []
        while len(vals) < self.VALUES:
            v = gen.qset(max_qcard=5, max_depth=2)
            if v.qcard:
                vals.append(v)
        for i, v in enumerate(vals):
            lines.append("let x%d = %s" % (i, v.text))
            lines.append("x%d" % i)
            shown.append(v.text)
            lines.append("check eq(qc(pow(x%d)), %d)" % (i, 2 ** v.qcard))
            checks += 1
        for _ in range(6):
            i, j = rng.randrange(len(vals)), rng.randrange(len(vals))
            lines.append("check eq(qc(prod(x%d, x%d)), %d)" % (i, j, vals[i].qcard * vals[j].qcard))
            lines.append("check eq(union(x%d, x%d), x%d)" % (i, i, i))
            checks += 2
        # a universe holding x_i with multiplicity m_i; equal texts share a class
        mult: dict[str, int] = {}
        parts = []
        for i, v in enumerate(vals[:6]):
            m = rng.randint(1, 3)
            parts.append("x%d" % i if m == 1 else "x%d^%d" % (i, m))
            mult[v.text] = mult.get(v.text, 0) + m
        lines.append("let u = {%s}" % ", ".join(parts))
        for i, v in enumerate(vals[:6]):
            lines.append("check eq(qc(sing(x%d, u)), %d)" % (i, mult[v.text]))
            checks += 1
        for _ in range(3):
            i, j = rng.randrange(6), rng.randrange(6)
            lines.append("opair(x%d, x%d, u)" % (i, j))
            lines.append("union(x%d, x%d)" % (i, j))
            lines.append("pair(x%d, x%d, u)" % (i, j))
        # quasi-functions a -> b -> c with graphs drawn here
        for t in range(3):
            a, b, c = (rng.randrange(len(vals)) for _ in range(3))
            ca, cb, cc = ([d for d, _ in vals[k].classes()] for k in (a, b, c))
            f = {d: rng.choice(cb) for d in ca}
            g = {d: rng.choice(cc) for d in cb}
            lines.append("let f%d = qfun(x%d, x%d, %s)" % (t, a, b, self._graph(f)))
            lines.append("let g%d = qfun(x%d, x%d, %s)" % (t, b, c, self._graph(g)))
            lines.append("check qequiv(comp(f%d, idq(x%d)), f%d)" % (t, a, t))
            lines.append("check qequiv(comp(idq(x%d), f%d), f%d)" % (b, t, t))
            gf = {d: g[f[d]] for d in ca}
            lines.append("check qequiv(comp(g%d, f%d), qfun(x%d, x%d, %s))" % (t, t, a, c, self._graph(gf)))
            checks += 3
            lines.append("f%d" % t)
        return "\n".join(lines) + "\n", (shown, checks)

    def _graph(self, mapping: dict) -> str:
        text = self.m["qset.kernel"].canonical_text
        return "{%s}" % ", ".join("<%s, %s>" % (text(a), text(b)) for a, b in mapping.items())

    def run(self, item: Item):
        _, argv, stdin_text, _ = item.data
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.m["qset.cli"].main(argv)
        finally:
            sys.stdin = saved_stdin
        return code, out.getvalue(), err.getvalue()

    def check(self, item: Item, output) -> str | None:
        kind, argv, _, expect = item.data
        code, stdout, stderr = output
        if code != 0 or stderr:
            return "exit code %d, stderr %r" % (code, stderr[:200])
        if kind == "gen":
            doc = json.loads(stdout)
            shown, checks = expect
            values = [r["value"] for r in doc["results"] if r["kind"] == "value"]
            if values[: len(shown)] != shown:
                return "a bound value did not render back to the text it was written as"
            verdicts = [r["passed"] for r in doc["results"] if r["kind"] == "check"]
            if len(verdicts) != checks or not all(verdicts):
                return "checks: %d of %d passed" % (sum(verdicts), checks)
            if doc["checks"] != {"passed": checks, "failed": 0}:
                return "check totals %r" % (doc["checks"],)
        elif kind == "laws":
            doc = json.loads(stdout)
            n = int(argv[argv.index("--samples") + 1])
            if doc["violations"] or doc["sample_size"] != n or doc["identity_checks"] != 2 * n:
                return "law sweep: %d violations, sample %d" % (len(doc["violations"]), doc["sample_size"])
        elif kind == "ref":
            if stdout != expect:
                return "output differs from the README session"
        else:
            if not re.search(r"^checks: %d passed, 0 failed$" % expect, stdout, re.M):
                return "demo checks did not all pass"
        return None

    def digest(self, output) -> str:
        return _sha(list(output))


WORKLOADS = {w.name: w for w in (AuditCorpus, DeepBuild, ScriptEval)}
