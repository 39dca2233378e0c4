"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints "ACCEPTANCE n: PASS" or "... FAIL" (visible under
pytest -s) before asserting, so a run leaves one verdict line per
criterion.  Bounds and sample sizes here are contractual; do not tune
them to make a failing build pass.
"""

import json
import re
import subprocess
import sys
import time

from qset import (
    BuildCaps,
    CAtom,
    CategoryPresentation,
    Kind,
    PrimPair,
    QSet,
    canonicalize,
    check_qED,
    compose,
    encode_quasi_function,
    identity,
    indist,
    is_quasi_function,
    is_small_category,
    opair_in,
    power,
    product,
    qfun_equiv,
    relabel,
)
from qset.gen import StructureGen
from small_pools import all_quasi_functions, all_relations, flat_qsets
from qset.lang import Session, render, run_program

from oracles import classes_by_onf, power_oracle, product_oracle

K = Kind("K")
J = Kind("J")
A1 = CAtom("A1")


def verdict(num: int, ok: bool, detail: str = ""):
    print("ACCEPTANCE %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok, detail


def run_cli(*argv, stdin_text=None, as_bytes=False):
    return subprocess.run(
        [sys.executable, "-m", "qset", *argv],
        input=stdin_text.encode("utf-8") if as_bytes and stdin_text else stdin_text,
        capture_output=True,
        text=not as_bytes,
        timeout=300,
    )


_AUDITED = None


def audited_fragments():
    """100 seeded random fragments with their closure reports (cached)."""
    global _AUDITED
    if _AUDITED is None:
        gen = StructureGen(seed=88)
        caps = BuildCaps(max_members=24, power_qcard=10)
        frags = [gen.fragment(max_seeds=3, max_depth=2, caps=caps) for _ in range(100)]
        _AUDITED = [(f, check_qED(f, caps=f.caps)) for f in frags]
    return _AUDITED


def test_criterion_01_relabelling_equivariance():
    # 1000 labeled builds (qcard <= 8, depth <= 3, 3 kinds), 5 random
    # kind-preserving permutations each; canonical forms must agree
    gen = StructureGen(seed=1)
    started = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        build = gen.labeled_build(max_qcard=8, max_depth=3)
        base = canonicalize(build)
        for _ in range(5):
            mapping = gen.kind_permutation(build)
            if relabel(build, mapping) != base:
                mismatches += 1
    elapsed = time.monotonic() - started
    verdict(1, mismatches == 0 and elapsed < 10.0,
            "mismatches=%d elapsed=%.2fs (bound 10s)" % (mismatches, elapsed))


def test_criterion_02_power_counts_match_the_subset_oracle():
    # qc(power(x)) == 2^qc(x) and per-form counts match brute force
    gen = StructureGen(seed=2)
    started = time.monotonic()
    bad = 0
    for _ in range(200):
        x = gen.qset(max_qcard=10, max_depth=2)
        p = power(x)
        if p.qcard != 2 ** x.qcard or classes_by_onf(p) != dict(power_oracle(x)):
            bad += 1
    elapsed = time.monotonic() - started
    verdict(2, bad == 0 and elapsed < 30.0,
            "failures=%d elapsed=%.2fs (bound 30s)" % (bad, elapsed))


def test_criterion_03_product_law_and_pair_coherence():
    gen = StructureGen(seed=3)
    started = time.monotonic()
    bad = 0
    for _ in range(200):
        x = gen.qset(max_qcard=10, max_depth=1)
        y = gen.qset(max_qcard=10, max_depth=1)
        pr = product(x, y)
        if pr.qcard != x.qcard * y.qcard or classes_by_onf(pr) != dict(product_oracle(x, y)):
            bad += 1

    # primitive-pair equality must track componentwise indistinguishability,
    # and indistinguishable components must share one weak ordered pair
    for u in flat_qsets([K, J], [A1], 4):
        members = [d for d, _ in u.classes()]
        for a in members:
            for b in members:
                for a2 in members:
                    for b2 in members:
                        same = indist(a, a2) and indist(b, b2)
                        if (PrimPair(a, b) == PrimPair(a2, b2)) != same:
                            bad += 1
                        if same and opair_in(a, b, u) != opair_in(a2, b2, u):
                            bad += 1
    elapsed = time.monotonic() - started
    verdict(3, bad == 0 and elapsed < 30.0,
            "failures=%d elapsed=%.2fs (bound 30s)" % (bad, elapsed))


def test_criterion_04_functionality_agrees_with_labeled_brute_force():
    # every relation between qsets of qcard <= 3 over 2 kinds + 1
    # classical atom: the class-level verdict equals the labeled one
    from oracles import congruence_oracle

    pool = flat_qsets([K, J], [A1], 3)
    assert len(pool) == 16
    disagreements = 0
    checked = 0
    for x in pool:
        for y in pool:
            for rel in all_relations(x, y):
                checked += 1
                if is_quasi_function(rel) != congruence_oracle(rel):
                    disagreements += 1
    verdict(4, disagreements == 0,
            "disagreements=%d over %d relations" % (disagreements, checked))


def test_criterion_05_category_laws():
    started = time.monotonic()
    violations = 0

    # exhaustive: every quasi-function between qsets of qcard <= 2
    pool = flat_qsets([K, J], [A1], 2)
    fns = []
    for x in pool:
        for y in pool:
            fns.extend(all_quasi_functions(x, y))
    for f in fns:
        if not qfun_equiv(compose(identity(f.cod), f), f):
            violations += 1
        if not qfun_equiv(compose(f, identity(f.dom)), f):
            violations += 1
    by_dom = {}
    for f in fns:
        by_dom.setdefault(f.dom, []).append(f)
    triples = 0
    for f in fns:
        for g in by_dom.get(f.cod, ()):
            gf = compose(g, f)
            for h in by_dom.get(g.cod, ()):
                triples += 1
                if not qfun_equiv(compose(h, gf), compose(compose(h, g), f)):
                    violations += 1

    # sampled: 500 composable triples at qcard <= 5
    gen = StructureGen(seed=5)
    for _ in range(500):
        f, g, h = gen.composable_chain(length=3, max_qcard=5)
        if not qfun_equiv(compose(h, compose(g, f)), compose(compose(h, g), f)):
            violations += 1
        for fn in (f, g, h):
            if not qfun_equiv(compose(identity(fn.cod), fn), fn):
                violations += 1
            if not qfun_equiv(compose(fn, identity(fn.dom)), fn):
                violations += 1
    elapsed = time.monotonic() - started
    verdict(5, violations == 0 and elapsed < 60.0,
            "violations=%d exhaustive_triples=%d elapsed=%.2fs (bound 60s)"
            % (violations, triples, elapsed))


def test_criterion_06_derived_defects_never_appear_alone():
    # a missing union/pair/ordered-pair must be explained by a missing
    # power, singleton, or product in the same report
    unexplained = 0
    for _, report in audited_fragments():
        if report.theorem1 and not (report.cond1 or report.cond2 or report.cond3):
            unexplained += 1
    verdict(6, unexplained == 0, "unexplained derived defects in %d reports" % unexplained)


def test_criterion_07_every_finite_fragment_is_defective():
    # the power of a deepest member always escapes, so cond1 is never empty
    missing = sum(1 for _, report in audited_fragments() if len(report.cond1) < 1)
    verdict(7, missing == 0, "%d fragments reported closure under power" % missing)


def test_criterion_08_whole_universe_objects_are_large():
    # objects = U is never a member of U, so the presentation cannot be small
    wrongly_small = 0
    for frag, _ in audited_fragments():
        first_qset = next((d for d, _ in frag.elements.classes() if isinstance(d, QSet)), None)
        if first_qset is None:
            morphisms = QSet()
        else:
            morphisms = QSet([encode_quasi_function(identity(first_qset))])
        if is_small_category(CategoryPresentation(frag.elements, morphisms), frag):
            wrongly_small += 1
    verdict(8, wrongly_small == 0, "%d fragments misreported as small" % wrongly_small)


def test_criterion_09_round_trip_and_error_diagnostics():
    gen = StructureGen(seed=9)
    session = Session()
    run_program(
        "kind K1\nkind K2\nkind K3\n"
        "matoms k1: K1^99\nmatoms k2: K2^99\nmatoms k3: K3^99\n"
        "catom A1\ncatom A2\ncatom A3\n",
        session,
    )
    mismatches = 0
    for _ in range(1000):
        value = gen.qset(max_qcard=4, max_depth=2)
        back = run_program(render(value), session)[-1].value
        if back != value:
            mismatches += 1

    fixtures = [
        "qc(",
        "frobnicate(1)",
        "qc()",
        "{a^0}",
        "matoms k: K^0",
        "<a, b>",
        "let = 3",
        "union({}, {}, {})",
        'check "text"',
    ]
    bad_fixtures = []
    for fixture in fixtures:
        proc = run_cli("eval", "-", stdin_text=fixture)
        if proc.returncode != 2 or not re.search(r":\d+:\d+: error:", proc.stderr):
            bad_fixtures.append(fixture)
    verdict(9, mismatches == 0 and not bad_fixtures,
            "mismatches=%d bad_fixtures=%r" % (mismatches, bad_fixtures))


def test_criterion_10_law_sweep_output_is_byte_identical():
    argv = ("laws", "--samples", "500", "--seed", "0", "--format", "json")
    runs = [run_cli(*argv, as_bytes=True) for _ in range(3)]
    codes = [p.returncode for p in runs]
    outs = [p.stdout for p in runs]
    identical = outs[0] == outs[1] == outs[2]
    parsed = json.loads(outs[0].decode("utf-8"))
    verdict(10, codes == [0, 0, 0] and identical and parsed["violations"] == [],
            "codes=%r identical=%r" % (codes, identical))
