"""Fragment construction, ledger replay, closure audits, classification."""

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter

import pytest

from oracles import audit_oracle, onf_text, onf_value
from qset import (
    BuildCaps,
    CapExceeded,
    CAtom,
    Classification,
    CategoryPresentation,
    EmptyUniverse,
    Kind,
    MAtom,
    LedgerEntry,
    PrimPair,
    QSet,
    build_fragment,
    check_qED,
    classify,
    encode_quasi_function,
    identity,
    is_small_category,
    replay_ledger,
)
from qset import algebra, canonical_text, universe as universe_module
from qset.gen import StructureGen

K = Kind("K")
J = Kind("J")
A1 = CAtom("A1")
A2 = CAtom("A2")
A3 = CAtom("A3")
A4 = CAtom("A4")


def k(label):
    return MAtom(K, label)


def qs(*entries):
    return QSet(entries)


def _random_fragments(count, seed=0, **kwargs):
    gen = StructureGen(seed)
    return [gen.fragment(**kwargs) for _ in range(count)]


# -- construction -------------------------------------------------------


def test_depth_zero_is_exactly_the_seed():
    frag = build_fragment([qs((K, 1))], depth=0)
    assert frag.elements == QSet([qs((K, 1))])
    assert frag.elements.qcard == 1
    assert frag.processed_members() == set()


def test_depth_one_contents_hand_derived():
    # seed x = {m_K}; one round over the snapshot {x} must add exactly
    #   power(x)          = {{m_K}, {}}
    #   class-singleton   = {{m_K}}
    #   union(x,x)        = x (already present)
    #   product(x,x)      = {<m_K, m_K>}
    #   pair(x,x)         = {{m_K}}  (same as the singleton)
    #   opair(x,x)        = {{{m_K}}} (collapsed)
    x = qs((K, 1))
    frag = build_fragment([x], depth=1)
    expected = QSet([
        x,
        QSet([QSet(), x]),
        QSet([x]),
        QSet([PrimPair(K, K)]),
        QSet([QSet([x])]),
    ])
    assert frag.elements == expected
    assert frag.elements.qcard == 5


def test_empty_seeds_are_rejected():
    with pytest.raises(EmptyUniverse):
        build_fragment([], depth=1)


def test_member_cap_on_seeds():
    with pytest.raises(CapExceeded):
        build_fragment([qs((K, 1)), qs((J, 1)), A1], depth=0, caps=BuildCaps(max_members=2))


def test_seed_multiplicities_are_kept():
    frag = build_fragment([k(1), k(2), A1], depth=1)
    assert frag.elements.count(K) == 2
    assert frag.elements.count(A1) == 1


def test_build_is_deterministic():
    a = build_fragment([k(1), A1], depth=2, caps=BuildCaps(max_members=40))
    b = build_fragment([k(1), A1], depth=2, caps=BuildCaps(max_members=40))
    assert a.elements == b.elements
    assert a.to_json() == b.to_json()


def test_rank_is_hereditary_depth():
    frag = build_fragment([k(1), A1], depth=1)
    for desc, _ in frag.elements.classes():
        if isinstance(desc, QSet):
            assert frag.rank[desc] == desc.depth
            for inner, _ in desc.classes():
                if inner in frag.rank:
                    assert frag.rank[inner] < frag.rank[desc]
        else:
            assert frag.rank[desc] == 0


def _qsets(members):
    return [d for d in members if isinstance(d, QSet)]


# Each round's operand tuples per constructor, in build order: operands
# in canonical member order, first operand outermost.
OPERANDS = {
    "power": lambda ms: [(a,) for a in _qsets(ms)],
    "singleton": lambda ms: [(a,) for a in ms],
    "union": lambda ms: list(itertools.combinations_with_replacement(_qsets(ms), 2)),
    "product": lambda ms: list(itertools.product(_qsets(ms), repeat=2)),
    "pair": lambda ms: list(itertools.combinations_with_replacement(ms, 2)),
    "opair": lambda ms: list(itertools.product(ms, repeat=2)),
}


def test_round_ops_run_in_table_order():
    # Recomputes round 1's applications from the seeds: each constructor
    # in turn, operands in canonical member order, first operand outermost.
    x, y = qs((K, 1)), qs(A1)
    seeds = QSet([x, y, A1])
    frag = build_fragment(seeds, depth=2, caps=BuildCaps(max_members=400))
    ordered = [d for d, _ in seeds.classes()]
    expected = [(op, p) for op, operands in OPERANDS.items() for p in operands(ordered)]
    rounds = [[]]
    for entry in frag.ledger:
        if entry.op == "round":
            rounds.append([])
        else:
            rounds[-1].append(entry)
    assert [(e.op, e.args) for e in rounds[1]] == expected
    order = ["power", "singleton", "union", "product", "pair", "opair"]
    for entries in rounds[1:]:
        assert [op for op, _ in itertools.groupby(e.op for e in entries)] == order


def test_monotone_in_depth():
    caps = BuildCaps(max_members=200)
    shallow = build_fragment([k(1), A1], depth=1, caps=caps)
    deep = build_fragment([k(1), A1], depth=2, caps=caps)
    for desc, n in shallow.elements.classes():
        assert deep.elements.count(desc) >= n


# -- ledger replay -------------------------------------------------------


def test_replay_reproduces_the_elements():
    for frag in _random_fragments(8, seed=2):
        assert replay_ledger(frag.ledger, frag.caps) == frag.elements


def test_replay_detects_tampering():
    frag = build_fragment([qs((K, 1))], depth=1)
    tampered = []
    poisoned = False
    for entry in frag.ledger:
        if not poisoned and entry.op == "power":
            tampered.append(dataclasses.replace(entry, result=QSet([A2])))
            poisoned = True
        else:
            tampered.append(entry)
    assert poisoned
    with pytest.raises(ValueError):
        replay_ledger(tuple(tampered), frag.caps)


@pytest.mark.parametrize("bad", [
    LedgerEntry(op="intersection", args=(QSet(), QSet()), result=QSet()),
    LedgerEntry(op="union", args=(QSet(),), result=QSet()),
    LedgerEntry(op="power", args=(QSet(), QSet()), result=QSet([QSet()])),
])
def test_replay_rejects_entries_no_constructor_takes(bad):
    frag = build_fragment([qs((K, 1))], depth=1)
    with pytest.raises(ValueError):
        replay_ledger(frag.ledger + (bad,), frag.caps)


def test_cutoffs_are_recorded_not_silent():
    caps = BuildCaps(max_members=6)
    frag = build_fragment([k(1), k(2), A1], depth=1, caps=caps)
    assert frag.elements.distinct_classes() <= 6
    assert any(e.cutoff == "member-cap" for e in frag.ledger)
    assert replay_ledger(frag.ledger, caps) == frag.elements


def test_power_cap_cutoff_marker():
    caps = BuildCaps(power_qcard=2, max_members=64)
    frag = build_fragment([qs((K, 3))], depth=1, caps=caps)
    assert any(e.op == "power" and e.cutoff == "power-cap" for e in frag.ledger)


# -- past the member cap ------------------------------------------------

# Each constructor recomputed straight from qset.algebra, apart from the
# constructor table the build uses.
RECOMPUTE = {
    "power": lambda a, u, caps: algebra.power(a[0], cap=caps.power_qcard),
    "singleton": lambda a, u, caps: algebra.singleton_in(a[0], u),
    "union": lambda a, u, caps: algebra.union(a[0], a[1]),
    "product": lambda a, u, caps: algebra.product(a[0], a[1], cap=caps.product_qcard),
    "pair": lambda a, u, caps: algebra.pair_in(a[0], a[1], u),
    "opair": lambda a, u, caps: algebra.opair_in(a[0], a[1], u),
}

DEEP_CAPS = BuildCaps(max_members=64, power_qcard=8, product_qcard=256)


def _cap_builds():
    """(seeds, depth, caps): StructureGen seeds under tight member caps,
    and the deep-build seed shapes."""
    gen = StructureGen(41)
    builds = []
    for cap in (8, 12, 16, 20, 24):
        for depth in (2, 3):
            seeds = [gen.qset(max_qcard=3, max_depth=1) for _ in range(gen.rng.randint(1, 3))]
            seeds.append(gen.rng.choice(gen.catoms + [gen.fresh_atom(gen.kinds[0])]))
            builds.append((seeds, depth, BuildCaps(max_members=cap, power_qcard=6)))
    for seeds in ([(K, 2)], [A1], [PrimPair(K, A1)], [QSet()]):
        builds.append((QSet(seeds), 3, DEEP_CAPS))
    # the cap fills on {A1} x {m_K^2}; {A1} x {m_K} next has the same pairs
    # with other counts and must not be taken for it
    builds.append(([qs((K, 1)), qs((K, 2)), qs(A1)], 2, BuildCaps(max_members=13)))
    return builds


def _rounds(ledger):
    """The seed entries, then each round's entries grouped by op.

    Asserts that a round lists each op's entries together, in table order.
    """
    rounds = [[]]
    for entry in ledger:
        if entry.op == "round":
            rounds.append({})
        elif len(rounds) == 1:
            assert entry.op == "seed"
            rounds[0].append(entry)
        else:
            groups = rounds[-1]
            assert entry.op in OPERANDS and (entry.op not in groups or list(groups)[-1] == entry.op)
            groups.setdefault(entry.op, []).append(entry)
    for groups in rounds[1:]:
        assert list(groups) == [op for op in OPERANDS if op in groups]
    return rounds


def _walk_past_the_cap(frag):
    """Re-derive every round of ``frag`` straight from qset.algebra.

    Each operand tuple of each round is recomputed.  A result the caps
    refuse must be listed as their cutoff.  Before the member cap fills,
    every result must be listed; past it, a member must be listed as a
    duplicate and anything else is a miss, not listed, and the one
    ``member-cap`` summary after the op's listed entries counts the
    misses.  Returns the number of applications before the cap filled;
    per op, [duplicates, misses] past it; and the ledger with each miss
    listed in its place, as a ``member-cap`` entry with args.
    """
    caps = frag.caps
    seeds, *rounds = _rounds(frag.ledger)
    members = {e.result: e.count for e in seeds}
    computed = 0
    found = {op: [0, 0] for op in OPERANDS}
    expanded = list(seeds)
    for r, groups in enumerate(rounds, 1):
        expanded.append(LedgerEntry(op="round", count=r))
        universe = QSet(members.items())
        ordered = [d for d, _ in universe.classes()]
        for op, operands in OPERANDS.items():
            listed = groups.get(op, [])
            counted = 0
            if listed and listed[-1].cutoff == "member-cap":
                summary = listed.pop()
                assert summary.args == () and summary.result is None
                counted = summary.count
            listed = iter(listed)
            misses = 0
            for args in operands(ordered):
                try:
                    result = RECOMPUTE[op](args, universe, caps)
                except CapExceeded:
                    entry = next(listed)
                    assert (entry.args, entry.result, entry.cutoff) == (args, None, op + "-cap")
                    expanded.append(entry)
                    continue
                if len(members) < caps.max_members:
                    computed += 1
                    members.setdefault(result, 1)
                elif result not in members:
                    assert frag.elements.count(result) == 0, (op, result.text)
                    misses += 1
                    expanded.append(LedgerEntry(op=op, args=args, cutoff="member-cap"))
                    continue
                else:
                    found[op][0] += 1
                entry = next(listed)
                assert (entry.args, entry.cutoff) == (args, None)
                assert entry.result == result, (op, result.text)
                expanded.append(entry)
            assert next(listed, None) is None
            assert counted == misses, (op, counted, misses)
            found[op][1] += misses
    assert QSet(members.items()) == frag.elements
    return computed, found, expanded


def test_results_past_the_member_cap_are_exact():
    found = {op: [0, 0] for op in RECOMPUTE}  # op -> [duplicates, misses]
    for frag in [build_fragment(*b) for b in _cap_builds()]:
        _, past, _ = _walk_past_the_cap(frag)
        for op, (dups, misses) in past.items():
            found[op][0] += dups
            found[op][1] += misses
    for op, (dups, misses) in found.items():
        assert dups > 0 and misses > 0, (op, dups, misses)


def test_nothing_is_computed_past_the_member_cap(monkeypatch):
    # A round's applications share parts, so one application can make
    # several algebra calls or none.  Count the rows' applies instead,
    # and require every algebra call to come from inside one.  Past the
    # fill point a row lists its hits from one hit map per round: each
    # round makes one Parts, so log both and require no row's hits to
    # run twice between two rounds.
    depth = [0]
    applies = [0]
    outside = []
    log = []

    def counting(fn):
        def wrapped(*args):
            applies[0] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    def watched(name, fn):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                outside.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def logged(name, fn):
        def wrapped(*args):
            log.append(name)
            return fn(*args)
        return wrapped

    class LoggedParts(universe_module.Parts):
        def __init__(self, universe):
            log.append("round")
            super().__init__(universe)

    builds = _cap_builds()
    rows = tuple(
        dataclasses.replace(row, apply=counting(row.apply), hits=logged(row.name, row.hits))
        for row in universe_module.CONSTRUCTORS
    )
    monkeypatch.setattr(universe_module, "CONSTRUCTORS", rows)
    monkeypatch.setattr(universe_module, "Parts", LoggedParts)
    for name in ("power", "singleton_in", "union", "product", "pair_in", "opair_in", "opair_from"):
        monkeypatch.setattr(algebra, name, watched(name, getattr(algebra, name)))
    frags = []
    hits_per_build = []
    for b in builds:
        del log[:]
        frags.append(build_fragment(*b))
        hits_per_build.append(list(log))
    monkeypatch.undo()
    total = 0
    for frag, calls in zip(frags, hits_per_build):
        computed, past, _ = _walk_past_the_cap(frag)
        total += computed
        assert any(dups + misses for dups, misses in past.values())
        rounds = [list(g) for is_round, g in itertools.groupby(calls, lambda c: c == "round") if not is_round]
        assert rounds, "no hit map past the fill point"
        for names in rounds:
            assert len(names) == len(set(names)), names
    # one apply per application before the cap filled, no value built after it
    assert applies[0] == total
    assert outside == []


def _hits_past_the_fill(frag, expanded):
    """What each entry past the fill point of ``frag`` shows: per
    (op, feature), how many listed results.  ``expanded`` is the ledger
    ``_walk_past_the_cap`` returns."""
    cap = frag.caps.max_members
    members = {}
    seen = {}
    universe = {}
    for entry in expanded:
        filled = len(members) >= cap
        if entry.op == "seed":
            members[entry.result] = entry.count
        elif entry.op == "round":
            universe = dict(members)
            if filled:
                seen["round", "whole round past the fill point"] = 1
        elif entry.result is None or entry.cutoff is not None:
            continue
        elif not filled:
            members.setdefault(entry.result, 1)
        else:
            features = ["hit"]
            if entry.op == "product" and QSet() in entry.args:
                features.append("empty operand")
            if entry.op in ("pair", "opair") and entry.args[0] == entry.args[1]:
                features.append("collapsed")
            if any(universe.get(a, 0) > 1 for a in entry.args):
                features.append("operand counted above 1")
            for feature in features:
                seen[entry.op, feature] = seen.get((entry.op, feature), 0) + 1
    return seen


def test_hit_maps_list_every_member_past_the_cap_on_random_fragments():
    # StructureGen fragments under small member caps, each of which fills:
    # every operand tuple past the fill point is recomputed from
    # qset.algebra, so a hit map that drops a true hit or lists a false
    # one, or a miss count that is off, fails the walk
    gen = StructureGen(7)
    frags = []
    while len(frags) < 150:
        cap = gen.rng.randint(6, 18)
        frag = gen.fragment(max_seeds=4, max_depth=3, caps=BuildCaps(max_members=cap, power_qcard=6, product_qcard=64))
        if frag.elements.distinct_classes() >= cap:
            frags.append(frag)
    seen = {}
    for frag in frags:
        _, _, expanded = _walk_past_the_cap(frag)
        for key, n in _hits_past_the_fill(frag, expanded).items():
            seen[key] = seen.get(key, 0) + n
    for op in OPERANDS:
        assert seen.get((op, "hit")), op
    for key in [
        ("product", "empty operand"),
        ("pair", "collapsed"),
        ("opair", "collapsed"),
        ("singleton", "operand counted above 1"),
        ("pair", "operand counted above 1"),
        ("opair", "operand counted above 1"),
        ("round", "whole round past the fill point"),
    ]:
        assert seen.get(key), key


# sha256 of fixed qset/1 fragment documents, recorded when every
# member-cap miss was listed with its args.  Looking results up past the
# member cap left every byte of them as building the results did.
LEDGER_PINS = [
    # member cap filled in round 2
    ([CAtom("a"), CAtom("b")], 2, BuildCaps(max_members=12),
     "c5d7120bb75ef869104c42a4a3325d23b7f6d129635afc272e9c60f80e45a5af"),
    # member cap filled in round 3, deep-build shapes
    (QSet([PrimPair(K, CAtom("a"))]), 3, DEEP_CAPS,
     "410393c01e9ec3a7c896ec33e0d4837ae4904e3bdf9b70db7b76600197956da6"),
    (QSet([QSet()]), 3, DEEP_CAPS,
     "594f23dddf20798997d39bce9b8ae317902b586ac9c4ea5f2a060984e8804185"),
    # power-cap and product-cap cutoffs before the member cap fills
    ([QSet([(K, 3)]), CAtom("a")], 2, BuildCaps(max_members=40, power_qcard=2, product_qcard=6),
     "99eafebe32815382aa6254f04526aa10de11f4e0b1839490e5869cd31f54f213"),
    # power-cap and product-cap cutoffs after the member cap filled in round 2
    ([QSet([(K, 2)])], 3, BuildCaps(max_members=24, power_qcard=3, product_qcard=20),
     "09c0edb409c79e72802c6e09c795b4a756c445e61183b7f62b44d8ea543f049d"),
    # the seeds alone fill the member cap
    ([CAtom("a"), CAtom("b"), QSet([(K, 2)])], 2, BuildCaps(max_members=3),
     "dd3d594f3a4b4ff9628bec11e073c8e6a06282c1af1a2cf8fe9d0f95dfb5a17c"),
]

# sha256 of the qset/2 documents of the LEDGER_PINS builds, in order.
QSET2_PINS = [
    "ebe0814e0786ce12e5b265d4b2e978b66b5208ef058a686126a4db1709a1e8eb",
    "a9a586d75d53e995cb9e2ff920f5f970f298f0b8a28e7489c8c0d388f49c4f31",
    "7e9fb9ea917fc898187486bc106655d00b749de93511c64f6350064205602f6b",
    "a23c72090d797c33cf4910f003d835774426870543fe67a64952051ed2a7e8b2",
    "fe7cd51c6310f1f1178980ee808d0cc27c47e2131d6b4ae71ca221899813ca9f",
    "94ca11556de03d8b8b2c091767a2700813181acc3f32704841a546c6beed2adb",
]

# The member-cap cutoffs per (round, op) that the qset/1 ledgers of the
# _cap_builds() and LEDGER_PINS builds listed one by one.
QSET1_MEMBER_CAP = [
    # _cap_builds()
    {(1, "union"): 1, (1, "product"): 4, (1, "pair"): 3, (1, "opair"): 9, (2, "power"): 5,
     (2, "singleton"): 5, (2, "union"): 19, (2, "product"): 49, (2, "pair"): 33,
     (2, "opair"): 64},
    {(1, "opair"): 1, (2, "power"): 6, (2, "singleton"): 5, (2, "union"): 11,
     (2, "product"): 36, (2, "pair"): 30, (2, "opair"): 61, (3, "power"): 6,
     (3, "singleton"): 5, (3, "union"): 11, (3, "product"): 36, (3, "pair"): 30,
     (3, "opair"): 61},
    {(2, "power"): 4, (2, "singleton"): 6, (2, "union"): 21, (2, "product"): 63,
     (2, "pair"): 39, (2, "opair"): 77},
    {(2, "power"): 6, (2, "singleton"): 6, (2, "union"): 20, (2, "product"): 64,
     (2, "pair"): 48, (2, "opair"): 96, (3, "power"): 7, (3, "singleton"): 8, (3, "union"): 29,
     (3, "product"): 100, (3, "pair"): 71, (3, "opair"): 140},
    {(1, "opair"): 4, (2, "power"): 13, (2, "singleton"): 11, (2, "union"): 72,
     (2, "product"): 195, (2, "pair"): 124, (2, "opair"): 251},
    {(2, "singleton"): 6, (2, "union"): 21, (2, "product"): 63, (2, "pair"): 39,
     (2, "opair"): 77, (3, "power"): 7, (3, "singleton"): 13, (3, "union"): 85,
     (3, "product"): 224, (3, "pair"): 130, (3, "opair"): 252},
    {(1, "opair"): 5, (2, "power"): 15, (2, "singleton"): 16, (2, "union"): 152,
     (2, "product"): 357, (2, "pair"): 200, (2, "opair"): 396},
    {(2, "singleton"): 1, (2, "union"): 14, (2, "product"): 49, (2, "pair"): 30,
     (2, "opair"): 76, (3, "power"): 11, (3, "singleton"): 12, (3, "union"): 117,
     (3, "product"): 324, (3, "pair"): 195, (3, "opair"): 395},
    {(2, "union"): 11, (2, "product"): 49, (2, "pair"): 29, (2, "opair"): 75},
    {(2, "power"): 13, (2, "singleton"): 15, (2, "union"): 149, (2, "product"): 360,
     (2, "pair"): 216, (2, "opair"): 432, (3, "power"): 15, (3, "singleton"): 18,
     (3, "union"): 194, (3, "product"): 483, (3, "pair"): 285, (3, "opair"): 567},
    {(3, "union"): 142, (3, "product"): 355, (3, "pair"): 181, (3, "opair"): 390},
    {(3, "union"): 139, (3, "product"): 355, (3, "pair"): 181, (3, "opair"): 390},
    {(3, "union"): 139, (3, "product"): 355, (3, "pair"): 181, (3, "opair"): 390},
    {(3, "union"): 99, (3, "product"): 283, (3, "pair"): 138, (3, "opair"): 314},
    {(1, "product"): 7, (1, "pair"): 3, (1, "opair"): 9, (2, "power"): 10,
     (2, "singleton"): 10, (2, "union"): 63, (2, "product"): 167, (2, "pair"): 88,
     (2, "opair"): 169},
    # LEDGER_PINS
    {(2, "power"): 4, (2, "singleton"): 5, (2, "union"): 16, (2, "product"): 49,
     (2, "pair"): 38, (2, "opair"): 77},
    {(3, "union"): 139, (3, "product"): 355, (3, "pair"): 181, (3, "opair"): 390},
    {(3, "union"): 99, (3, "product"): 283, (3, "pair"): 138, (3, "opair"): 314},
    {(2, "union"): 2, (2, "product"): 63, (2, "pair"): 30, (2, "opair"): 75},
    {(2, "product"): 19, (2, "pair"): 9, (2, "opair"): 23, (3, "power"): 8,
     (3, "singleton"): 19, (3, "union"): 234, (3, "product"): 409, (3, "pair"): 294,
     (3, "opair"): 574},
    {(1, "power"): 1, (1, "singleton"): 3, (1, "product"): 1, (1, "pair"): 6, (1, "opair"): 9,
     (2, "power"): 1, (2, "singleton"): 3, (2, "product"): 1, (2, "pair"): 6, (2, "opair"): 9},
]


def _gated_builds():
    return _cap_builds() + [pin[:3] for pin in LEDGER_PINS]


def _member_cap_counts(frag):
    counts = {}
    r = 0
    for entry in frag.ledger:
        if entry.op == "round":
            r += 1
        elif entry.cutoff == "member-cap":
            assert (r, entry.op) not in counts and entry.args == ()
            counts[r, entry.op] = entry.count
    return counts


def _qset1_json(frag):
    """The fragment's document as qset/1 wrote it: each summary expanded
    back into the misses it counts, recomputed from qset.algebra."""
    _, _, expanded = _walk_past_the_cap(frag)
    ledger = [
        {"op": e.op, "args": [canonical_text(a) for a in e.args], "cutoff": e.cutoff}
        if e.cutoff == "member-cap" else e.to_dict()
        for e in expanded
    ]
    return json.dumps(dict(frag.to_dict(), schema="qset/1", ledger=ledger), indent=2)


@pytest.mark.parametrize("seeds, depth, caps, digest", LEDGER_PINS)
def test_fragment_documents_are_pinned(seeds, depth, caps, digest):
    frag = build_fragment(seeds, depth, caps)
    assert hashlib.sha256(_qset1_json(frag).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("case, digest", enumerate(QSET2_PINS))
def test_qset2_fragment_documents_are_pinned(case, digest):
    frag = build_fragment(*LEDGER_PINS[case][:3])
    assert hashlib.sha256(frag.to_json().encode("utf-8")).hexdigest() == digest


def test_qset2_builds_replay_to_their_elements():
    for seeds, depth, caps in _gated_builds():
        frag = build_fragment(seeds, depth, caps)
        assert replay_ledger(frag.ledger, caps) == frag.elements


def test_member_cap_counts_equal_the_qset1_cutoffs():
    counts = [_member_cap_counts(build_fragment(*b)) for b in _gated_builds()]
    assert counts == QSET1_MEMBER_CAP


# -- tampered cutoffs -------------------------------------------------------


def _tamper_with_summaries(how, ledger):
    """``ledger`` with one of its member-cap summaries changed by ``how``,
    or None where ``how`` does not apply."""
    ledger = list(ledger)
    summaries = [i for i, e in enumerate(ledger) if e.cutoff == "member-cap"]
    i = summaries[len(summaries) // 2]
    if how == "moved to the next round":
        last_round = max(j for j, e in enumerate(ledger) if e.op == "round")
        if summaries[0] > last_round:
            return None
        i = summaries[0]
    entry = ledger[i]
    if how == "count+1":
        ledger[i] = dataclasses.replace(entry, count=entry.count + 1)
    elif how == "count-1":
        i = next(i for i in summaries if ledger[i].count > 1)
        ledger[i] = dataclasses.replace(ledger[i], count=ledger[i].count - 1)
    elif how == "count 0":
        ledger[i] = dataclasses.replace(entry, count=0)
    elif how == "dropped":
        del ledger[i]
    elif how == "duplicated":
        ledger.insert(i, entry)
    elif how == "relabelled":
        # claims the misses of the next row in the table
        ops = [row.name for row in universe_module.CONSTRUCTORS]
        ledger[i] = dataclasses.replace(entry, op=ops[ops.index(entry.op) + 1])
    elif how == "moved to the next row":
        del ledger[i]
        j = next(j for j in range(i, len(ledger)) if ledger[j].op not in (entry.op, "round"))
        ledger.insert(j + 1, entry)
    elif how == "moved to the next round":
        del ledger[i]
        j = next(j for j in range(i, len(ledger)) if ledger[j].op == "round")
        k = next(k for k in range(j, len(ledger)) if ledger[k].op == entry.op)
        ledger.insert(k, entry)
    elif how == "added before the cap fills":
        first_round = next(j for j, e in enumerate(ledger) if e.op == "round")
        ledger.insert(first_round + 1, LedgerEntry(op="power", count=1, cutoff="member-cap"))
    elif how == "listed with args":
        ledger[i] = dataclasses.replace(entry, args=(QSet(),), count=1)
    return ledger


TAMPERS = [
    "count+1", "count-1", "count 0", "dropped", "duplicated", "relabelled",
    "moved to the next row", "moved to the next round", "added before the cap fills",
    "listed with args",
]


@pytest.mark.parametrize("how", TAMPERS)
def test_replay_rejects_tampered_member_cap_counts(how):
    # the deep-build shape fills its cap in round 3 of 3; {m_K^2} fills
    # it in round 2 of 3, so it has a whole round past the fill point
    tampered_any = False
    for seeds, depth, caps, _ in (LEDGER_PINS[1], LEDGER_PINS[4]):
        frag = build_fragment(seeds, depth, caps)
        tampered = _tamper_with_summaries(how, frag.ledger)
        if tampered is None:
            continue
        assert tampered != list(frag.ledger)
        with pytest.raises(ValueError):
            replay_ledger(tampered, caps)
        tampered_any = True
    assert tampered_any


def test_replay_rejects_a_summary_before_the_fill_point():
    # the row whose listed entry fills the cap: its summary must follow that entry
    caps = LEDGER_PINS[0][2]
    ledger = list(build_fragment(*LEDGER_PINS[0][:3]).ledger)
    members = set()
    for i, entry in enumerate(ledger):
        if entry.result is not None and entry.cutoff is None:
            members.add(entry.result)
            if len(members) == caps.max_members:
                break
    j = next(j for j in range(i, len(ledger)) if ledger[j].cutoff == "member-cap")
    assert ledger[j].op == ledger[i].op
    ledger.insert(i, ledger.pop(j))
    with pytest.raises(ValueError):
        replay_ledger(ledger, caps)


@pytest.mark.parametrize("recount", [0, -1])
def test_replay_rejects_a_miss_listed_as_built(recount):
    # a union past the fill point that is no member, listed with its true
    # result before the union summary, which keeps or drops its count
    seeds, depth, caps, _ = LEDGER_PINS[1]
    frag = build_fragment(seeds, depth, caps)
    _, _, expanded = _walk_past_the_cap(frag)
    miss = next(e for e in expanded if e.op == "union" and e.cutoff == "member-cap")
    ledger = list(frag.ledger)
    i = next(i for i, e in enumerate(ledger) if e.op == "union" and e.cutoff == "member-cap")
    ledger[i] = dataclasses.replace(ledger[i], count=ledger[i].count + recount)
    ledger.insert(i, LedgerEntry(op="union", args=miss.args, result=algebra.union(*miss.args)))
    with pytest.raises(ValueError):
        replay_ledger(ledger, caps)


@pytest.mark.parametrize("op, cutoff", [("power", "power-cap"), ("product", "product-cap")])
def test_replay_rejects_a_forged_cap_refusal(op, cutoff):
    seeds, depth, caps, _ = LEDGER_PINS[4]
    frag = build_fragment(seeds, depth, caps)
    ledger = list(frag.ledger)
    refused = [e for e in ledger if e.cutoff == cutoff]
    assert refused
    # an operand under the cap, recorded as refused
    i = next(i for i, e in enumerate(ledger) if e.op == op and e.cutoff is None)
    ledger[i] = LedgerEntry(op=op, args=ledger[i].args, cutoff=cutoff)
    with pytest.raises(ValueError):
        replay_ledger(ledger, caps)
    # a refusal the caps give, recorded as built
    ledger = list(frag.ledger)
    i = ledger.index(refused[0])
    ledger[i] = dataclasses.replace(refused[0], cutoff=None, result=QSet())
    with pytest.raises(ValueError):
        replay_ledger(ledger, caps)
    # a refusal recorded under the other cap's reason
    ledger = list(frag.ledger)
    other = "product-cap" if cutoff == "power-cap" else "power-cap"
    ledger[i] = dataclasses.replace(refused[0], cutoff=other)
    with pytest.raises(ValueError):
        replay_ledger(ledger, caps)
    assert replay_ledger(frag.ledger, caps) == frag.elements


# -- replay rebuilds the ledger ---------------------------------------------


def test_replay_rejects_a_listed_entry_on_a_non_member():
    # {zzz} is no member of round 1, so build never applies power to it
    frag = build_fragment([qs((K, 1))], depth=1)
    ledger = list(frag.ledger)
    stranger = QSet([CAtom("zzz")])
    i = max(i for i, e in enumerate(ledger) if e.op == "power") + 1
    ledger.insert(i, LedgerEntry(op="power", args=(stranger,), result=algebra.power(stranger)))
    with pytest.raises(ValueError, match="entry %d" % i):
        replay_ledger(ledger, frag.caps)


def test_replay_rejects_listed_args_out_of_sweep_order():
    # union commutes, so the swapped operands still give the recorded result
    frag = build_fragment([qs((K, 1)), qs(A1)], depth=1)
    ledger = list(frag.ledger)
    i = next(i for i, e in enumerate(ledger) if e.op == "union" and e.args[0] != e.args[1])
    ledger[i] = dataclasses.replace(ledger[i], args=ledger[i].args[::-1])
    with pytest.raises(ValueError, match="entry %d" % i):
        replay_ledger(ledger, frag.caps)


@pytest.mark.parametrize("op", ["power", "singleton", "pair", "opair"])
def test_replay_rejects_a_listed_entry_dropped_before_the_cap_fills(op):
    caps = LEDGER_PINS[0][2]
    frag = build_fragment(*LEDGER_PINS[0][:3])
    ledger = list(frag.ledger)
    i = next(i for i, e in enumerate(ledger) if e.op == op)
    members = {e.result for e in ledger[:i + 1] if e.result is not None and e.cutoff is None}
    assert len(members) < caps.max_members
    del ledger[i]
    with pytest.raises(ValueError, match="entry %d" % i):
        replay_ledger(ledger, caps)


def _reseed(how, ledger):
    seeds = [e for e in ledger if e.op == "seed"]
    rest = ledger[len(seeds):]
    if how == "reordered":
        return seeds[::-1] + rest
    if how == "split":
        return seeds[:1] + rest[:1] + seeds[1:] + rest[1:]
    if how == "one missing":
        return seeds[1:] + rest
    if how == "all missing":
        return rest
    if how == "without a result":
        return [dataclasses.replace(seeds[0], result=None)] + seeds[1:] + rest
    if how == "with count 0":
        return [dataclasses.replace(seeds[0], count=0)] + seeds[1:] + rest


@pytest.mark.parametrize("how", [
    "reordered", "split", "one missing", "all missing", "without a result", "with count 0",
])
def test_replay_rejects_seed_entries_build_does_not_write(how):
    frag = build_fragment([A1, qs((K, 1))], depth=1)
    ledger = _reseed(how, list(frag.ledger))
    assert ledger != list(frag.ledger)
    with pytest.raises(ValueError) as err:
        replay_ledger(ledger, frag.caps)
    assert type(err.value) is ValueError


def test_replay_does_not_call_build_fragment(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("replay called build_fragment")

    frag = build_fragment(*LEDGER_PINS[1][:3])
    monkeypatch.setattr(universe_module, "build_fragment", refuse)
    assert replay_ledger(frag.ledger, frag.caps) == frag.elements


def test_replay_stops_at_the_first_divergent_entry(monkeypatch):
    # the seed swapped for {zz} makes round 1's first power differ; the 20
    # extra rounds listed after it must never be grown
    rounds = []

    class CountingParts(universe_module.Parts):
        def __init__(self, universe):
            rounds.append(universe)
            super().__init__(universe)

    seeds, depth, caps, _ = LEDGER_PINS[2]
    ledger = list(build_fragment(seeds, depth, caps).ledger)
    assert ledger[0].op == "seed"
    ledger[0] = dataclasses.replace(ledger[0], result=QSet([CAtom("zz")]))
    ledger += [LedgerEntry(op="round", count=depth + r) for r in range(1, 21)]
    monkeypatch.setattr(universe_module, "Parts", CountingParts)
    with pytest.raises(ValueError, match="entry 2"):
        replay_ledger(ledger, caps)
    assert len(rounds) <= 1


def test_replay_builds_every_result_the_hit_map_lists(monkeypatch):
    # a union hit map that answers every operand tuple with the first
    # member it can: build trusts it past the fill point, replay applies
    # every tuple and reads no hit map, so it builds the unions and refuses
    def any_member(pool, universe, index):
        member = next(iter(index.by_classes.values()))
        return dict.fromkeys(itertools.combinations_with_replacement(pool, 2), member)

    rows = tuple(
        dataclasses.replace(row, hits=any_member) if row.name == "union" else row
        for row in universe_module.CONSTRUCTORS
    )
    monkeypatch.setattr(universe_module, "CONSTRUCTORS", rows)
    frag = build_fragment(*LEDGER_PINS[0][:3])
    with pytest.raises(ValueError):
        replay_ledger(frag.ledger, frag.caps)


def _dropping(hits, drop):
    def wrapped(pool, universe, index):
        return {at: m for at, m in hits(pool, universe, index).items() if not drop(at)}
    return wrapped


# hit maps that each drop one kind of true hit: build lists the dropped
# tuples as misses, and a replay that read the same hit map would agree
DROPPED_HITS = {
    "opair without (x, x)": ("opair", lambda at: at[0] == at[1]),
    "product without an empty operand": ("product", lambda at: not at[0] or not at[1]),
}


@pytest.mark.parametrize("mutant", sorted(DROPPED_HITS))
def test_replay_rejects_ledgers_written_from_hit_maps_that_drop_true_hits(mutant, monkeypatch):
    # the bad hit map stays in place while replay runs, as a bug in the
    # code would: replay must still refuse every ledger it changed
    op, drop = DROPPED_HITS[mutant]
    builds = _cap_builds()
    right = [build_fragment(*b).ledger for b in builds]
    rows = tuple(
        dataclasses.replace(row, hits=_dropping(row.hits, drop)) if row.name == op else row
        for row in universe_module.CONSTRUCTORS
    )
    monkeypatch.setattr(universe_module, "CONSTRUCTORS", rows)
    written = [build_fragment(*b) for b in builds]
    wrong = [frag for frag, ledger in zip(written, right) if frag.ledger != ledger]
    assert wrong, "the dropped hits never occur past a fill point"
    for frag in wrong:
        with pytest.raises(ValueError, match="diverged at entry"):
            replay_ledger(frag.ledger, frag.caps)


def test_replay_reads_no_hit_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("replay read a hit map")

    frags = [build_fragment(*b) for b in _cap_builds()]
    assert all(any(e.cutoff == "member-cap" for e in frag.ledger) for frag in frags)
    rows = tuple(dataclasses.replace(row, hits=refuse) for row in universe_module.CONSTRUCTORS)
    monkeypatch.setattr(universe_module, "CONSTRUCTORS", rows)
    monkeypatch.setattr(universe_module, "MemberIndex", refuse)
    for frag in frags:
        assert replay_ledger(frag.ledger, frag.caps) == frag.elements


# -- closure audit -------------------------------------------------------


# kind and atom names that are prefixes of each other, so texts are too: m_K of m_K1, A of A1
PREFIX_KINDS = [Kind(name) for name in ("K", "K1", "K_", "KA")]
PREFIX_ATOMS = [CAtom(name) for name in ("A", "A1", "Az", "A_")]
PREFIX_NAMED = QSet([
    (PREFIX_KINDS[0], 2), PREFIX_ATOMS[0], PREFIX_ATOMS[1], QSet(), PrimPair(PREFIX_KINDS[0], PREFIX_ATOMS[0]),
    qs((PREFIX_KINDS[1], 3), PREFIX_ATOMS[0]),
    qs(PrimPair(PREFIX_ATOMS[0], PREFIX_ATOMS[2]), (PrimPair(PREFIX_ATOMS[1], PREFIX_KINDS[0]), 2)),
    qs((PREFIX_KINDS[0], 1)), qs((PREFIX_KINDS[0], 2), PREFIX_ATOMS[3]),
])


# sha256 of fixed audit reports: sharing parts within an audit must leave
# every byte of the report as building each part per check did.  Every
# report has collapsed opairs <x, x>.  No report is free of theorem-1
# defects: pair(x, x) of a deepest member x is deeper than every member.
REPORT_PINS = [
    # the cond4 sweep stops at its 200-family budget
    ([A1, A2, A3, A4] + [qs((K, n)) for n in range(1, 5)] + [qs((J, 1))], 0, BuildCaps(),
     "900ac144ede97f20916c782ce49d3cb40e6695ba27cbc4880f5798b0f60650a9"),
    # power-cap and product-cap notes
    ([QSet([(K, 3)]), CAtom("a")], 2, BuildCaps(max_members=40, power_qcard=2, product_qcard=6),
     "07e36cc8c80810f8163df62f3ed12bb62a810d58c4971dde202f45f93e9424c1"),
    # both notes on a fragment whose member cap filled
    ([qs((K, 2))], 3, BuildCaps(max_members=24, power_qcard=3, product_qcard=20),
     "358ed9d9d5b3698bc8e64851e9f2c8950ae182cffa61a5c5dac8ac0e2dee7484"),
    # kinds counted above 1, so singletons and pairs with counts above 1
    (QSet([(K, 2), qs((K, 2)), (J, 3), A1, qs((K, 1), (J, 2))]), 0, BuildCaps(),
     "5533ac714bff5ac2ffd2565f2942433609cb9fe881674be85157763f0b23c375"),
    # no theorem-1 defects among the members a round was run on
    ([A1], 2, BuildCaps(max_members=4000),
     "f3d4d14119d9f9811bbdbc22d1cdb26f88946ff10ea7c074d9aa0c7848855173"),
    # one member: the only theorem-1 defects are its pair and collapsed opair
    ([A1], 0, BuildCaps(),
     "4b1c7ca007e78213a9d9a82d210be7de03786f6dfc65204a5351d968ab01c376"),
    # names that are prefixes of each other, under caps that refuse nothing here (so the defaults'
    # digest), caps that refuse a power and products, and the defaults
    (PREFIX_NAMED, 0, BuildCaps(power_qcard=4, product_qcard=40),
     "07b3b15709a59e25510d49e588dd15677e1572da61e8f16e00305971c75a6052"),
    (PREFIX_NAMED, 0, BuildCaps(power_qcard=3, product_qcard=8),
     "e81d337d6607833ccf77d6f0d8e8bb16e32ad8cc37cba302ab85a3c3c7791b2f"),
    (PREFIX_NAMED, 0, BuildCaps(),
     "07b3b15709a59e25510d49e588dd15677e1572da61e8f16e00305971c75a6052"),
]


@pytest.mark.parametrize("seeds, depth, caps, digest", REPORT_PINS)
def test_audit_reports_are_pinned(seeds, depth, caps, digest):
    frag = build_fragment(seeds, depth, caps)
    report = check_qED(frag, caps=frag.caps)
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == digest


def test_audit_builds_no_result(monkeypatch):
    # every check is decided from texts: no constructor, primitive pair,
    # Parts value or sealed quasi-set comes out of the audit, powers
    # included, and each union text (per set of entry positions, shared by
    # cond4 and theorem 1) and each member's sorted product classes are made once
    calls, unions, operands = [], [], []

    def refused(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def recording(log, fn):
        def wrapped(*args):
            log.append(args[-1])
            return fn(*args)
        return wrapped

    frag = build_fragment([qs((K, 1)), qs((J, 2)), A1, A2], 1)
    table = universe_module._TextTable
    for name in ("power", "singleton_in", "pair_in", "opair_in", "opair_from", "union", "product", "family_union"):
        monkeypatch.setattr(algebra, name, refused(name, getattr(algebra, name)))
    monkeypatch.setattr(PrimPair, "__init__", refused("PrimPair", PrimPair.__init__))
    for name in ("singleton", "pair", "opair", "prim_pair"):
        method = getattr(universe_module.Parts, name)
        monkeypatch.setattr(universe_module.Parts, name, refused("Parts." + name, method))
    monkeypatch.setattr(QSet, "_seal", refused("QSet._seal", QSet._seal))
    monkeypatch.setattr(table, "_union", recording(unions, table._union))
    monkeypatch.setattr(table, "_operand", recording(operands, table._operand))
    report = check_qED(frag, caps=frag.caps, max_families=1000)
    monkeypatch.undo()
    assert calls == []
    assert report.cond1 and report.theorem1 and report.cond3 and report.totals["cond4_checked"] > 0
    assert unions and len(unions) == len(set(unions))
    # a two-entry family's union is a theorem-1 union too, and the memo makes it once for both
    ordered = [d for d, _ in frag.elements.classes()]
    at = [i for i, d in enumerate(ordered) if isinstance(d, QSet)]
    families = itertools.islice(universe_module._families(ordered, at, 3), 1000)
    shared = {frozenset(entries) for _, entries in families if len(set(entries)) == 2}
    assert shared and shared <= set(unions)
    # products share member classes as operands, and each member's sorted classes are made once
    qsets = [ordered[i] for i in at]
    assert report.totals["cond3_checked"] == len(qsets) ** 2 > len(qsets)
    assert 0 < len(operands) == len(set(operands)) <= len(qsets)


def _prefix_named_universes():
    yield PREFIX_NAMED
    gen = StructureGen(25, kinds=PREFIX_KINDS, catoms=PREFIX_ATOMS)
    for _ in range(100):
        caps = BuildCaps(max_members=gen.rng.randint(4, 12), power_qcard=gen.rng.randint(1, 6),
                         product_qcard=gen.rng.randint(1, 60))
        yield gen.fragment(max_seeds=4, max_depth=2, caps=caps).elements


# each rule of the audit's text table, on member positions
TEXT_RULES = {
    "power": lambda table, at: table.power(*at),
    "singleton": lambda table, at: table.singleton(*at),
    "product": lambda table, at: table.product(*at),
    "family_union": lambda table, at: table.union(frozenset(at[len(at) // 2:])),
    "union": lambda table, at: table.union(frozenset(at)),
    "pair": lambda table, at: table.pair(*at),
    "opair": lambda table, at: table.opair(*at),
}


def test_text_table_is_the_text_of_apply():
    # for every check of all five sections, union(x, x) included, the
    # audit's text table writes the text of the value apply builds
    caps = BuildCaps(power_qcard=4, product_qcard=40)
    rows = {row.name: row for row in universe_module.CONSTRUCTORS + (universe_module.FAMILY_UNION,)}
    seen = set()
    for universe in _prefix_named_universes():
        table, parts = universe_module._TextTable(universe), universe_module.Parts(universe)
        ordered = table.ordered
        members = range(len(ordered))
        at = [i for i in members if isinstance(ordered[i], QSet)]
        checks = [("power", (i,)) for i in at] + [("singleton", (i,)) for i in members]
        checks += [("product", (i, j)) for i in at for j in at]
        checks += [("family_union", index + entries)
                   for index, entries in itertools.islice(universe_module._families(ordered, at, 3), 200)]
        checks += [("union", (i, j)) for i in at for j in at if i <= j]
        checks += [(name, (i, j)) for i in members for j in members for name in ("pair", "opair") if i <= j or name == "opair"]
        for name, positions in checks:
            row, args = rows[name], tuple(ordered[i] for i in positions)
            if row.cap(args, caps) is not None:
                continue
            assert TEXT_RULES[name](table, positions) == row.apply(args, parts, caps).text, (name, args)
            if len(args) == 2 and args[0] == args[1]:
                seen.add("x == y")
            if any(isinstance(a, PrimPair) for a in args):
                seen.add("pair member")
            if {type(a) for a in args} == {Kind, CAtom}:
                seen.add("kind with atom")
            if any(isinstance(a, QSet) and not a for a in args):
                seen.add("empty operand")
            if any(universe.count(a) > 1 or isinstance(a, QSet) and a.qcard > a.distinct_classes() for a in args):
                seen.add("count above 1")
                if name == "power":
                    seen.add("power of a member with a count above 1")
            if name == "product":
                pairs = [(a.text, b.text) for a, _ in args[0].classes() for b, _ in args[1].classes()]
                if sorted(pairs) != sorted(pairs, key="<%s, %s>".__mod__):
                    seen.add("prefix order")
            if name == "family_union" and len(args) > 4:
                seen.add("three entries")
    assert seen == {"x == y", "pair member", "kind with atom", "empty operand", "count above 1",
                    "power of a member with a count above 1", "prefix order", "three entries"}


def test_audit_rejects_empty_universe():
    with pytest.raises(EmptyUniverse):
        check_qED(QSet())


def test_smallest_universe_has_a_power_defect():
    u = QSet([QSet()])
    report = check_qED(u)
    assert len(report.cond1) >= 1
    defect = report.cond1[0]
    assert defect.operation == "power"
    assert defect.missing == QSet([QSet()]).text


def test_padding_cures_the_atom_singleton_defect():
    # With u = {m_K} the class-singleton of the atom, {m_K} itself, is
    # missing.  Adding it as a member cures that defect; the singleton
    # of the added member then escapes instead.  No finite universe
    # closes condition 2: the deepest member's singleton always has
    # greater depth than every member, so the defect merely climbs.
    u = qs((K, 1))
    before = check_qED(u)
    assert any(d.witnesses == (K,) for d in before.cond2)

    padded = QSet([(K, 1), qs((K, 1))])
    after = check_qED(padded)
    assert not any(d.witnesses == (K,) for d in after.cond2)
    assert len(after.cond2) == 1
    assert after.cond2[0].witnesses == (qs((K, 1)),)


def test_every_random_fragment_has_a_power_defect():
    for frag in _random_fragments(10, seed=3):
        report = check_qED(frag, caps=frag.caps)
        assert len(report.cond1) >= 1


def test_family_union_defect_is_found():
    u = QSet([A1, A2, qs((K, 1)), qs((J, 1))])
    report = check_qED(u)
    assert any(d.operation == "family_union" for d in report.cond4)


def test_family_sweep_truncates_at_the_budget():
    u = QSet(
        [A1, A2, A3, A4]
        + [qs((K, n)) for n in range(1, 5)]
        + [qs((J, 1))]
    )
    report = check_qED(u, max_families=200)
    assert report.totals["cond4_checked"] == 200
    assert report.totals["cond4_truncated"] is True


def _audited_fragment():
    frag = build_fragment([qs((K, 1)), A1], depth=1)
    report = check_qED(frag, caps=frag.caps)
    position = {d: i for i, (d, _) in enumerate(frag.elements.classes())}
    return report, position


@pytest.mark.parametrize("section", universe_module.SECTIONS)
def test_defects_follow_witness_positions(section):
    # by witness count (a cond4 family's index size), then witness
    # positions, then table order among the rows of one tuple
    report, position = _audited_fragment()
    rows = [row for row in universe_module.CONSTRUCTORS + (universe_module.FAMILY_UNION,) if row.section == section]
    ops = [row.name for row in rows]
    defects = getattr(report, section)
    assert len(defects) > 1 and {d.operation for d in defects} == set(ops)
    keys = [(len(d.witnesses), *(position[w] for w in d.witnesses), ops.index(d.operation)) for d in defects]
    assert keys == sorted(set(keys))
    for d in defects:
        if rows[ops.index(d.operation)].collections:
            assert all(isinstance(w, QSet) for w in d.witnesses)


def _closed_form_totals(elements, family_index_bound=3, max_families=200):
    members = [d for d, _ in elements.classes()]
    n = len(members)
    q = sum(isinstance(d, QSet) for d in members)
    c = sum(d.is_classical for d in members)
    families = sum(math.comb(c, size) * q ** size for size in range(1, family_index_bound + 1))
    return {
        "members": n,
        "cond1_checked": q,
        "cond2_checked": n,
        "cond3_checked": q * q,
        "cond4_checked": min(max_families, families),
        "cond4_truncated": families > max_families,
        "theorem1_checked": q * (q + 1) // 2 + n * (n + 1) // 2 + n * n,
    }


def test_audit_totals_have_closed_forms():
    # n members, q of them quasi-sets, c classical: power per quasi-set,
    # singleton per member, product per ordered quasi-set pair; theorem-1
    # is union per unordered quasi-set pair, pair per unordered member
    # pair and opair per ordered one; cond4 is sum C(c, k) q^k families
    # of index size k up to the bound, cut at max_families
    audits = [(build_fragment(seeds, depth, caps), 3, 200) for seeds, depth, caps, _ in REPORT_PINS]
    gen = StructureGen(12)
    for _ in range(30):
        frag = gen.fragment(max_seeds=4, max_depth=2, caps=BuildCaps(max_members=gen.rng.randint(4, 24)))
        audits.append((frag, gen.rng.randint(0, 3), gen.rng.randint(0, 80)))
    truncated = 0
    for frag, bound, max_families in audits:
        report = check_qED(frag, caps=frag.caps, family_index_bound=bound, max_families=max_families)
        expected = _closed_form_totals(frag.elements, bound, max_families)
        assert list(report.totals.items()) == list(expected.items())
        truncated += expected["cond4_truncated"]
    assert 0 < truncated < len(audits)


def _as_forms(defect):
    missing = defect.note if defect.missing is None else defect.missing
    return defect.operation, tuple(map(onf_value, defect.witnesses)), missing


def _oracle_texts(defects):
    # a missing result as its text, rendered from the oracle's form; a cap note as it is
    return [(op, witnesses, r if isinstance(r, str) else onf_text(r)) for op, witnesses, r in defects]


def test_audits_match_the_oracle_on_random_fragments():
    # every section's defects, recomputed on normal forms by
    # tests/oracles.py, which shares no code with qset.universe or
    # qset.algebra; small caps keep the labeled enumerations short
    gen = StructureGen(8)
    audits = [
        (QSet([A1]), BuildCaps(), 3, 200),
        (QSet([QSet()]), BuildCaps(), 3, 200),
        (QSet([(K, 2), qs((K, 2)), (J, 3), A1, qs((K, 1), (J, 2))]), BuildCaps(power_qcard=3, product_qcard=8), 2, 50),
    ]
    while len(audits) < 150:
        caps = BuildCaps(max_members=gen.rng.randint(4, 14), power_qcard=gen.rng.randint(1, 6),
                         product_qcard=gen.rng.randint(1, 40))
        frag = gen.fragment(max_seeds=4, max_depth=2, caps=caps)
        audits.append((frag.elements, caps, gen.rng.randint(0, 3), gen.rng.randint(0, 60)))
    # texts of names that are prefixes of each other
    audits += [(elements, BuildCaps(power_qcard=4, product_qcard=40), 3, 200)
               for elements in itertools.islice(_prefix_named_universes(), 21)]
    seen = set()
    for elements, caps, bound, max_families in audits:
        report = check_qED(elements, caps=caps, family_index_bound=bound, max_families=max_families)
        expected = audit_oracle(elements, caps, bound, max_families)
        for section in universe_module.SECTIONS:
            got = [_as_forms(d) for d in getattr(report, section)]
            assert Counter(got) == Counter(_oracle_texts(expected[section])), section
            seen.update((section, d.note) for d in getattr(report, section) if d.note)
        if report.totals["cond4_truncated"]:
            seen.add("truncated")
        if report.cond4:
            seen.add("cond4")
        if any(isinstance(d, Kind) and n > 1 for d, n in elements.classes()):
            seen.add("kind counted above 1")
        if elements.distinct_classes() == 1:
            seen.add("one member")
    assert seen >= {("cond1", "power-cap"), ("cond3", "product-cap"), "truncated", "cond4",
                    "kind counted above 1", "one member"}


def test_theorem1_defects_require_primitive_defects():
    caps = BuildCaps(max_members=24, power_qcard=10)
    for frag in _random_fragments(10, seed=4, caps=caps):
        report = check_qED(frag, caps=frag.caps)
        if report.theorem1:
            assert report.cond1 or report.cond2 or report.cond3


def test_processed_members_have_no_theorem1_defects():
    # constructive reading: every pair that had a constructor round run
    # on it has its union/pair/opair present, unless a cap interfered
    roomy = BuildCaps(max_members=4000)
    frags = [
        build_fragment([qs((K, 1))], depth=2, caps=roomy),
        build_fragment([k(1), A1], depth=2, caps=roomy),
    ]
    gen = StructureGen(seed=6)
    frags += [gen.fragment(max_seeds=2, max_depth=1, caps=roomy) for _ in range(8)]
    checked_any = False
    for frag in frags:
        if any(e.cutoff is not None for e in frag.ledger):
            continue
        processed = frag.processed_members()
        if not processed:
            continue
        report = check_qED(frag, caps=frag.caps)
        for defect in report.theorem1:
            x, y = defect.witnesses
            assert not (x in processed and y in processed), defect.to_dict()
        checked_any = True
    assert checked_any


# -- classification ------------------------------------------------------


def test_members_classify_as_qsets():
    frag = build_fragment([k(1), A1], depth=1)
    some_qset = next(d for d, _ in frag.elements.classes() if isinstance(d, QSet))
    assert classify(some_qset, frag) is Classification.U_QSET


def test_the_universe_is_a_proper_qclass_of_itself():
    frag = build_fragment([k(1), A1], depth=1)
    assert classify(frag.elements, frag) is Classification.U_PROPER_QCLASS


def test_foreign_content_is_neither():
    u = qs((K, 2), A1)
    assert classify(qs((J, 1)), u) is Classification.NEITHER


def test_subclass_counting_is_count_sensitive():
    u = qs((K, 2))
    assert classify(qs((K, 1)), u) is Classification.U_PROPER_QCLASS
    assert classify(qs((K, 3)), u) is Classification.NEITHER


# -- small/large categories ------------------------------------------------


def _tiny_presentation():
    a = qs((K, 1))
    objects = QSet([a])
    morphisms = QSet([encode_quasi_function(identity(a))])
    return objects, morphisms


def test_membered_presentation_is_small():
    objects, morphisms = _tiny_presentation()
    u = QSet([objects, morphisms, qs((K, 1))])
    assert is_small_category(CategoryPresentation(objects, morphisms), u)


def test_objects_equal_to_the_universe_make_it_large():
    # the whole fragment is a legal object collection (it contains the
    # morphism endpoints) yet it is never a member of itself
    objects, morphisms = _tiny_presentation()
    u = QSet([objects, morphisms, qs((K, 1))])
    assert not is_small_category(CategoryPresentation(u, morphisms), u)


def test_morphisms_outside_the_universe_make_it_large():
    objects, morphisms = _tiny_presentation()
    u = QSet([objects, qs((K, 1))])  # morphism qset not a member
    assert not is_small_category(CategoryPresentation(objects, morphisms), u)


# -- serialization ----------------------------------------------------------


def test_fragment_json_shape():
    frag = build_fragment([k(1)], depth=1)
    doc = json.loads(frag.to_json())
    assert list(doc) == ["schema", "elements", "rank", "depth", "ledger"]
    assert doc["schema"] == "qset/2"
    assert doc["depth"] == 1
    # a member-cap summary is a count, with no args
    frag = build_fragment(*LEDGER_PINS[0][:3])
    summaries = [e for e in json.loads(frag.to_json())["ledger"] if e.get("cutoff") == "member-cap"]
    assert summaries
    for entry in summaries:
        assert list(entry) == ["op", "cutoff", "count"] and entry["count"] >= 1


def test_report_json_shape():
    report = check_qED(QSet([QSet()]))
    doc = json.loads(report.to_json())
    assert list(doc) == ["schema", "elements", "defects", "totals"]
    assert list(doc["defects"]) == ["cond1", "cond2", "cond3", "cond4", "theorem1"]
    for defect in doc["defects"]["cond1"]:
        assert {"condition", "operation", "witnesses", "missing"} <= set(defect)
