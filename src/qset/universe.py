"""Bounded universe fragments and closure audits.

A universe closed under the constructor algebra is infinite, so this
module works with finite fragments: start from seed elements and apply
the constructors for a fixed number of rounds, under explicit caps.
Every step lands in a ledger, and every place a cap bit is recorded as
a cutoff rather than silently dropped: a power or product cap refusal
as one entry, the member cap's misses as one count per round and
constructor.  Replay grows the seeds again with the same round sweep,
applies every operand tuple and reads no hit map, so a hit-map bug
cannot certify itself; a ledger that replays, entry for entry as build
writes it, reproduces the fragment's exact element multiset.

``check_qED`` audits how far a fragment is from being closed: for each
closure condition it records the member combinations whose required
result is missing, from one loop per section over member positions in
report order.  A result is decided and reported by its canonical text
alone, written from those positions, so the audit builds no value,
powers included.  A finite fragment is always defective somewhere (the
power of a deepest element cannot be inside), which is the point: the
audit measures the shape of the failure, it does not pretend closure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from . import _json, algebra
from .errors import CapExceeded, EmptyUniverse
from .kernel import (
    AtomRef,
    ElementDesc,
    PrimPair,
    QSet,
    canonicalize,
)
from .morphism import CategoryPresentation

__all__ = [
    "BuildCaps",
    "Constructor",
    "CONSTRUCTORS",
    "MemberIndex",
    "Parts",
    "SECTIONS",
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
]


@dataclass(frozen=True)
class BuildCaps:
    power_qcard: int = algebra.POWER_QCARD_CAP
    product_qcard: int = algebra.PRODUCT_QCARD_CAP
    max_members: int = 128


@dataclass(frozen=True)
class Constructor:
    """One constructor of the algebra, as build, replay, audit and the
    script language all use it.

    ``name`` is the ledger op, ``section`` the audit section that checks
    it.  Operands are ``arity`` members: quasi-sets only if
    ``collections``, y never before x if ``unordered``.  A ``relative``
    constructor also reads the universe, through the ``Parts`` that
    ``apply`` takes.  ``cap`` returns the cutoff reason when the caps
    refuse the operands, else None; it reads only the operands' qcards.
    ``apply`` is the one definition of the constructor; the audit writes
    the text of its result from the members' positions, without it.
    ``hits(pool, universe, index)`` maps every operand tuple of the
    row's sweep over ``pool`` whose result is a member of a
    ``MemberIndex`` to that member, and builds no value on the way.
    ``FAMILY_UNION``, the audit's cond4 row, takes a family: index
    members, then one entry each; its union reads only the entries.
    """

    name: str
    section: str
    arity: int
    collections: bool
    unordered: bool
    relative: bool
    cap: Callable[[tuple, BuildCaps], str | None]
    apply: Callable[[tuple, "Parts | None", BuildCaps], QSet]
    hits: Callable[[list, QSet, "MemberIndex"], dict[tuple, QSet]]

    def pool(self, members: list) -> list:
        """The members an operand may be, in ``members``' order."""
        return [m for m in members if isinstance(m, QSet)] if self.collections else members

    def operands(self, members: list):
        """Every operand tuple drawn from ``members``, first operand outermost."""
        pool = self.pool(members)
        if self.unordered:
            return itertools.combinations_with_replacement(pool, self.arity)
        return itertools.product(pool, repeat=self.arity)


def _uncapped(args, caps):
    return None


class Parts:
    """A universe and the constructor parts built against it so far.

    The relative constructors are made of class singletons and pairs.
    A caller that applies many constructors to one fixed universe (a
    build or replay round, a script's call) keeps one ``Parts`` and
    builds each part once; the parts go when it does.  ``Parts`` holds
    values only; the audit builds none.  Every part depends only on its
    key and the universe, and values are immutable, so a shared part is
    exactly the value a fresh call would give.
    """

    __slots__ = ("universe", "_singletons", "_pairs")

    def __init__(self, universe: QSet):
        self.universe = universe
        self._singletons: dict = {}
        self._pairs: dict[frozenset, QSet] = {}

    def singleton(self, x) -> QSet:
        # exact: singleton_in(x, u) reads only x and u's count of it
        s = self._singletons.get(x)
        if s is None:
            s = self._singletons[x] = algebra.singleton_in(x, self.universe)
        return s

    def pair(self, x, y) -> QSet:
        # exact: pair_in(x, y, u) is the union of the two singletons, and union commutes, so {x, y} keys it
        key = frozenset((x, y))
        p = self._pairs.get(key)
        if p is None:
            p = self._pairs[key] = algebra.union(self.singleton(x), self.singleton(y))
        return p

    def opair(self, x, y) -> QSet:
        # exact: opair_in(x, y, u) is opair_from of x's singleton and the pair of x and y
        return algebra.opair_from(self.singleton(x), self.pair(x, y))


class MemberIndex:
    """The quasi-set members of a full fragment, keyed for ``hits``.

    ``by_classes`` keys each member by the frozenset of its
    ``(descriptor, count)`` classes; two quasi-sets are equal exactly
    when those sets are.  ``classwise`` maps each member's descriptors
    to their counts and a bit each, and ``by_class`` lists the members
    that hold each descriptor.  ``by_product`` lists each member that is
    a product of nonempty quasi-sets: the gcd g of its counts, and its
    two factors' classes with counts that any gx * gy == g scales back.
    """

    __slots__ = ("by_classes", "classwise", "by_class", "by_product")

    def __init__(self, members: Iterable[ElementDesc]):
        self.by_classes: dict[frozenset, QSet] = {}
        self.classwise: dict[QSet, dict[ElementDesc, tuple[int, int]]] = {}
        self.by_class: dict[ElementDesc, list[QSet]] = {}
        self.by_product: list[tuple[list, list, int, QSet]] = []
        for m in members:
            if not isinstance(m, QSet):
                continue
            classes = list(m.classes())
            self.by_classes[frozenset(classes)] = m
            counts = self.classwise[m] = {}
            for i, (d, n) in enumerate(classes):
                counts[d] = (n, 1 << i)
                self.by_class.setdefault(d, []).append(m)
            # pairs order last, so m holds only pairs when its first class is one; product(x, y)
            # counts <a, b> x.count(a) * y.count(b), so its rows' gcds are x's counts times g / gx
            if classes and isinstance(classes[0][0], PrimPair):
                rows: dict = {}
                cols: dict = {}
                for p, n in classes:
                    rows[p.first] = math.gcd(rows.get(p.first, 0), n)
                    cols[p.second] = math.gcd(cols.get(p.second, 0), n)
                g = math.gcd(*rows.values())
                if len(classes) == len(rows) * len(cols) and all(
                    n * g == rows[p.first] * cols[p.second] for p, n in classes
                ):
                    xs = [(a, n // g) for a, n in rows.items()]
                    ys = [(b, n // g) for b, n in cols.items()]
                    self.by_product.append((xs, ys, g, m))


def _hits_power(pool, universe, index):
    # exact: power(x) holds x once, and prod(n + 1) distinct classes, each a pick from x counted
    # prod C(n, k), are all of it
    hits = {}
    for x in pool:
        picks = math.prod(n + 1 for _, n in x.classes())
        for m in index.by_class.get(x, ()):
            if m.distinct_classes() == picks and all(
                isinstance(sub, QSet) and n == math.prod(math.comb(x.count(d), k) for d, k in sub.classes())
                for sub, n in m.classes()
            ):
                hits[(x,)] = m
                break
    return hits


def _hits_singleton(pool, universe, index):
    # exact: singleton_in(x, u) is the one class (x, u.count(x))
    hits = {}
    for x in pool:
        m = index.by_classes.get(frozenset(((x, universe.count(x)),)))
        if m is not None:
            hits[(x,)] = m
    return hits


def _hits_union(pool, universe, index):
    # exact: union is the classwise maximum of counts, so union(x, y) is m exactly when x and y
    # lie classwise under m and each class of m is at its full count in x or in y
    under: dict[QSet, dict[int, list[int]]] = {}  # m -> {mask of m's classes at full count: x's positions}
    for i, x in enumerate(pool):
        # the members above x hold every class of x, its first among them; {} lies under every member
        classes = list(x.classes())
        for m in index.by_class.get(classes[0][0], ()) if classes else index.classwise:
            counts = index.classwise[m]
            mask = 0
            for d, n in classes:
                nb = counts.get(d)
                if nb is None or nb[0] < n:
                    break
                if nb[0] == n:
                    mask |= nb[1]
            else:
                under.setdefault(m, {}).setdefault(mask, []).append(i)
    hits = {}
    for m, groups in under.items():
        full = (1 << m.distinct_classes()) - 1
        for a, b in itertools.combinations_with_replacement(sorted(groups), 2):
            if a | b == full:  # a == b only for m itself
                for i in groups[a]:
                    for j in groups[b]:
                        hits[(pool[i], pool[j]) if i <= j else (pool[j], pool[i])] = m
    return hits


def _hits_product(pool, universe, index):
    # exact: product(x, y) is {} when x or y is, else the full rectangle of pairs <a, b>, each counted
    # x.count(a) * y.count(b): m when x and y are m's two factors, scaled by numbers whose product is m's gcd
    hits = {}
    for x in pool:
        if not x:
            for y in pool:
                hits[x, y] = hits[y, x] = x
    for xs, ys, g, m in index.by_product:
        for gx in range(1, g + 1):
            if g % gx:
                continue
            x = index.by_classes.get(frozenset([(a, n * gx) for a, n in xs]))
            y = index.by_classes.get(frozenset([(b, n * (g // gx)) for b, n in ys]))
            if x is not None and y is not None and universe.count(x) and universe.count(y):
                hits[x, y] = m
    return hits


def _hits_pair(pool, universe, index):
    # exact: pair_in is the classes (x, u.count(x)) and (y, u.count(y)), one class when x == y
    hits = {}
    for classes, m in index.by_classes.items():
        if 0 < len(classes) <= 2:
            for d, n in classes:
                if universe.count(d) != n:
                    break
            else:
                ds = [d for d, _ in m.classes()]
                hits[ds[0], ds[-1]] = m
    return hits


def _hits_opair(pool, universe, index):
    # exact: opair_in is {s, p} once each, s = {x^u.count(x)} and p = pair_in(x, y); {s} when x == y
    hits = {}
    for classes, m in index.by_classes.items():
        if not 0 < len(classes) <= 2 or m.qcard != len(classes):
            continue
        single = [d for d, _ in classes if isinstance(d, QSet) and d.distinct_classes() == 1]
        pair = [d for d, _ in classes if isinstance(d, QSet) and d.distinct_classes() == len(classes)]
        if len(single) == len(pair) == 1:
            ((x, n),) = single[0].classes()
            if universe.count(x) == n == pair[0].count(x):
                ((y, ny),) = [c for c in pair[0].classes() if c[0] != x] or [(x, n)]
                if universe.count(y) == ny:
                    hits[x, y] = m
    return hits


# Table order is build order.  Rows look algebra's functions up at call
# time, so a wrapper installed on the module sees every call.
CONSTRUCTORS = (
    Constructor("power", "cond1", 1, True, False, False,
                lambda a, caps: "power-cap" if a[0].qcard > caps.power_qcard else None,
                lambda a, parts, caps: algebra.power(*a, cap=caps.power_qcard),
                _hits_power),
    Constructor("singleton", "cond2", 1, False, False, True, _uncapped,
                lambda a, parts, caps: parts.singleton(*a),
                _hits_singleton),
    Constructor("union", "theorem1", 2, True, True, False, _uncapped,
                lambda a, parts, caps: algebra.union(*a),
                _hits_union),
    Constructor("product", "cond3", 2, True, False, False,
                lambda a, caps: "product-cap" if a[0].qcard * a[1].qcard > caps.product_qcard else None,
                lambda a, parts, caps: algebra.product(*a, cap=caps.product_qcard),
                _hits_product),
    Constructor("pair", "theorem1", 2, False, True, True, _uncapped,
                lambda a, parts, caps: parts.pair(*a),
                _hits_pair),
    Constructor("opair", "theorem1", 2, False, False, True, _uncapped,
                lambda a, parts, caps: parts.opair(*a),
                _hits_opair),
)

FAMILY_UNION = Constructor("family_union", "cond4", 0, False, False, False, _uncapped,
                           lambda a, parts, caps: algebra.family_union(a[len(a) // 2:]), None)

# Audit sections in report order; each holds the rows whose ``section`` it is.
SECTIONS = ("cond1", "cond2", "cond3", "cond4", "theorem1")

MEMBER_CAP = "member-cap"


@dataclass(frozen=True)
class LedgerEntry:
    """One construction event.

    op is "seed", "round", or a constructor name.  For "round" the
    count field holds the round number; for "seed" it holds the seeded
    multiplicity.  A cutoff entry records why a result was not added.
    The caps' ``power-cap`` and ``product-cap`` refusals are listed one
    by one with their args; they are few, and each names the operands
    that were too large.  The ``member-cap`` misses of one constructor
    in one round are a single summary entry, with no args and the number
    of misses in count, after that constructor's listed entries.
    """

    op: str
    args: tuple = ()
    result: ElementDesc | None = None
    count: int = 1
    cutoff: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"op": self.op}
        if self.op == "round":
            d["round"] = self.count
            return d
        if self.cutoff == MEMBER_CAP:
            d["cutoff"] = self.cutoff
            d["count"] = self.count
            return d
        if self.args:
            d["args"] = [a.text for a in self.args]
        if self.result is not None:
            d["result"] = self.result.text
        if self.op == "seed":
            d["count"] = self.count
        if self.cutoff is not None:
            d["cutoff"] = self.cutoff
        return d


@dataclass(frozen=True)
class Fragment:
    """A finite piece of universe: an element multiset plus provenance.

    ``ledger`` replays to exactly ``elements``.
    """

    elements: QSet
    ledger: tuple[LedgerEntry, ...]
    caps: BuildCaps
    depth: int

    @property
    def rank(self) -> dict[ElementDesc, int]:
        """Each member's hereditary nesting depth, above that of its members."""
        return {d: d.depth for d, _ in self.elements.classes()}

    def processed_members(self) -> set[ElementDesc]:
        """Members that had a constructor round applied to them.

        These are the members present before the final round started;
        everything the last round added never had the constructors run
        on it, which is where closure defects concentrate.
        """
        if self.depth == 0:
            return set()
        members: set[ElementDesc] = set()
        rounds_seen = 0
        for entry in self.ledger:
            if entry.op == "round":
                rounds_seen += 1
                if rounds_seen == self.depth:
                    break
            elif entry.result is not None and entry.cutoff is None:
                members.add(entry.result)
        return members

    def _elements_and_rank(self) -> tuple[list, dict]:
        elements, rank = [], {}
        for d, n in self.elements.classes():
            elements.append([d.text, n])
            rank[d.text] = d.depth
        return elements, rank

    def to_dict(self) -> dict:
        elements, rank = self._elements_and_rank()
        return {
            "schema": "qset/2",
            "elements": elements,
            "rank": rank,
            "depth": self.depth,
            "ledger": [e.to_dict() for e in self.ledger],
        }

    def to_json(self) -> str:
        return _json.dumps(self)

    def _write_json(self, newline: str, out: list[str]) -> None:
        # to_dict()'s bytes at this indent with no ledger dicts built: each entry is one of
        # LedgerEntry.to_dict's three shapes, and its args and result are members, so each of
        # their texts is encoded once per fragment
        keys, entries = newline + "  ", newline + "    "
        field, arg = entries + "  ", entries + "    "
        next_field, next_arg = "," + field, "," + arg
        elements, rank = self._elements_and_rank()
        out.append("{" + keys + '"schema": "qset/2",' + keys + '"elements": ')
        _json._write(elements, keys, out)
        out.append("," + keys + '"rank": ')
        _json._write(rank, keys, out)
        out.append("," + keys + '"depth": %d,' % self.depth + keys + '"ledger": ')
        enc = _json.Encodings()
        objs = []
        for e in self.ledger:
            if e.op == "round":
                objs.append(f'{{{field}"op": "round",{field}"round": {e.count:d}{entries}}}')
            elif e.cutoff == MEMBER_CAP:
                objs.append(f'{{{field}"op": {enc[e.op]},{field}"cutoff": "member-cap",'
                            f'{field}"count": {e.count:d}{entries}}}')
            else:
                parts = ['"op": ' + enc[e.op]]
                if e.args:
                    parts.append(f'"args": [{arg}{next_arg.join([enc[x.text] for x in e.args])}{field}]')
                if e.result is not None:
                    parts.append('"result": ' + enc[e.result.text])
                if e.op == "seed":
                    parts.append('"count": %d' % e.count)
                if e.cutoff is not None:
                    parts.append('"cutoff": ' + enc[e.cutoff])
                objs.append(f"{{{field}{next_field.join(parts)}{entries}}}")
        if objs:
            out.extend(("[" + entries, ("," + entries).join(objs), keys + "]"))
        else:
            out.append("[]")
        out.append(newline + "}")


def build_fragment(
    seeds: Union[QSet, Sequence[Union[QSet, AtomRef]]],
    depth: int = 1,
    caps: BuildCaps = BuildCaps(),
) -> Fragment:
    """Grow a fragment from seeds for ``depth`` constructor rounds.

    Each round applies power, class-singleton, unordered pair, ordered
    pair, product, and union to every member (and member pair) of the
    fragment as it stood when the round began, in canonical order, so
    the result is a deterministic function of the inputs.  Results the
    caps refuse become cutoff entries in the ledger.

    Once the member cap is full the members are final, so results past
    it are not computed: each row's ``hits`` works back from the members
    to the operand tuples whose result is one, and those are listed as
    duplicates.  Every other tuple is a miss, never visited.  A row's
    misses in one round are not listed: one ``member-cap`` summary entry
    after the row's listed entries of the round counts them.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base = seeds if isinstance(seeds, QSet) else canonicalize(list(seeds))
    if base.qcard == 0:
        raise EmptyUniverse("a universe fragment needs at least one seed element")
    if base.distinct_classes() > caps.max_members:
        raise CapExceeded(
            "seeds have %d distinct classes, member cap is %d"
            % (base.distinct_classes(), caps.max_members)
        )
    members = dict(base.classes())
    ledger = tuple(_grow(members, depth, caps))
    return Fragment(elements=QSet._of(dict(members)), ledger=ledger, caps=caps, depth=depth)


def _refusals(row: Constructor, pool: list, caps: BuildCaps):
    """The positions in ``pool`` of each operand tuple of the row's sweep that the caps
    refuse, with the reason.  A cap reads only the operands' qcards, so one probe per
    tuple of qcards answers for every operand tuple that has them.  No capped row is
    unordered, so every tuple of positions is in the sweep."""
    if row.cap is _uncapped:
        return
    by_qcard: dict[int, list[int]] = {}
    for i, x in enumerate(pool):
        by_qcard.setdefault(x.qcard, []).append(i)
    for groups in itertools.product(by_qcard.values(), repeat=row.arity):
        cutoff = row.cap(tuple(pool[g[0]] for g in groups), caps)
        if cutoff is not None:
            for at in itertools.product(*groups):
                yield at, cutoff


def _grow(members: dict[ElementDesc, int], depth: int, caps: BuildCaps, apply_all: bool = False):
    """Yield the ledger of ``depth`` rounds grown from ``members``, the
    seeds' classes, and add each new member to ``members`` as it goes.

    This is the one round sweep, shared by build and replay.  It applies
    the rows tuple by tuple; once the member cap fills, a cap refusal or
    a result that is a member is listed and the other tuples are the
    row's misses, counted in one summary.  Build stops applying there:
    the rest of the row, and every later row and round, is written from
    the cap refusals and the row's ``hits``, merged in sweep order by
    operand positions, and the tuples neither lists are the misses.
    With ``apply_all``, as replay runs it, no hit map is ever read.
    """
    for desc, n in members.items():
        yield LedgerEntry(op="seed", result=desc, count=n)
    index = MemberIndex(members) if len(members) >= caps.max_members and not apply_all else None

    for r in range(1, depth + 1):
        yield LedgerEntry(op="round", count=r)
        snapshot = QSet._of(dict(members))
        parts = Parts(snapshot)
        ordered = [d for d, _ in snapshot.classes()]
        for row in CONSTRUCTORS:
            swept, misses, filled_at = 0, 0, ()
            if index is None:
                for swept, args in enumerate(row.operands(ordered), 1):
                    cutoff = row.cap(args, caps)
                    result = None if cutoff is not None else row.apply(args, parts, caps)
                    if cutoff is None and result not in members:
                        if len(members) >= caps.max_members:
                            misses += 1
                            continue
                        members[result] = 1
                        if len(members) >= caps.max_members and not apply_all:
                            index = MemberIndex(members)
                            filled_at = args
                            yield LedgerEntry(op=row.name, args=args, result=result)
                            break
                    yield LedgerEntry(op=row.name, args=args, result=result, cutoff=cutoff)
            if index is not None:
                pool = row.pool(ordered)
                locate = {x: i for i, x in enumerate(pool)}.__getitem__
                listed = {tuple(map(locate, a)): (a, r, None) for a, r in row.hits(pool, snapshot, index).items()}
                for at, cutoff in _refusals(row, pool, caps):
                    listed[at] = (tuple(pool[i] for i in at), None, cutoff)
                after = tuple(map(locate, filled_at))
                past = sorted(at for at in listed if at > after)
                for at in past:
                    args, result, cutoff = listed[at]
                    yield LedgerEntry(op=row.name, args=args, result=result, cutoff=cutoff)
                n = len(pool)
                total = math.comb(n + row.arity - 1, row.arity) if row.unordered else n ** row.arity
                misses = total - swept - len(past)
            if misses:
                yield LedgerEntry(op=row.name, count=misses, cutoff=MEMBER_CAP)


def replay_ledger(ledger: Iterable[LedgerEntry], caps: BuildCaps = BuildCaps()) -> QSet:
    """Rebuild a ledger and return the element multiset it reconstructs.

    Replay grows the ledger's seeds for as many rounds as it lists, with
    the round sweep of ``build_fragment``, and requires the ledger to be,
    entry for entry, the one that build writes; it stops at the first
    entry that differs, without growing the rounds after it.  It applies
    every operand tuple and reads no hit map, so a hit map that lists a
    wrong hit, drops a true one or miscounts the misses writes a ledger
    that does not replay.  Any divergence raises ValueError: seeds that
    build does not take, or the first entry that differs, with its index.
    """
    recorded = list(ledger)
    try:
        base = QSet((e.result, e.count) for e in recorded if e.op == "seed")
    except (TypeError, ValueError) as err:
        raise ValueError("ledger replay diverged at the seeds: %s" % err) from err
    if not 0 < base.distinct_classes() <= caps.max_members:
        raise ValueError(
            "ledger replay diverged at the seeds: %d distinct classes, member cap is %d"
            % (base.distinct_classes(), caps.max_members)
        )
    members = dict(base.classes())
    rebuilt = _grow(members, sum(e.op == "round" for e in recorded), caps, apply_all=True)
    for i, (entry, built) in enumerate(itertools.zip_longest(recorded, rebuilt)):
        if entry != built:
            raise ValueError(
                "ledger replay diverged at entry %d: recorded %s, build writes %s"
                % (i, entry or "no entry", built or "no entry")
            )
    return QSet._of(dict(members))


# -- closure audit ---------------------------------------------------


class Defect(NamedTuple):
    """A missing closure result: the section, the operation, its
    witnesses and the absentee.  ``missing`` is the canonical text of the
    result that is not a member, or None when a cap refused the
    operands, with the cap as ``note``."""

    condition: str
    operation: str
    witnesses: tuple
    missing: str | None
    note: str = ""

    def to_dict(self) -> dict:
        d = {
            "condition": self.condition,
            "operation": self.operation,
            "witnesses": [w.text for w in self.witnesses],
            "missing": self.missing,
        }
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class ClosureReport:
    elements: QSet
    cond1: list[Defect]
    cond2: list[Defect]
    cond3: list[Defect]
    cond4: list[Defect]
    theorem1: list[Defect]
    totals: dict

    @property
    def primitive_defects(self) -> list[Defect]:
        return [d for s in SECTIONS if s != "theorem1" for d in getattr(self, s)]

    def to_dict(self) -> dict:
        return {
            "schema": "qset/1",
            "elements": [[d.text, n] for d, n in self.elements.classes()],
            "defects": {s: [d.to_dict() for d in getattr(self, s)] for s in SECTIONS},
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return _json.dumps(self)

    def _write_json(self, newline: str, out: list[str]) -> None:
        # to_dict()'s bytes at this indent with no defect dicts built: each defect is one string in
        # Defect.to_dict's shape, and witnesses are members, so each witness text is encoded once
        # per report
        keys, sections = newline + "  ", newline + "    "
        items = sections + "  "
        field, witness = items + "  ", items + "    "
        next_item, next_witness, note_key = "," + items, "," + witness, "," + field + '"note": '
        enc, encode = _json.Encodings(), _json._encode_str
        out.append("{" + keys + '"schema": "qset/1",' + keys + '"elements": ')
        _json._write([[d.text, n] for d, n in self.elements.classes()], keys, out)
        out.append("," + keys + '"defects": {')
        sep = sections
        for s in SECTIONS:
            objs = []
            for condition, operation, witnesses, missing, note in getattr(self, s):
                listed = "[]"
                if witnesses:
                    listed = f"[{witness}{next_witness.join([enc[x.text] for x in witnesses])}{field}]"
                missing = "null" if missing is None else encode(missing)
                note = note_key + enc[note] if note else ""
                objs.append(f'{{{field}"condition": {enc[condition]},{field}"operation": {enc[operation]},'
                            f'{field}"witnesses": {listed},{field}"missing": {missing}{note}{items}}}')
            if objs:
                out.extend((sep + enc[s] + ": [" + items, next_item.join(objs), sections + "]"))
            else:
                out.append(sep + enc[s] + ": []")
            sep = "," + sections
        out.append(keys + "}," + keys + '"totals": ')
        _json._write(self.totals, keys, out)
        out.append(newline + "}")


def _as_universe(u: Union[QSet, Fragment]) -> QSet:
    return u.elements if isinstance(u, Fragment) else u


class _TextTable:
    """The canonical texts of an audit's results, keyed by their operands' positions in ``ordered``,
    the members in key order.  Each rule's ``exact:`` comment says why it writes ``apply(args, parts,
    caps).text``, building no value; a member's sorted product classes and a union text are made once."""

    __slots__ = ("ordered", "pieces", "members", "_operands", "_unions", "_ranked", "_class_texts")

    def __init__(self, universe: QSet):
        self.ordered = ordered = [d for d, _ in universe.classes()]
        # exact: _render writes a class (d, n) as d's text, ^n for n above 1
        self.pieces = [d.text if n == 1 else "%s^%d" % (d.text, n) for d, n in universe.classes()]
        self.members = {d.text for d in ordered}
        self._operands: dict[int, tuple[list, list]] = {}
        self._unions: dict[frozenset, str] = {}
        # each collection's classes as (rank of the descriptor in key order, count); a text names a value
        keys = sorted({d.key for x in ordered if isinstance(x, QSet) for d, _ in x.classes()})
        rank = {text: r for r, (_, text) in enumerate(keys)}
        self._class_texts = [text for _, text in keys]
        self._ranked = [[(rank[d.text], n) for d, n in x.classes()] if isinstance(x, QSet) else None
                        for x in ordered]

    def power(self, i: int) -> str:
        # exact: power(x) holds one sub-quasi-set per pick of k <= n from each class (d, n) of x, counted
        # prod C(n, k); a pick keeps x's classes in key order, and its picks are quasi-sets, so in text order
        subsets = [("", 1)]
        for d, n in self.ordered[i].classes():
            picks = [(d.text if k == 1 else "%s^%d" % (d.text, k), math.comb(n, k)) for k in range(1, n + 1)]
            subsets += [(s + ", " + t if s else t, m * c) for s, m in subsets for t, c in picks]
        subsets = sorted([("{%s}" % s, m) for s, m in subsets])
        return "{%s}" % ", ".join([s if m == 1 else "%s^%d" % (s, m) for s, m in subsets])

    def singleton(self, i: int) -> str:
        # exact: singleton_in(x, u) is the one class (x, u.count(x))
        return "{%s}" % self.pieces[i]

    def pair(self, i: int, j: int) -> str:
        # exact: pair_in(x, y, u) is the classes of x and y in u in key order, which is position order,
        # and the singleton when x == y
        if i == j:
            return "{%s}" % self.pieces[i]
        return "{%s, %s}" % ((self.pieces[i], self.pieces[j]) if i < j else (self.pieces[j], self.pieces[i]))

    def opair(self, i: int, j: int) -> str:
        # exact: opair_from(s, p) is {s, p} once each, two quasi-sets and so in text order, and {s}
        # when x == y makes p the singleton s
        s, p = "{%s}" % self.pieces[i], self.pair(i, j)
        return "{%s}" % s if i == j else "{%s, %s}" % ((s, p) if s < p else (p, s))

    def product(self, i: int, j: int) -> str:
        # exact: product(x, y) counts each pair <a, b> x.count(a) * y.count(b), and a pair's text is
        # "<" + a.text + ", " + b.text + ">".  A text that is a proper prefix of another is an
        # identifier, followed there by an identifier character, and "," sorts below all of them;
        # so x's classes by text, then y's by text + ">", give the pairs in canonical order; a count
        # above 1 is written ^n, as _render writes it
        xs = self._operands.get(i) or self._operand(i)
        ys = self._operands.get(j) or self._operand(j)
        return "{%s}" % ", ".join([
            "<%s, %s" % (a, b) if na * nb == 1 else "<%s, %s^%d" % (a, b, na * nb)
            for a, na in xs[0] for b, nb in ys[1]
        ])

    def _operand(self, i: int) -> tuple[list, list]:
        # the member's classes as a product's first operand, by text, and as its second, by text + ">"
        texts = [(d.text, n) for d, n in self.ordered[i].classes()]
        operand = self._operands[i] = (sorted(texts), sorted([(t + ">", n) for t, n in texts]))
        return operand

    def union(self, entries: frozenset) -> str:
        # exact: union is associative, commutative and idempotent, so only the set of entries matters
        t = self._unions.get(entries)
        if t is None:
            t = self._unions[entries] = self._union(entries)
        return t

    def _union(self, entries: frozenset) -> str:
        # exact: family_union seals each class at its largest count, and a seal renders its classes in
        # key order, which is the ranks' order
        counts: dict[int, int] = {}
        for i in entries:
            for r, n in self._ranked[i]:
                if counts.get(r, 0) < n:
                    counts[r] = n
        texts = self._class_texts
        return "{%s}" % ", ".join([texts[r] if counts[r] == 1 else "%s^%d" % (texts[r], counts[r])
                                   for r in sorted(counts)])


def check_qED(
    u: Union[QSet, Fragment],
    *,
    caps: BuildCaps = BuildCaps(),
    family_index_bound: int = 3,
    max_families: int = 200,
) -> ClosureReport:
    """Audit a fragment against the closure conditions of a universe.

    Condition 1: each collection member's power is a member.
    Condition 2: each member's class-singleton is a member.
    Condition 3: each ordered pair of collection members has its product
    as a member.  Condition 4: classically indexed families drawn from
    the fragment (index size up to ``family_index_bound``, at most
    ``max_families`` families) have their unions as members.  The
    derived constructions (union, unordered pair, ordered pair) are
    audited separately as the theorem-1 section.

    Each section is one loop over member positions, in report order.  A
    cap refusal is a defect with the cap as its note, and a result whose
    canonical text is no member's is a defect that names it by that text;
    texts differ across kinds, atoms, quasi-sets and pairs, so that test
    is membership exactly.  Every text comes from one ``_TextTable``, so
    the audit builds no value, powers included.  A union of one member x
    (``union(x, x)``, or a family whose entries are all x) is x, a
    member, so it counts as a check and needs no text.
    """
    universe = _as_universe(u)
    if universe.qcard == 0:
        raise EmptyUniverse("cannot audit an empty universe")
    table = _TextTable(universe)
    ordered, members = table.ordered, table.members
    at = [i for i, d in enumerate(ordered) if isinstance(d, QSet)]  # the collections' positions
    pool = [ordered[i] for i in at]
    rows = {row.name: row for row in CONSTRUCTORS}
    cond1, cond2, cond3, cond4, theorem1 = [], [], [], [], []
    refused = dict(_refusals(rows["power"], pool, caps))
    for a, x in enumerate(pool):
        if (a,) in refused:
            cond1.append(Defect("cond1", "power", (x,), None, refused[a,]))
        elif (text := table.power(at[a])) not in members:
            cond1.append(Defect("cond1", "power", (x,), text))
    for i, x in enumerate(ordered):
        if (text := table.singleton(i)) not in members:
            cond2.append(Defect("cond2", "singleton", (x,), text))
    refused = dict(_refusals(rows["product"], pool, caps))
    for a, x in enumerate(pool):
        for b, y in enumerate(pool):
            if (a, b) in refused:
                cond3.append(Defect("cond3", "product", (x, y), None, refused[a, b]))
            elif (text := table.product(at[a], at[b])) not in members:
                cond3.append(Defect("cond3", "product", (x, y), text))
    families = _families(ordered, at, family_index_bound)
    checked = 0
    for checked, (index, entries) in enumerate(itertools.islice(families, max_families), 1):
        if len(key := frozenset(entries)) > 1 and (text := table.union(key)) not in members:
            cond4.append(Defect("cond4", "family_union", tuple([ordered[i] for i in index + entries]), text))
    collection, union = [isinstance(d, QSet) for d in ordered], table.union
    for i, x in enumerate(ordered):
        for j, y in enumerate(ordered):
            if i < j and collection[i] and collection[j] and (text := union(frozenset((i, j)))) not in members:
                theorem1.append(Defect("theorem1", "union", (x, y), text))
            if i <= j and (text := table.pair(i, j)) not in members:
                theorem1.append(Defect("theorem1", "pair", (x, y), text))
            if (text := table.opair(i, j)) not in members:
                theorem1.append(Defect("theorem1", "opair", (x, y), text))
    n, q = len(ordered), len(pool)
    totals = {"members": n, "cond1_checked": q, "cond2_checked": n, "cond3_checked": q * q,
              "cond4_checked": checked, "cond4_truncated": next(families, None) is not None,
              "theorem1_checked": q * (q + 1) // 2 + n * (n + 1) // 2 + n * n}
    return ClosureReport(universe, cond1, cond2, cond3, cond4, theorem1, totals)


def _families(ordered: list, at: list, family_index_bound: int):
    """Every cond4 family as (index, entries) positions in report order: by index size, index, entries."""
    classical = [i for i, d in enumerate(ordered) if d.is_classical]
    for size in range(1, family_index_bound + 1):
        for index in itertools.combinations(classical, size):
            for entries in itertools.product(at, repeat=size):
                yield index, entries


# -- classification --------------------------------------------------


class Classification(Enum):
    U_QSET = "UQset"
    U_PROPER_QCLASS = "UProperQclass"
    NEITHER = "Neither"


def classify(x: QSet, u: Union[QSet, Fragment]) -> Classification:
    """Place x relative to a universe fragment.

    Membership makes it a universe-qset.  Otherwise, if every class of x
    occurs in the fragment with at least x's count, x is a qclass that
    is not a member, i.e. a proper qclass.  A qclass that is also a
    member reports as a qset.
    """
    universe = _as_universe(u)
    if universe.count(x) > 0:
        return Classification.U_QSET
    if all(universe.count(d) >= n for d, n in x.classes()):
        return Classification.U_PROPER_QCLASS
    return Classification.NEITHER


def is_small_category(c: CategoryPresentation, u: Union[QSet, Fragment]) -> bool:
    """Small means both the object and morphism collections are members."""
    universe = _as_universe(u)
    return (
        classify(c.objects, universe) is Classification.U_QSET
        and classify(c.morphisms, universe) is Classification.U_QSET
    )
