"""Constructors on canonical quasi-sets.

Everything here enumerates finitely and completely: when a bound makes
an operation too large to enumerate, it raises CapExceeded instead of
returning a truncated value.

The counting rule that drives ``power`` and ``product``: a quasi-set
only knows class counts, so a "sub-quasi-set" is a choice of how many
elements to take from each class, and it occurs in the power quasi-set
with multiplicity C(n, k) per class taken k-from-n.  This way
qcard(power(x)) == 2 ** qcard(x), matching the count of labeled subsets
while the value itself stays label-free.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .errors import CapExceeded, NonClassicalIndex, NotInUniverse
from .kernel import ElementDesc, PrimPair, QSet, as_descriptor, canonical_text

__all__ = [
    "POWER_QCARD_CAP",
    "PRODUCT_QCARD_CAP",
    "power",
    "singleton_in",
    "pair_in",
    "opair_in",
    "opair_from",
    "product",
    "union",
    "family_union",
    "family_from_pairs",
]

POWER_QCARD_CAP = 16
PRODUCT_QCARD_CAP = 4096


def power(x: QSet, *, cap: int = POWER_QCARD_CAP) -> QSet:
    """The quasi-set of all sub-quasi-set forms of x, binomially counted."""
    if not isinstance(x, QSet):
        raise TypeError("power is defined on quasi-sets, got %r" % (x,))
    if x.qcard > cap:
        raise CapExceeded("power operand has qcard %d, cap is %d" % (x.qcard, cap))
    classes = list(x.classes())
    # distinct picks are distinct sub-quasi-sets, so no member repeats
    members: dict[QSet, int] = {}
    for picks in itertools.product(*(range(n + 1) for _, n in classes)):
        mult = 1
        chosen = {}
        for (desc, n), k in zip(classes, picks):
            mult *= math.comb(n, k)
            if k:
                chosen[desc] = k
        members[QSet._of(chosen)] = mult
    return QSet._of(members)


def singleton_in(x, universe: QSet) -> QSet:
    """The class of x inside a universe: every element indistinguishable
    from x, with the universe's own multiplicity.  qcard can exceed 1."""
    desc = as_descriptor(x)
    n = universe.count(desc)
    if n == 0:
        raise NotInUniverse("%s is not an element of the universe" % canonical_text(desc))
    return QSet._of({desc: n})


def pair_in(x, y, universe: QSet) -> QSet:
    """Unordered pair relative to a universe: union of the two classes."""
    return union(singleton_in(x, universe), singleton_in(y, universe))


def opair_in(x, y, universe: QSet) -> QSet:
    """Ordered pair relative to a universe, two-set style.

    Built as {class-of-x, pair-of-x-y}; when the two components coincide
    (x and y indistinguishable) the forms collapse to a single member.
    """
    return opair_from(singleton_in(x, universe), pair_in(x, y, universe))


def opair_from(single: QSet, pair: QSet) -> QSet:
    """The ordered pair {single, pair} from its two parts: the class of x
    and the pair of x and y.  Equal parts collapse to one member."""
    if not isinstance(single, QSet) or not isinstance(pair, QSet):
        raise TypeError("opair_from is defined on quasi-sets")
    if single == pair:
        return QSet._of({single: 1})
    return QSet._of({single: 1, pair: 1})


def product(x: QSet, y: QSet, *, cap: int = PRODUCT_QCARD_CAP) -> QSet:
    """Cartesian product: primitive pairs of classes, counts multiplied."""
    if not isinstance(x, QSet) or not isinstance(y, QSet):
        raise TypeError("product is defined on quasi-sets")
    size = x.qcard * y.qcard
    if size > cap:
        raise CapExceeded("product result would have qcard %d, cap is %d" % (size, cap))
    # distinct class pairs are distinct primitive pairs, so no key repeats
    return QSet._of({PrimPair(a, b): na * nb for a, na in x.classes() for b, nb in y.classes()})


def union(x: QSet, y: QSet) -> QSet:
    """Classwise maximum of counts; idempotent and commutative."""
    if not isinstance(x, QSet) or not isinstance(y, QSet):
        raise TypeError("union is defined on quasi-sets")
    counts: dict[ElementDesc, int] = dict(x.classes())
    for desc, n in y.classes():
        if counts.get(desc, 0) < n:
            counts[desc] = n
    return QSet._of(counts)


def family_union(entries: Iterable[QSet]) -> QSet:
    """Union of a family's entries, each class at its largest count; the index plays no part."""
    counts: dict[ElementDesc, int] = {}
    for entry in entries:
        if not isinstance(entry, QSet):
            raise TypeError("family entries must be quasi-sets")
        for desc, n in entry.classes():
            if counts.get(desc, 0) < n:
                counts[desc] = n
    return QSet._of(counts)


def family_from_pairs(graph: QSet) -> dict[ElementDesc, QSet]:
    """Read a family off a quasi-set of pairs <index-element, entry>.

    Every first must be paired with exactly one entry, every entry must
    be a quasi-set, and the firsts, the family's index, must be
    classical: indexing by indistinguishable atoms would let the index
    secretly distinguish them.  Returns the map from first to entry.
    """
    entries: dict[ElementDesc, QSet] = {}
    for desc, _ in graph.classes():
        if not isinstance(desc, PrimPair):
            raise TypeError("family graph elements must be pairs, got %s" % canonical_text(desc))
        i, v = desc.first, desc.second
        if not isinstance(v, QSet):
            raise TypeError("family entry for %s must be a quasi-set" % canonical_text(i))
        if i in entries and entries[i] != v:
            raise ValueError("family assigns two entries to index element %s" % canonical_text(i))
        entries[i] = v
    if not all(i.is_classical for i in entries):
        raise NonClassicalIndex("family index must be classical (no m-atoms anywhere)")
    return entries
