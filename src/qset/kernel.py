"""Canonical quasi-set values and the indistinguishability relation.

A quasi-set is a finite collection whose members need not have classical
identity.  Atoms come in two flavours: m-atoms, which belong to a Kind
and are mutually indistinguishable within it, and classical atoms
(CAtom), which carry ordinary identity.  A collection of m-atoms only
remembers *how many* of each kind it holds, never which ones.

A QSet is therefore stored as a multiset of element classes:

  * one count per Kind of m-atom at the top level,
  * a set of classical atom ids (identity makes repeats meaningless),
  * one count per nested canonical quasi-set form,
  * one count per primitive pair form (produced by cartesian products).

Values are immutable and canonical: two QSet objects compare equal
exactly when they are indistinguishable, so == is the
indistinguishability relation on quasi-sets and QSets can key dicts.
Construction is bottom-up from already-canonical parts, which makes
membership well-founded by construction; a value can never occur among
its own hereditary elements because nesting depth strictly decreases.

M-atom labels exist only inside "labeled builds": plain Python lists
(for collections) containing MAtom/CAtom leaves and RawPair nodes.
``canonicalize`` forgets the labels, counting distinct labels per kind;
``relabel`` applies a kind-preserving bijection to the labels and
canonicalizes the result.  No public operation on canonical values can
recover a label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import InvalidPermutation

__all__ = [
    "Kind",
    "MAtom",
    "CAtom",
    "AtomRef",
    "PrimPair",
    "RawPair",
    "QSet",
    "ElementDesc",
    "as_descriptor",
    "canonical_text",
    "desc_depth",
    "desc_is_classical",
    "desc_sort_key",
    "canonicalize",
    "relabel",
    "indist",
    "qcard",
    "is_classical",
    "mem_count",
]


@dataclass(frozen=True)
class Kind:
    """A species of mutually indistinguishable atoms.

    ``atom_token`` is the text used for this kind's atoms in canonical
    renderings; it defaults to ``m_<ident>`` and must stay unique per
    session for renderings to parse back unambiguously.
    """

    ident: str
    atom_token: str = ""

    def __post_init__(self):
        if not self.ident:
            raise ValueError("kind ident must be nonempty")
        if not self.atom_token:
            object.__setattr__(self, "atom_token", "m_" + self.ident)


@dataclass(frozen=True)
class CAtom:
    """A classical atom: has identity, compares by id."""

    ident: str

    def __post_init__(self):
        if not self.ident:
            raise ValueError("classical atom id must be nonempty")


@dataclass(frozen=True)
class MAtom:
    """One atom of a kind, tagged with an internal label.

    The label exists so labeled builds can talk about "this atom" before
    canonicalization; it is never observable through any operation on
    canonical values.
    """

    kind: Kind
    label: object = 0


AtomRef = Union[MAtom, CAtom]


@dataclass(frozen=True)
class PrimPair:
    """A primitive ordered pair of element classes.

    Unlike the universe-relative encoded pair, this is positional and
    operationally primitive: two pairs are indistinguishable iff their
    components are, componentwise.  Components are element descriptors;
    atom arguments are normalized (an m-atom stands for its kind).
    """

    first: "ElementDesc"
    second: "ElementDesc"

    def __post_init__(self):
        object.__setattr__(self, "first", as_descriptor(self.first))
        object.__setattr__(self, "second", as_descriptor(self.second))


@dataclass(frozen=True)
class RawPair:
    """Ordered pair node inside a labeled build (components keep labels)."""

    first: object
    second: object


class QSet:
    """A canonical quasi-set.

    Construct from an iterable of elements, where each entry is either
    an element or an ``(element, count)`` tuple:

      * ``MAtom``     - one atom; entries of the same kind with equal
                        labels collapse (an atom is in or out), distinct
                        labels accumulate the kind's count.
      * ``Kind``      - ``count`` anonymous atoms of that kind.
      * ``CAtom``     - member once; count must be 1, repeats collapse.
      * ``QSet``      - nested form, counts add across entries.
      * ``PrimPair``  - pair form, counts add across entries.
    """

    __slots__ = (
        "_ms", "_cs", "_qs", "_ps",
        "_msd", "_css", "_qsd", "_psd",
        "_qcard", "_classical", "_depth", "_text", "_skey", "_hash",
    )

    def __init__(self, elements: Iterable = ()):
        ms: dict[Kind, int] = {}
        labels: dict[Kind, set] = {}
        cs: set[str] = set()
        qs: dict[QSet, int] = {}
        ps: dict[PrimPair, int] = {}
        for entry in elements:
            if (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[1], int)
                and not isinstance(entry, RawPair)
            ):
                elem, count = entry
            else:
                elem, count = entry, 1
            if count < 1:
                raise ValueError("element count must be >= 1, got %r" % (count,))
            if isinstance(elem, MAtom):
                if count != 1:
                    raise ValueError("a labeled atom entry denotes one atom; use a Kind for bulk counts")
                labels.setdefault(elem.kind, set()).add(elem.label)
            elif isinstance(elem, Kind):
                ms[elem] = ms.get(elem, 0) + count
            elif isinstance(elem, CAtom):
                if count != 1:
                    raise ValueError("classical atom %s cannot carry multiplicity %d" % (elem.ident, count))
                cs.add(elem.ident)
            elif isinstance(elem, QSet):
                qs[elem] = qs.get(elem, 0) + count
            elif isinstance(elem, PrimPair):
                ps[elem] = ps.get(elem, 0) + count
            else:
                raise TypeError("cannot place %r in a quasi-set" % (elem,))
        for kind, seen in labels.items():
            ms[kind] = ms.get(kind, 0) + len(seen)

        self._ms = tuple(sorted(ms.items(), key=lambda kv: (kv[0].ident, kv[0].atom_token)))
        self._cs = tuple(sorted(cs))
        self._qs = tuple(sorted(qs.items(), key=lambda kv: (kv[0].text, kv[0]._skey)))
        self._ps = tuple(sorted(ps.items(), key=lambda kv: (canonical_text(kv[0]), desc_sort_key(kv[0]))))
        self._msd = dict(self._ms)
        self._css = frozenset(self._cs)
        self._qsd = dict(self._qs)
        self._psd = dict(self._ps)

        self._qcard = (
            sum(n for _, n in self._ms)
            + len(self._cs)
            + sum(n for _, n in self._qs)
            + sum(n for _, n in self._ps)
        )
        self._classical = (
            not self._ms
            and all(q.is_classical for q, _ in self._qs)
            and all(desc_is_classical(p) for p, _ in self._ps)
        )
        depths = (
            [0] * (len(self._ms) + len(self._cs))
            + [q._depth for q, _ in self._qs]
            + [desc_depth(p) for p, _ in self._ps]
        )
        self._depth = 1 + max(depths) if depths else 0

        parts = []
        for kind, n in self._ms:
            parts.append(kind.atom_token if n == 1 else "%s^%d" % (kind.atom_token, n))
        parts.extend(self._cs)
        for q, n in self._qs:
            parts.append(q._text if n == 1 else "%s^%d" % (q._text, n))
        for p, n in self._ps:
            t = canonical_text(p)
            parts.append(t if n == 1 else "%s^%d" % (t, n))
        self._text = "{" + ", ".join(parts) + "}"

        self._skey = (
            2,
            tuple((kind.ident, n) for kind, n in self._ms),
            self._cs,
            tuple((q._skey, n) for q, n in self._qs),
            tuple((desc_sort_key(p), n) for p, n in self._ps),
        )
        self._hash = hash(("QSet", self._ms, self._cs, self._qs, self._ps))

    # -- structure ---------------------------------------------------

    def classes(self) -> Iterator[tuple["ElementDesc", int]]:
        """Yield (element descriptor, count) in canonical order."""
        for kind, n in self._ms:
            yield kind, n
        for ident in self._cs:
            yield CAtom(ident), 1
        yield from self._qs
        yield from self._ps

    def count(self, desc: "ElementDesc") -> int:
        if isinstance(desc, Kind):
            return self._msd.get(desc, 0)
        if isinstance(desc, CAtom):
            return 1 if desc.ident in self._css else 0
        if isinstance(desc, QSet):
            return self._qsd.get(desc, 0)
        if isinstance(desc, PrimPair):
            return self._psd.get(desc, 0)
        raise TypeError("not an element descriptor: %r" % (desc,))

    @property
    def qcard(self) -> int:
        return self._qcard

    @property
    def is_classical(self) -> bool:
        return self._classical

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def text(self) -> str:
        return self._text

    def distinct_classes(self) -> int:
        return len(self._ms) + len(self._cs) + len(self._qs) + len(self._ps)

    def __contains__(self, e) -> bool:
        return self.count(as_descriptor(e)) > 0

    def __bool__(self) -> bool:
        return self._qcard > 0

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QSet):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._ms == other._ms
            and self._cs == other._cs
            and self._qs == other._qs
            and self._ps == other._ps
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "QSet(%s)" % self._text


ElementDesc = Union[Kind, CAtom, QSet, PrimPair]


def as_descriptor(e) -> ElementDesc:
    """Normalize an element to the descriptor of its class.

    An m-atom stands for its kind; everything already class-level passes
    through unchanged.
    """
    if isinstance(e, MAtom):
        return e.kind
    if isinstance(e, (Kind, CAtom, QSet, PrimPair)):
        return e
    raise TypeError("not a quasi-set element: %r" % (e,))


def canonical_text(d) -> str:
    """Render a descriptor (or canonical value) in canonical text form."""
    if isinstance(d, MAtom):
        d = d.kind
    if isinstance(d, Kind):
        return d.atom_token
    if isinstance(d, CAtom):
        return d.ident
    if isinstance(d, QSet):
        return d.text
    if isinstance(d, PrimPair):
        return "<%s, %s>" % (canonical_text(d.first), canonical_text(d.second))
    raise TypeError("not an element descriptor: %r" % (d,))


def desc_depth(d) -> int:
    if isinstance(d, (Kind, CAtom)):
        return 0
    if isinstance(d, QSet):
        return d.depth
    if isinstance(d, PrimPair):
        return 1 + max(desc_depth(d.first), desc_depth(d.second))
    raise TypeError("not an element descriptor: %r" % (d,))


def desc_is_classical(d) -> bool:
    if isinstance(d, Kind):
        return False
    if isinstance(d, CAtom):
        return True
    if isinstance(d, QSet):
        return d.is_classical
    if isinstance(d, PrimPair):
        return desc_is_classical(d.first) and desc_is_classical(d.second)
    raise TypeError("not an element descriptor: %r" % (d,))


def desc_sort_key(d):
    """Total order on element descriptors, stable across runs.

    Groups sort m-atom classes, then classical atoms, then nested
    quasi-sets, then pairs; within a group the canonical text decides
    and a structural key breaks (pathological) text ties.
    """
    if isinstance(d, Kind):
        return (0, d.ident, d.atom_token)
    if isinstance(d, CAtom):
        return (1, d.ident)
    if isinstance(d, QSet):
        return (2, d.text, d._skey)
    if isinstance(d, PrimPair):
        return (3, canonical_text(d), desc_sort_key(d.first), desc_sort_key(d.second))
    raise TypeError("not an element descriptor: %r" % (d,))


# -- labeled builds -------------------------------------------------


def canonicalize(build):
    """Collapse a labeled build to its canonical value.

    A build is an MAtom, CAtom, already-canonical value, a RawPair of
    builds, or a list of builds standing for a collection.  Distinct
    labels of one kind accumulate that kind's count; repeating the same
    labeled atom does not (membership is not graded).  Nested collection
    and pair forms count by occurrence.
    """
    if isinstance(build, list):
        return QSet(_canon_entry(child) for child in build)
    return _canon_entry(build)


def _canon_entry(node):
    if isinstance(node, list):
        return canonicalize(node)
    if isinstance(node, RawPair):
        return PrimPair(as_descriptor(_canon_entry(node.first)), as_descriptor(_canon_entry(node.second)))
    if isinstance(node, (MAtom, CAtom, Kind, QSet, PrimPair)):
        return node
    raise TypeError("not a labeled build node: %r" % (node,))


def relabel(build, mapping: Mapping[MAtom, MAtom]) -> QSet | AtomRef | PrimPair:
    """Apply a kind-preserving label bijection to a build, canonicalized.

    Indistinguishability makes the choice of labels unobservable, so the
    result is always identical to ``canonicalize(build)``; the test
    suite leans on exactly that.
    """
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise InvalidPermutation("relabelling map is not injective")
    for src, dst in mapping.items():
        if not isinstance(src, MAtom) or not isinstance(dst, MAtom):
            raise InvalidPermutation("relabelling maps m-atoms to m-atoms, got %r -> %r" % (src, dst))
        if src.kind != dst.kind:
            raise InvalidPermutation(
                "relabelling must preserve kinds: %s -> %s" % (src.kind.ident, dst.kind.ident)
            )

    def sub(node):
        if isinstance(node, MAtom):
            return mapping.get(node, node)
        if isinstance(node, list):
            return [sub(child) for child in node]
        if isinstance(node, RawPair):
            return RawPair(sub(node.first), sub(node.second))
        return node

    return canonicalize(sub(build))


# -- observation ----------------------------------------------------


def indist(x, y) -> bool:
    """Indistinguishability: the only equality quasi-sets and atoms have.

    M-atoms agree iff they share a kind, classical atoms iff they share
    an id, quasi-sets iff their canonical forms coincide.  Mixed
    arguments are distinguishable.
    """
    return as_descriptor(x) == as_descriptor(y)


def qcard(x: QSet) -> int:
    """Quasi-cardinality: how many elements x holds, counted classwise."""
    if not isinstance(x, QSet):
        raise TypeError("qcard is defined on quasi-sets, got %r" % (x,))
    return x.qcard


def is_classical(x) -> bool:
    """True when nothing in x is an m-atom, hereditarily."""
    if isinstance(x, QSet):
        return x.is_classical
    return desc_is_classical(as_descriptor(x))


def mem_count(e, x: QSet) -> int:
    """How many elements of e's class x holds at the top level."""
    if not isinstance(x, QSet):
        raise TypeError("membership is asked of a quasi-set, got %r" % (x,))
    return x.count(as_descriptor(e))
