"""Canonical quasi-set values and the indistinguishability relation.

A quasi-set is a finite collection whose members need not have classical
identity.  Atoms come in two flavours: m-atoms, which belong to a Kind
and are mutually indistinguishable within it, and classical atoms
(CAtom), which carry ordinary identity.  A collection of m-atoms only
remembers *how many* of each kind it holds, never which ones.

A QSet is therefore stored as one table of element classes: a
(descriptor, count) entry per class, in canonical order.  A descriptor
is a Kind (standing for its m-atoms), a CAtom (count always 1, since
identity makes repeats meaningless), a nested canonical QSet, or a
PrimPair (produced by cartesian products).  Every descriptor carries
the same four attributes, computed once when it is made: ``text`` (its
canonical rendering), ``key`` (``(rank, text)``, its place in the
canonical order: kinds, then classical atoms, quasi-sets and pairs,
each by text), ``depth`` (hereditary nesting depth) and
``is_classical``.

A value is its canonical text.  Kind idents and classical atom ids are
identifiers, so every text parses back to exactly one value, and two
values are indistinguishable exactly when their texts are equal: QSet
and PrimPair hash their text and compare by it, so == is the
indistinguishability relation and values of any depth compare without
recursion.  Values are immutable and key dicts.  Construction is
bottom-up from already-canonical parts, which makes membership
well-founded by construction; a value can never occur among its own
hereditary elements because nesting depth strictly decreases.

``QSet(...)`` checks every entry it is given.  The values the algebra
builds already consist of canonical descriptors with counts of at least
1, so ``algebra``, ``universe`` and ``gen`` build them with the private
``QSet._of(counts)``, which trusts its dict and takes ownership of it.
Both ways end in the same sealing step, ``QSet._seal``, which orders
the classes and computes the text, key, qcard, depth, classical flag
and hash.  The text comes from ``_render``, the one rendering rule,
which the closure audit also uses to write a result's text without
building the result.

M-atom labels exist only inside "labeled builds": plain Python lists
(for collections) containing MAtom/CAtom leaves and RawPair nodes.
``canonicalize`` forgets the labels, counting distinct labels per kind;
``relabel`` applies a kind-preserving bijection to the labels and
canonicalizes the result.  No public operation on canonical values can
recover a label.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
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
    "canonicalize",
    "relabel",
    "indist",
    "qcard",
    "is_classical",
    "mem_count",
]


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_ident(what: str, ident: str) -> None:
    if _IDENT.fullmatch(ident) is None:
        raise ValueError("%s %r is not an identifier" % (what, ident))


@dataclass(frozen=True)
class Kind:
    """A species of mutually indistinguishable atoms; they render as
    ``m_<ident>``."""

    ident: str

    depth = 0
    is_classical = False

    def __post_init__(self):
        _check_ident("kind ident", self.ident)
        object.__setattr__(self, "text", "m_" + self.ident)
        object.__setattr__(self, "key", (0, self.text))


@dataclass(frozen=True)
class CAtom:
    """A classical atom: has identity, compares by id.

    An id never starts with ``m_``, the prefix of m-atom renderings.
    """

    ident: str

    depth = 0
    is_classical = True

    def __post_init__(self):
        _check_ident("classical atom id", self.ident)
        if self.ident.startswith("m_"):
            raise ValueError("classical atom id %r must not start with 'm_'" % self.ident)
        object.__setattr__(self, "text", self.ident)
        object.__setattr__(self, "key", (1, self.ident))


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


class PrimPair:
    """A primitive ordered pair of element classes.

    Unlike the universe-relative encoded pair, this is positional and
    operationally primitive: two pairs are indistinguishable iff their
    components are, componentwise.  Components are element descriptors;
    atom arguments are normalized (an m-atom stands for its kind).
    """

    __slots__ = ("_first", "_second", "_text", "_key", "_depth", "_classical", "_hash")

    def __init__(self, first: "ElementDesc", second: "ElementDesc"):
        first = as_descriptor(first)
        second = as_descriptor(second)
        self._first = first
        self._second = second
        self._text = text = "<%s, %s>" % (first.text, second.text)
        self._key = (3, text)
        self._depth = 1 + max(first.depth, second.depth)
        self._classical = first.is_classical and second.is_classical
        self._hash = hash(text)

    first = property(attrgetter("_first"))
    second = property(attrgetter("_second"))
    text = property(attrgetter("_text"))
    key = property(attrgetter("_key"))
    depth = property(attrgetter("_depth"))
    is_classical = property(attrgetter("_classical"))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PrimPair):
            return NotImplemented
        return self._hash == other._hash and self._text == other._text

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PrimPair(first=%r, second=%r)" % (self.first, self.second)


@dataclass(frozen=True)
class RawPair:
    """Ordered pair node inside a labeled build (components keep labels)."""

    first: object
    second: object


def _class_key(entry):
    return entry[0].key


def _render(classes) -> str:
    """The canonical text of a quasi-set with these ``(descriptor,
    count)`` classes, given in canonical order: the class texts in
    braces, a count above 1 written ``^n``."""
    return "{%s}" % ", ".join([d.text if n == 1 else "%s^%d" % (d.text, n) for d, n in classes])


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

    __slots__ = ("_items", "_counts", "_text", "_key", "_qcard", "_depth", "_classical", "_hash")

    def __init__(self, elements: Iterable = ()):
        counts: dict[ElementDesc, int] = {}
        labels: dict[Kind, set] = {}
        for entry in elements:
            if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], int):
                elem, count = entry
            else:
                elem, count = entry, 1
            if count < 1:
                raise ValueError("element count must be >= 1, got %r" % (count,))
            if isinstance(elem, MAtom):
                if count != 1:
                    raise ValueError("a labeled atom entry denotes one atom; use a Kind for bulk counts")
                labels.setdefault(elem.kind, set()).add(elem.label)
            elif isinstance(elem, CAtom):
                if count != 1:
                    raise ValueError("classical atom %s cannot carry multiplicity %d" % (elem.ident, count))
                counts[elem] = 1
            elif isinstance(elem, (Kind, QSet, PrimPair)):
                counts[elem] = counts.get(elem, 0) + count
            else:
                raise TypeError("cannot place %r in a quasi-set" % (elem,))
        for kind, seen in labels.items():
            counts[kind] = counts.get(kind, 0) + len(seen)
        self._seal(counts)

    @classmethod
    def _of(cls, counts: dict) -> "QSet":
        """The quasi-set with exactly these classes, built without
        checking them.

        For trusted internal callers only (``algebra``, ``universe`` and
        ``gen``):
        every key of ``counts`` must already be a canonical descriptor
        (Kind, CAtom, QSet or PrimPair) and every count an int of at
        least 1, at most 1 for a CAtom.  The value takes ownership of
        the dict, so the caller passes a fresh one and never mutates it
        afterwards.
        """
        self = object.__new__(cls)
        self._seal(counts)
        return self

    def _seal(self, counts: dict) -> None:
        # the one place a QSet's cached attributes are computed from its classes
        self._items = items = tuple(sorted(counts.items(), key=_class_key))
        self._counts = counts
        self._text = text = _render(items)
        self._key = (2, text)
        self._qcard = sum(counts.values())
        self._depth = 1 + max([d.depth for d in counts]) if counts else 0
        self._classical = all([d.is_classical for d in counts])
        self._hash = hash(text)

    text = property(attrgetter("_text"))
    key = property(attrgetter("_key"))
    qcard = property(attrgetter("_qcard"))
    depth = property(attrgetter("_depth"))
    is_classical = property(attrgetter("_classical"))

    # -- structure ---------------------------------------------------

    def classes(self) -> Iterator[tuple["ElementDesc", int]]:
        """Yield (element descriptor, count) in canonical order."""
        return iter(self._items)

    def count(self, desc: "ElementDesc") -> int:
        n = self._counts.get(desc)
        if n is None:
            if not isinstance(desc, _DESCRIPTORS):
                raise TypeError("not an element descriptor: %r" % (desc,))
            return 0
        return n

    def distinct_classes(self) -> int:
        return len(self._items)

    def __contains__(self, e) -> bool:
        return as_descriptor(e) in self._counts

    def __bool__(self) -> bool:
        return self._qcard > 0

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QSet):
            return NotImplemented
        return self._hash == other._hash and self._text == other._text

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "QSet(%s)" % self._text


ElementDesc = Union[Kind, CAtom, QSet, PrimPair]
_DESCRIPTORS = (Kind, CAtom, QSet, PrimPair)


def as_descriptor(e) -> ElementDesc:
    """Normalize an element to the descriptor of its class.

    An m-atom stands for its kind; everything already class-level passes
    through unchanged.
    """
    if isinstance(e, MAtom):
        return e.kind
    if isinstance(e, _DESCRIPTORS):
        return e
    raise TypeError("not a quasi-set element: %r" % (e,))


def canonical_text(d) -> str:
    """Render a descriptor (or canonical value) in canonical text form."""
    return as_descriptor(d).text


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
    return as_descriptor(x).is_classical


def mem_count(e, x: QSet) -> int:
    """How many elements of e's class x holds at the top level."""
    if not isinstance(x, QSet):
        raise TypeError("membership is asked of a quasi-set, got %r" % (x,))
    return x.count(as_descriptor(e))
