"""Quasi-relations and quasi-functions between quasi-sets.

A relation between quasi-sets cannot see individual atoms, only their
classes, so graphs here live at class level: a set of (domain class,
codomain class) descriptor pairs.  Graphs are normalized to multiplicity
one per class pair; without that, composing with an identity could
change a graph's bookkeeping and identity laws would fail.

A quasi-function is a quasi-relation whose graph pairs each domain
class with exactly one codomain class: total, and sending
indistinguishable arguments to indistinguishable values.  So it is
stored as its class map, from each domain class to its image class,
and its graph is derived from that map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Sequence

from . import _json
from .errors import InvalidQuasiFunction, NotComposable
from .kernel import ElementDesc, PrimPair, QSet, canonical_text

__all__ = [
    "QuasiRelation",
    "QuasiFunction",
    "quasi_function",
    "is_quasi_function",
    "identity",
    "compose",
    "qfun_equiv",
    "LawReport",
    "check_category_laws",
    "encode_quasi_function",
    "decode_quasi_function",
    "CategoryPresentation",
    "describe",
]

GraphPair = tuple[ElementDesc, ElementDesc]


@dataclass(frozen=True)
class QuasiRelation:
    dom: QSet
    cod: QSet
    graph: frozenset[GraphPair]

    def __post_init__(self):
        object.__setattr__(self, "graph", _checked_graph(self.dom, self.cod, self.graph, False))

    def sorted_graph(self) -> list[GraphPair]:
        return sorted(self.graph, key=_pair_key)


class QuasiFunction(QuasiRelation):
    """A quasi-relation that pairs each domain class with exactly one
    codomain class, stored as that class map.

    ``map`` is a read-only mapping from each class of ``dom`` to its
    image class in ``cod``; ``graph`` is derived from it on each read,
    the frozenset of its items.  Equality and hash are extensional:
    indistinguishable dom and cod, and the same map.
    """

    def __init__(self, dom: QSet, cod: QSet, graph: Iterable[GraphPair]):
        cmap = dict(_checked_graph(dom, cod, graph, True))
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "map", MappingProxyType(cmap))

    @classmethod
    def _of(cls, dom: QSet, cod: QSet, cmap: dict) -> "QuasiFunction":
        """The quasi-function with this class map, built without checking it.

        For trusted internal callers only (``compose``, ``identity`` and
        ``gen``): ``cmap`` must map every class of ``dom``, and nothing
        else, to a class of ``cod``.  The value takes ownership of the
        dict, so the caller passes a fresh one and never mutates it
        afterwards.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "map", MappingProxyType(cmap))
        return self

    @property
    def graph(self) -> frozenset[GraphPair]:
        return frozenset(self.map.items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return qfun_equiv(self, other)

    def __hash__(self):
        return hash((self.dom, self.cod, self.graph))


def _pair_key(ab: GraphPair):
    return (ab[0].key, ab[1].key)


def _checked_graph(dom: QSet, cod: QSet, graph: Iterable[GraphPair], functional: bool) -> frozenset:
    """``graph`` as a frozenset of pairs, or the first fault in canonical order raised."""
    graph = frozenset((a, b) for a, b in graph)
    if _first_fault(dom, cod, graph, functional) is not None:
        # the graph iterates in hash order; name the first fault in canonical order
        raise _first_fault(dom, cod, sorted(graph, key=_pair_key), functional)
    return graph


def _first_fault(dom: QSet, cod: QSet, pairs, functional: bool) -> Exception | None:
    """The first fault met walking a graph as ``pairs``: a pair off the domain or the codomain,
    then, if ``functional``, a domain class with two images, then one with none.  None if none."""
    for a, b in pairs:
        if dom.count(a) == 0:
            return ValueError("graph uses %s, not a class of the domain" % canonical_text(a))
        if cod.count(b) == 0:
            return ValueError("graph uses %s, not a class of the codomain" % canonical_text(b))
    if functional:
        seen: set[ElementDesc] = set()
        for a, _ in pairs:
            if a in seen:
                return InvalidQuasiFunction(
                    "domain class %s is paired with two codomain classes" % canonical_text(a))
            seen.add(a)
        for desc, _ in dom.classes():
            if desc not in seen:
                return InvalidQuasiFunction("domain class %s has no image" % canonical_text(desc))
    return None


def quasi_function(dom: QSet, cod: QSet, graph: Iterable[GraphPair]) -> QuasiFunction:
    return QuasiFunction(dom, cod, graph)


def is_quasi_function(q: QuasiRelation) -> bool:
    """Class-functional and total on the domain's classes."""
    return _first_fault(q.dom, q.cod, q.graph, True) is None


def identity(a: QSet) -> QuasiFunction:
    return QuasiFunction._of(a, a, {desc: desc for desc, _ in a.classes()})


def compose(g: QuasiFunction, f: QuasiFunction) -> QuasiFunction:
    """g after f.  Defined when cod(f) and dom(g) are indistinguishable.

    A bare ``QuasiRelation`` argument goes through the public
    ``QuasiFunction`` constructor first, so it raises unless it is a
    quasi-function.  The composite of two quasi-functions is one, so it
    is built from their class maps without the constructor's checks.
    """
    if not isinstance(f, QuasiFunction):
        f = QuasiFunction(f.dom, f.cod, f.graph)
    if not isinstance(g, QuasiFunction):
        g = QuasiFunction(g.dom, g.cod, g.graph)
    if f.cod != g.dom:
        raise NotComposable(
            "cannot compose: cod %s differs from dom %s" % (f.cod.text, g.dom.text)
        )
    gmap = g.map
    return QuasiFunction._of(f.dom, g.cod, {a: gmap[b] for a, b in f.map.items()})


def qfun_equiv(f: QuasiFunction, g: QuasiFunction) -> bool:
    """Extensional agreement: same dom and cod forms, same class map."""
    return f.dom == g.dom and f.cod == g.cod and f.map == g.map


def describe(f: QuasiRelation) -> str:
    pairs = ", ".join(
        "%s->%s" % (canonical_text(a), canonical_text(b)) for a, b in f.sorted_graph()
    )
    return "%s => %s [%s]" % (f.dom.text, f.cod.text, pairs)


@dataclass
class LawReport:
    """Outcome of a category-law sweep over a sample of quasi-functions."""

    triples_checked: int
    identity_checks: int
    violations: list[dict]
    seed: int
    sample_size: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": "qset/1",
            "triples_checked": self.triples_checked,
            "identity_checks": self.identity_checks,
            "violations": self.violations,
            "seed": self.seed,
            "sample_size": self.sample_size,
        }

    def to_json(self) -> str:
        return _json.dumps(self.to_dict())


def check_category_laws(
    sample: Sequence[QuasiFunction],
    seed: int = 0,
    *,
    max_triples: int | None = None,
    compose_fn: Callable[[QuasiFunction, QuasiFunction], QuasiFunction] = compose,
) -> LawReport:
    """Check identity and associativity laws over a sample.

    Both identity laws are checked for every function in the sample.
    Associativity is checked on every composable triple found inside the
    sample; if that exceeds ``max_triples``, a deterministic
    seed-driven subsample of that size is used instead.  ``compose_fn``
    exists so tests can inject a corrupted composition and watch the
    checker object.
    """
    fns = list(sample)
    violations: list[dict] = []

    identity_checks = 0
    for f in fns:
        identity_checks += 2
        left = compose_fn(identity(f.cod), f)
        if not qfun_equiv(left, f):
            violations.append({"law": "left-identity", "morphism": describe(f), "got": describe(left)})
        right = compose_fn(f, identity(f.dom))
        if not qfun_equiv(right, f):
            violations.append({"law": "right-identity", "morphism": describe(f), "got": describe(right)})

    by_dom: dict[QSet, list[int]] = {}
    for i, f in enumerate(fns):
        by_dom.setdefault(f.dom, []).append(i)
    triples: list[tuple[int, int, int]] = []
    for i, f in enumerate(fns):
        for j in by_dom.get(f.cod, ()):
            g = fns[j]
            for k in by_dom.get(g.cod, ()):
                triples.append((i, j, k))
    if max_triples is not None and len(triples) > max_triples:
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(len(triples)), max_triples))
        triples = [triples[t] for t in keep]

    for i, j, k in triples:
        lhs = compose_fn(fns[k], compose_fn(fns[j], fns[i]))
        rhs = compose_fn(compose_fn(fns[k], fns[j]), fns[i])
        if not qfun_equiv(lhs, rhs):
            violations.append(
                {
                    "law": "associativity",
                    "f": describe(fns[i]),
                    "g": describe(fns[j]),
                    "h": describe(fns[k]),
                    "lhs": describe(lhs),
                    "rhs": describe(rhs),
                }
            )

    return LawReport(
        triples_checked=len(triples),
        identity_checks=identity_checks,
        violations=violations,
        seed=seed,
        sample_size=len(fns),
    )


# -- encoding morphisms as quasi-sets --------------------------------


def encode_quasi_function(f: QuasiFunction) -> QSet:
    """Pack a quasi-function into a quasi-set value.

    The encoding is a singleton holding the pair
    <dom, <cod, graph-as-pairs>>; right-nesting keeps the three
    components apart even when some of them coincide as values.
    """
    graph_q = QSet((PrimPair(a, b), 1) for a, b in f.sorted_graph())
    spine = PrimPair(f.dom, PrimPair(f.cod, graph_q))
    return QSet([spine])


def decode_quasi_function(q: QSet) -> QuasiFunction:
    classes = list(q.classes())
    if len(classes) != 1 or classes[0][1] != 1:
        raise ValueError("not a morphism encoding: %s" % q.text)
    spine = classes[0][0]
    if not isinstance(spine, PrimPair) or not isinstance(spine.second, PrimPair):
        raise ValueError("not a morphism encoding: %s" % q.text)
    dom = spine.first
    cod = spine.second.first
    graph_q = spine.second.second
    if not isinstance(dom, QSet) or not isinstance(cod, QSet) or not isinstance(graph_q, QSet):
        raise ValueError("not a morphism encoding: %s" % q.text)
    graph = []
    for desc, _ in graph_q.classes():
        if not isinstance(desc, PrimPair):
            raise ValueError("morphism encoding carries a non-pair graph element")
        graph.append((desc.first, desc.second))
    return QuasiFunction(dom, cod, frozenset(graph))


@dataclass(frozen=True)
class CategoryPresentation:
    """A category drawn inside a universe: objects and encoded morphisms.

    Every element of ``morphisms`` must decode to a quasi-function whose
    dom and cod forms occur among ``objects``.
    """

    objects: QSet
    morphisms: QSet

    def __post_init__(self):
        for desc, _ in self.morphisms.classes():
            if not isinstance(desc, QSet):
                raise ValueError("morphism element %s is not an encoding" % canonical_text(desc))
            f = decode_quasi_function(desc)
            if self.objects.count(f.dom) == 0:
                raise ValueError("morphism domain %s is not among the objects" % f.dom.text)
            if self.objects.count(f.cod) == 0:
                raise ValueError("morphism codomain %s is not among the objects" % f.cod.text)

    def decoded(self) -> list[QuasiFunction]:
        return [decode_quasi_function(desc) for desc, _ in self.morphisms.classes()]
