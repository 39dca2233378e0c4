"""Exhaustive pools of small structures for the tests.

Every quasi-set over small atom pools, and every relation and
quasi-function between two quasi-sets, in a fixed order, built through
the public constructors.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from qset import CAtom, Kind, QSet
from qset.morphism import QuasiFunction, QuasiRelation


def flat_qsets(kinds: Sequence[Kind], catoms: Sequence[CAtom], max_qcard: int) -> list[QSet]:
    """Every quasi-set of atoms over the given pools with qcard <= bound."""
    out = []
    kind_ranges = [range(max_qcard + 1) for _ in kinds]
    catom_ranges = [range(2) for _ in catoms]
    for kcounts in itertools.product(*kind_ranges):
        for ccounts in itertools.product(*catom_ranges):
            if sum(kcounts) + sum(ccounts) > max_qcard:
                continue
            entries = [(k, n) for k, n in zip(kinds, kcounts) if n]
            entries += [(c, 1) for c, n in zip(catoms, ccounts) if n]
            out.append(QSet(entries))
    return out


def all_relations(dom: QSet, cod: QSet) -> Iterator[QuasiRelation]:
    """Every class-level relation between two quasi-sets."""
    pairs = [
        (a, b)
        for a, _ in dom.classes()
        for b, _ in cod.classes()
    ]
    for mask in range(1 << len(pairs)):
        graph = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        yield QuasiRelation(dom, cod, graph)


def all_quasi_functions(dom: QSet, cod: QSet) -> list[QuasiFunction]:
    """Every total class-functional graph from dom to cod."""
    dom_classes = [d for d, _ in dom.classes()]
    cod_classes = [d for d, _ in cod.classes()]
    if not dom_classes:
        return [QuasiFunction(dom, cod, frozenset())]
    if not cod_classes:
        return []
    out = []
    for images in itertools.product(cod_classes, repeat=len(dom_classes)):
        graph = frozenset(zip(dom_classes, images))
        out.append(QuasiFunction(dom, cod, graph))
    return out
