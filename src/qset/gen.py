"""Seeded generation of small structures.

Everything here is deterministic for a fixed seed: the laws sweep in
the CLI has to produce byte-identical reports run after run, and the
test suite freezes expected values against these generators.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .kernel import CAtom, Kind, MAtom, PrimPair, QSet, RawPair
from .morphism import QuasiFunction
from .universe import BuildCaps, Fragment, build_fragment

__all__ = [
    "StructureGen",
    "default_kinds",
    "default_catoms",
]


def default_kinds(n: int) -> list[Kind]:
    return [Kind("K%d" % i) for i in range(1, n + 1)]


def default_catoms(n: int) -> list[CAtom]:
    return [CAtom("A%d" % i) for i in range(1, n + 1)]


class StructureGen:
    """Random labeled builds, quasi-sets, morphisms, and fragments."""

    def __init__(self, seed: int = 0, kinds: Sequence[Kind] | None = None,
                 catoms: Sequence[CAtom] | None = None):
        self.rng = random.Random(seed)
        self.kinds = list(kinds) if kinds is not None else default_kinds(3)
        self.catoms = list(catoms) if catoms is not None else default_catoms(3)
        self._next_label = itertools.count(1)

    def fresh_atom(self, kind: Kind) -> MAtom:
        return MAtom(kind, next(self._next_label))

    def labeled_build(self, max_qcard: int = 8, max_depth: int = 3,
                      allow_pairs: bool = True) -> list:
        """A labeled build (list tree) with at most max_qcard top elements."""
        return self._draw(max_qcard, max_depth, allow_pairs, False)

    def qset(self, max_qcard: int = 8, max_depth: int = 2, allow_pairs: bool = True) -> QSet:
        """The canonical value of the labeled build these bounds would draw.

        It makes the same RNG calls as ``labeled_build``, so from equal
        states ``qset(...)`` equals ``canonicalize(labeled_build(...))``,
        but it draws the value directly, with no labels.
        """
        return self._draw(max_qcard, max_depth, allow_pairs, True)

    def _draw(self, max_qcard: int, max_depth: int, allow_pairs: bool, canonical: bool):
        """The one draw sequence of builds: a labeled build, or its canonical value.

        A canonical draw puts a kind where a build has a fresh atom and a
        PrimPair where it has a RawPair, and counts a collection's entries
        as ``canonicalize`` does: each fresh atom once, a classical atom
        once however often drawn, nested collections and pairs by
        occurrence.
        """
        rng = self.rng
        budget = rng.randint(0, max_qcard)
        out: list = []
        for _ in range(budget):
            roll = rng.random()
            if max_depth > 0 and roll < 0.25:
                out.append(self._draw(max(1, max_qcard // 2), max_depth - 1, allow_pairs, canonical))
            elif allow_pairs and max_depth > 0 and roll < 0.33:
                first = self._pair_leaf(max_depth - 1, canonical)
                second = self._pair_leaf(max_depth - 1, canonical)
                out.append(PrimPair(first, second) if canonical else RawPair(first, second))
            elif roll < 0.66 or not self.catoms:
                kind = rng.choice(self.kinds)
                out.append(kind if canonical else self.fresh_atom(kind))
            else:
                out.append(rng.choice(self.catoms))
        if not canonical:
            return out
        counts: dict = {}
        for entry in out:
            counts[entry] = 1 if entry.__class__ is CAtom else counts.get(entry, 0) + 1
        return QSet._of(counts)

    def _pair_leaf(self, depth: int, canonical: bool):
        rng = self.rng
        if depth > 0 and rng.random() < 0.3:
            return self._draw(2, depth, False, canonical)
        if rng.random() < 0.6 or not self.catoms:
            kind = rng.choice(self.kinds)
            return kind if canonical else self.fresh_atom(kind)
        return rng.choice(self.catoms)

    def kind_permutation(self, build) -> dict[MAtom, MAtom]:
        """A kind-preserving label bijection over the atoms of a build.

        Half the time the labels are shuffled among themselves, half the
        time they are moved to an entirely fresh label range.
        """
        by_kind: dict[Kind, list[MAtom]] = {}
        _collect_atoms(build, by_kind)
        mapping: dict[MAtom, MAtom] = {}
        for kind, atoms in by_kind.items():
            labels = [a.label for a in atoms]
            if self.rng.random() < 0.5:
                shuffled = labels[:]
                self.rng.shuffle(shuffled)
                targets = [MAtom(kind, lbl) for lbl in shuffled]
            else:
                targets = [self.fresh_atom(kind) for _ in atoms]
            mapping.update(zip(atoms, targets))
        return mapping

    def quasi_function(self, dom: QSet, cod: QSet) -> QuasiFunction | None:
        dom_classes = [d for d, _ in dom.classes()]
        cod_classes = [d for d, _ in cod.classes()]
        if dom_classes and not cod_classes:
            return None
        choice = self.rng.choice
        # one image per domain class: a quasi-function by construction
        return QuasiFunction._of(dom, cod, {a: choice(cod_classes) for a in dom_classes})

    def composable_chain(self, length: int = 3, max_qcard: int = 5) -> list[QuasiFunction]:
        """length functions f1: A0 -> A1, f2: A1 -> A2, ... ready to compose."""
        while True:
            objects = [self.qset(max_qcard=max_qcard, max_depth=1) for _ in range(length + 1)]
            if all(o.qcard > 0 for o in objects[1:]):
                break
        chain = []
        for i in range(length):
            f = self.quasi_function(objects[i], objects[i + 1])
            assert f is not None
            chain.append(f)
        return chain

    def fragment(self, max_seeds: int = 3, max_depth: int = 2,
                 caps: BuildCaps = BuildCaps(max_members=32)) -> Fragment:
        seeds: list = []
        for _ in range(self.rng.randint(1, max_seeds)):
            if self.rng.random() < 0.4:
                seeds.append(self.fresh_atom(self.rng.choice(self.kinds)))
            elif self.rng.random() < 0.55 and self.catoms:
                seeds.append(self.rng.choice(self.catoms))
            else:
                seeds.append(self.qset(max_qcard=3, max_depth=1, allow_pairs=False))
        if not seeds:
            seeds.append(self.fresh_atom(self.rng.choice(self.kinds)))
        depth = self.rng.randint(1, max_depth)
        return build_fragment(seeds, depth, caps)


def _collect_atoms(build, by_kind: dict[Kind, list[MAtom]]):
    if isinstance(build, MAtom):
        bucket = by_kind.setdefault(build.kind, [])
        if build not in bucket:
            bucket.append(build)
    elif isinstance(build, list):
        for child in build:
            _collect_atoms(child, by_kind)
    elif isinstance(build, RawPair):
        _collect_atoms(build.first, by_kind)
        _collect_atoms(build.second, by_kind)
