"""Independent reference implementations backing the test suite.

Every function here recomputes a result from labeled occurrences using
its own nested normal form, sharing no canonicalization or counting
code with the package under test.  Expected values frozen into the
tests come from these oracles (or from hand computation where noted in
the individual tests).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice, product as iproduct

from qset import CAtom, Kind, MAtom, PrimPair, QSet, RawPair
from qset.morphism import QuasiRelation

# -- independent normal form ------------------------------------------
#
# Atoms become ("m", kind) / ("c", id) tags, pairs become ("p", a, b),
# collections become ("q", sorted (form, count) tuples).  m-atom labels
# are erased; repeated labels inside one collection are one occurrence.


def onf_build(node):
    """Normal form of a labeled build (lists, RawPair, atoms)."""
    if isinstance(node, MAtom):
        return ("m", node.kind.ident)
    if isinstance(node, CAtom):
        return ("c", node.ident)
    if isinstance(node, (RawPair, PrimPair)):
        return ("p", onf_build(node.first), onf_build(node.second))
    if isinstance(node, list):
        seen: set = set()
        forms = []
        for child in node:
            if isinstance(child, MAtom):
                key = ("atom", child.kind.ident, child.label)
                if key in seen:
                    continue
                seen.add(key)
                forms.append(("m", child.kind.ident))
            elif isinstance(child, CAtom):
                key = ("catom", child.ident)
                if key in seen:
                    continue
                seen.add(key)
                forms.append(("c", child.ident))
            else:
                forms.append(onf_build(child))
        return ("q", tuple(sorted(Counter(forms).items())))
    raise TypeError("not a build node: %r" % (node,))


def onf_value(value):
    """Normal form of a package value (QSet, descriptor, atom, pair)."""
    if isinstance(value, Kind):
        return ("m", value.ident)
    if isinstance(value, MAtom):
        return ("m", value.kind.ident)
    if isinstance(value, CAtom):
        return ("c", value.ident)
    if isinstance(value, PrimPair):
        return ("p", onf_value(value.first), onf_value(value.second))
    if isinstance(value, QSet):
        return ("q", tuple(sorted((onf_value(d), n) for d, n in value.classes())))
    raise TypeError("not a value: %r" % (value,))


_ONF_RANK = {"m": 0, "c": 1, "q": 2, "p": 3}


def onf_text(form) -> str:
    """The canonical text of a normal form, rendered from the form alone:
    a kind's atoms as ``m_<kind>``, a classical atom as its id, a pair as
    ``<first, second>``, and a collection as its classes in braces:
    kinds, then classical atoms, collections and pairs, each group by
    text, a count above 1 written ``^n``."""
    tag = form[0]
    if tag == "m":
        return "m_" + form[1]
    if tag == "c":
        return form[1]
    if tag == "p":
        return "<%s, %s>" % (onf_text(form[1]), onf_text(form[2]))
    entries = sorted((_ONF_RANK[f[0]], onf_text(f), n) for f, n in form[1])
    return "{" + ", ".join(text if n == 1 else "%s^%d" % (text, n) for _, text, n in entries) + "}"


def classes_by_onf(x: QSet) -> dict:
    return {onf_value(d): n for d, n in x.classes()}


def indist_oracle(a, b) -> bool:
    """Brute-force indistinguishability: equal normal forms."""
    return onf_value(a) == onf_value(b)


# -- labeled expansions ------------------------------------------------


def _occurrences(x: QSet) -> list:
    """One entry per top-level occurrence, tagged with its class form."""
    out = []
    for d, n in x.classes():
        form = onf_value(d)
        out.extend((form, i) for i in range(n))
    return out


def power_oracle(x: QSet) -> Counter:
    """Sub-qset forms of x with multiplicities, via labeled subsets.

    Every subset of the occurrence list is normalized; the returned
    counter maps each distinct sub-form to how many labeled subsets
    realize it.
    """
    occs = _occurrences(x)
    tally: Counter = Counter()
    for mask in range(1 << len(occs)):
        chosen = [occs[i][0] for i in range(len(occs)) if mask >> i & 1]
        tally[("q", tuple(sorted(Counter(chosen).items())))] += 1
    return tally


def product_oracle(x: QSet, y: QSet) -> Counter:
    """Ordered-pair forms with multiplicities, via labeled occurrences."""
    tally: Counter = Counter()
    for (fx, _), (fy, _) in iproduct(_occurrences(x), _occurrences(y)):
        tally[("p", fx, fy)] += 1
    return tally


def union_oracle(x: QSet, y: QSet) -> dict:
    cx, cy = classes_by_onf(x), classes_by_onf(y)
    return {f: max(cx.get(f, 0), cy.get(f, 0)) for f in set(cx) | set(cy)}


# -- the congruence formula at the labeled level -----------------------


def congruence_oracle(rel: QuasiRelation) -> bool:
    """Evaluate the quasi-function condition on a labeled expansion.

    The relation's class graph is expanded to individual occurrences
    x of the domain and y of the codomain; the labeled relation holds
    of (x, y) when their classes are related.  Checked literally:

      * congruence: related (x,y) and (x',y') with x = x' up to the
        kind/form equivalence force y = y' up to that equivalence;
      * totality: every domain occurrence is related to some y.
    """
    xs = [("x", i, f) for i, (f, _) in enumerate(_occurrences(rel.dom))]
    ys = [("y", i, f) for i, (f, _) in enumerate(_occurrences(rel.cod))]
    graph_forms = {(onf_value(a), onf_value(b)) for a, b in rel.graph}
    related = [(x, y) for x in xs for y in ys if (x[2], y[2]) in graph_forms]

    for x1, y1 in related:
        for x2, y2 in related:
            if x1[2] == x2[2] and y1[2] != y2[2]:
                return False
    for x in xs:
        if not any(px is x for px, _ in related):
            return False
    return True


# -- the closure audit --------------------------------------------------
#
# The relative constructors read a universe's labeled occurrences: the
# class of x is every occurrence indistinguishable from x, the pair of x
# and y every occurrence indistinguishable from either.  Results are
# normal forms.


def _qform(counts) -> tuple:
    """The collection form with these classes: a list of forms, or a
    mapping from form to count."""
    return ("q", tuple(sorted(Counter(counts).items())))


def singleton_in_oracle(x, universe: QSet) -> tuple:
    fx = onf_value(x)
    return _qform([f for f, _ in _occurrences(universe) if f == fx])


def pair_in_oracle(x, y, universe: QSet) -> tuple:
    forms = {onf_value(x), onf_value(y)}
    return _qform([f for f, _ in _occurrences(universe) if f in forms])


def opair_in_oracle(x, y, universe: QSet) -> tuple:
    """{class of x, pair of x and y}: a set of two members, one when the
    two are indistinguishable."""
    return _qform(dict.fromkeys({singleton_in_oracle(x, universe), pair_in_oracle(x, y, universe)}, 1))


def family_union_oracle(entries) -> tuple:
    """The union of a family's entries: each class at its largest count."""
    counts: dict = {}
    for entry in entries:
        for f, n in classes_by_onf(entry).items():
            counts[f] = max(counts.get(f, 0), n)
    return _qform(counts)


def _classical(form) -> bool:
    if form[0] in ("m", "c"):
        return form[0] == "c"
    if form[0] == "p":
        return _classical(form[1]) and _classical(form[2])
    return all(_classical(f) for f, _ in form[1])


def audit_oracle(elements: QSet, caps, family_index_bound: int = 3, max_families: int = 200) -> dict:
    """Every defect of a closure audit of ``elements``, per section, as
    (operation, witness forms, missing form or cap note).

    cond1: the power of each collection member; cond2: the class of each
    member; cond3: the product of each ordered pair of collection
    members; cond4: the union of each family of up to
    ``family_index_bound`` distinct classical members, each indexing a
    collection member, the first ``max_families`` of them by index size,
    then index, then entries; theorem-1: the union of each unordered pair
    of collection members, the pair of each unordered member pair and the
    ordered pair of each ordered one.  Members are taken in the order of
    ``elements.classes()``, which fixes the witness order of an unordered
    pair and the families a cut sweep reaches.  A power or product whose
    qcard the caps refuse is a defect with the cap's note.
    """
    present = classes_by_onf(elements)
    members = [d for d, _ in elements.classes()]
    qsets = [d for d in members if isinstance(d, QSet)]
    qcard = {x: sum(classes_by_onf(x).values()) for x in qsets}
    defects: dict = {s: [] for s in ("cond1", "cond2", "cond3", "cond4", "theorem1")}

    def check(section, op, witnesses, result):
        if isinstance(result, str) or result not in present:
            defects[section].append((op, tuple(map(onf_value, witnesses)), result))

    for x in qsets:
        capped = qcard[x] > caps.power_qcard
        check("cond1", "power", [x], "power-cap" if capped else _qform(power_oracle(x)))
    for x in members:
        check("cond2", "singleton", [x], singleton_in_oracle(x, elements))
    for x, y in iproduct(qsets, repeat=2):
        capped = qcard[x] * qcard[y] > caps.product_qcard
        check("cond3", "product", [x, y], "product-cap" if capped else _qform(product_oracle(x, y)))
    classical = [d for d in members if _classical(onf_value(d))]
    families = (
        index + entries
        for size in range(1, family_index_bound + 1)
        for index in combinations(classical, size)
        for entries in iproduct(qsets, repeat=size)
    )
    for family in islice(families, max_families):
        check("cond4", "family_union", family, family_union_oracle(family[len(family) // 2:]))
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            if i <= j and isinstance(x, QSet) and isinstance(y, QSet):
                check("theorem1", "union", [x, y], _qform(union_oracle(x, y)))
            if i <= j:
                check("theorem1", "pair", [x, y], pair_in_oracle(x, y, elements))
            check("theorem1", "opair", [x, y], opair_in_oracle(x, y, elements))
    return defects
