"""Canonical forms, indistinguishability, counting, relabeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import indist_oracle, onf_build, onf_value
from small_pools import flat_qsets
from qset import (
    CAtom,
    InvalidPermutation,
    Kind,
    MAtom,
    PrimPair,
    QSet,
    RawPair,
    canonical_text,
    canonicalize,
    indist,
    is_classical,
    mem_count,
    qcard,
    relabel,
)
from qset.algebra import power, product
from qset.gen import StructureGen

K = Kind("K")
J = Kind("J")
L = Kind("L")
A1 = CAtom("A1")
A2 = CAtom("A2")


def k(label):
    return MAtom(K, label)


def j(label):
    return MAtom(J, label)


# -- indistinguishability ---------------------------------------------


def test_atoms_of_one_kind_are_indistinguishable():
    assert indist(k(1), k(2))


def test_classical_atoms_keep_identity():
    assert not indist(A1, A2)
    assert indist(A1, CAtom("A1"))


def test_label_choice_is_invisible():
    a = canonicalize([k(1), k(2)])
    b = canonicalize([k(7), k(9)])
    assert indist(a, b)
    assert a == b
    assert indist_oracle(a, b)


def test_counts_distinguish():
    assert not indist(canonicalize([k(1)]), canonicalize([k(1), k(2)]))


def test_atoms_and_qsets_are_distinguishable():
    assert not indist(k(1), canonicalize([k(1)]))
    assert not indist(A1, QSet())


def test_cross_kind_atoms_differ():
    assert not indist(k(1), j(1))


def test_indist_matches_brute_force_on_small_qsets():
    # pool: every flat qset of qcard <= 3 plus a few nested shapes
    pool = flat_qsets([K, J], [A1], 3)
    pool += [
        canonicalize([[k(1)], A1]),
        canonicalize([[k(1), k(2)]]),
        canonicalize([[j(1)], [j(2)]]),
        canonicalize([RawPair(k(1), A1)]),
        canonicalize([RawPair(A1, k(1))]),
    ]
    for x in pool:
        for y in pool:
            assert indist(x, y) == indist_oracle(x, y), (x.text, y.text)


def test_indist_symmetry_and_reflexivity():
    vals = [canonicalize([k(1), A1]), canonicalize([j(2)]), QSet(), A1, k(3)]
    for x in vals:
        assert indist(x, x)
        for y in vals:
            assert indist(x, y) == indist(y, x)


# -- quasi-cardinality ------------------------------------------------


def test_qcard_empty():
    assert qcard(QSet()) == 0


def test_qcard_counts_copies():
    assert qcard(canonicalize([k(1), k(2)])) == 2


def test_qcard_top_level_only():
    x = canonicalize([k(1), k(2), A1, [j(1)]])
    assert qcard(x) == 4


def test_qcard_rejects_atoms():
    with pytest.raises(TypeError):
        qcard(k(1))


# -- classicality -----------------------------------------------------


def test_classical_atoms_only():
    assert is_classical(canonicalize([A1, A2]))


def test_one_m_atom_spoils_classicality():
    assert not is_classical(canonicalize([k(1)]))


def test_classicality_is_hereditary():
    assert not is_classical(canonicalize([A1, [[j(1)]]]))


def test_classicality_descends_to_members():
    x = canonicalize([A1, [A2, [A1]]])
    assert is_classical(x)
    for desc, _ in x.classes():
        if isinstance(desc, QSet):
            assert is_classical(desc)


# -- membership -------------------------------------------------------


def test_mem_count_by_class():
    u = canonicalize([k(1), k(2), k(3)])
    assert mem_count(k(99), u) == 3
    assert mem_count(j(1), u) == 0


def test_mem_count_classical():
    u = canonicalize([A1, k(1), k(2)])
    assert mem_count(A1, u) == 1
    assert mem_count(A2, u) == 0


def test_contains_uses_classes():
    u = canonicalize([k(1), [A1]])
    assert k(42) in u
    assert canonicalize([A1]) in u
    assert A1 not in u


# -- construction rules -----------------------------------------------


def test_same_label_twice_is_one_atom():
    assert qcard(canonicalize([k(1), k(1)])) == 1


def test_repeated_classical_atom_collapses():
    assert qcard(canonicalize([A1, A1])) == 1


def test_kind_entries_carry_bulk_counts():
    assert QSet([(K, 3)]).qcard == 3


def test_nested_counts_add():
    inner = canonicalize([k(1)])
    x = QSet([(inner, 2), (inner, 1)])
    assert x.count(inner) == 3


def test_labeled_atom_rejects_multiplicity():
    with pytest.raises(ValueError):
        QSet([(k(1), 2)])


def test_classical_atom_rejects_multiplicity():
    with pytest.raises(ValueError):
        QSet([(A1, 2)])


def test_counts_must_be_positive():
    with pytest.raises(ValueError):
        QSet([(K, 0)])


def test_non_elements_are_rejected():
    with pytest.raises(TypeError):
        QSet(["what"])


# -- canonical text ----------------------------------------------------


def test_text_empty():
    assert QSet().text == "{}"


def test_text_orders_groups():
    x = canonicalize([A1, k(1), [j(1)], RawPair(A1, A1)])
    assert x.text == "{m_K, A1, {m_J}, <A1, A1>}"


def test_text_sorts_kinds_by_ident():
    assert canonicalize([k(1), j(1)]).text == "{m_J, m_K}"


@pytest.mark.parametrize("make", [lambda: CAtom("m_Q"), lambda: Kind("Q, m_R")],
                         ids=["catom", "kind"])
def test_classical_and_m_atom_texts_cannot_clash(make):
    # m-atoms render with the m_ prefix and classical atoms never do, so
    # CAtom("m_Q") would render as Kind("Q")'s atoms, and {Kind("Q, m_R")}
    # as {Kind("Q"), Kind("R")}
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("name", ["", "a b", "Q, m_R", "x}, {y", "1x", "é"])
@pytest.mark.parametrize("atom", [Kind, CAtom])
def test_atom_names_must_be_identifiers(atom, name):
    # any other name could render like another value
    with pytest.raises(ValueError):
        atom(name)


def _hereditary(value, out):
    out.append(value)
    if isinstance(value, QSet):
        for d, _ in value.classes():
            _hereditary(d, out)
    elif isinstance(value, PrimPair):
        _hereditary(value.first, out)
        _hereditary(value.second, out)


_RANKS = {Kind: 0, CAtom: 1, QSet: 2, PrimPair: 3}


def test_text_is_the_identity_of_a_value():
    # names that share letters with each other and with the m_ prefix
    gen = StructureGen(
        7, kinds=[Kind("K"), Kind("m_K"), Kind("K_m")], catoms=[CAtom("K"), CAtom("mK"), CAtom("A1")],
    )
    values = []
    for i in range(5000):
        x = gen.qset(max_qcard=4, max_depth=2)
        _hereditary(x, values)
        if x.qcard <= 4:
            _hereditary(power(x), values)
        if i % 2 and x.qcard * values[-1].qcard <= 16 and isinstance(values[-1], QSet):
            _hereditary(product(x, values[-1]), values)
    values = list({id(v): v for v in values}.values())
    assert len(values) >= 5000
    by_text, by_onf = {}, {}
    for v in values:
        assert v.key == (_RANKS[type(v)], v.text)
        onf = onf_value(v)
        by_text.setdefault(v.text, set()).add(onf)
        by_onf.setdefault(onf, set()).add(v.text)
    assert all(len(forms) == 1 for forms in by_text.values())
    assert all(len(texts) == 1 for texts in by_onf.values())
    # == and hash agree with text: a set of the values keeps one per text
    assert len(set(values)) == len(by_text)


def test_text_counts_as_superscript():
    assert canonicalize([k(1), k(2), A1]).text == "{m_K^2, A1}"


def test_text_is_stable_for_nested_forms():
    x = canonicalize([[k(1)], [k(1)], [A1, A2]])
    assert x.text == "{{A1, A2}, {m_K}^2}"


# -- pairs -------------------------------------------------------------


def test_prim_pair_compares_componentwise():
    assert PrimPair(k(1), A1) == PrimPair(k(2), A1)
    assert PrimPair(k(1), A1) != PrimPair(j(1), A1)
    assert indist(PrimPair(k(1), A1), PrimPair(k(5), A1))


def test_prim_pair_is_ordered():
    assert PrimPair(k(1), A1) != PrimPair(A1, k(1))


def test_raw_pair_canonicalizes_to_prim_pair():
    x = canonicalize([RawPair([k(1)], A1)])
    (desc, n), = x.classes()
    assert n == 1
    assert isinstance(desc, PrimPair)
    assert desc.first == canonicalize([k(1)])


def test_deep_pair_chain_builds_renders_and_counts():
    # every descriptor caches text, key, depth and hash, so nothing
    # re-walks the chain
    p = CAtom("a")
    for _ in range(1500):
        p = PrimPair(p, CAtom("a"))
    x = QSet([p])
    assert canonical_text(p) == "<" * 1500 + "a" + ", a>" * 1500
    assert x.depth == 1501
    assert p in x


def _chain(leaf, depth=1500):
    p = CAtom("a")
    for _ in range(depth):
        p = PrimPair(p, leaf)
    return p


def test_separately_built_deep_pair_chains_compare():
    # equality compares the cached texts, so no Python frame is spent
    # per level
    a, b, c = _chain(CAtom("a")), _chain(CAtom("a")), _chain(CAtom("b"))
    assert a is not b
    assert a == b
    assert a != c
    assert QSet([a]) == QSet([b])
    assert QSet([a]) != QSet([c])


def _nesting(leaf, pairs, depth=1500):
    """{...{leaf}...}, ``depth`` deep; with ``pairs`` every other level
    holds the pair <inner, leaf> in place of inner."""
    x = QSet([leaf])
    for level in range(depth):
        x = QSet([PrimPair(x, leaf) if pairs and level % 2 else x])
    return x


@pytest.mark.parametrize("pairs", [False, True], ids=["qsets", "qsets-and-pairs"])
def test_separately_built_deep_nestings_compare(pairs):
    # QSet equality compares texts too, through quasi-sets and pairs alike
    a, b, c = _nesting(CAtom("a"), pairs), _nesting(CAtom("a"), pairs), _nesting(CAtom("b"), pairs)
    assert a is not b
    assert a == b
    assert a != c
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("value, attr", [
    (QSet([A1]), "text"),
    (QSet([A1]), "qcard"),
    (PrimPair(A1, A2), "first"),
    (PrimPair(A1, A2), "text"),
])
def test_values_are_immutable(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, getattr(value, attr))


# -- relabeling and equivariance ---------------------------------------


def test_relabel_swap_is_identity_on_canonical_form():
    build = [k(1), k(2)]
    assert relabel(build, {k(1): k(2), k(2): k(1)}) == canonicalize(build)


def test_relabel_to_fresh_label():
    build = [k(1), A1]
    out = relabel(build, {k(1): k(5)})
    assert out == canonicalize(build)
    assert out.text == "{m_K, A1}"


def test_relabel_must_preserve_kinds():
    with pytest.raises(InvalidPermutation):
        relabel([k(1)], {k(1): j(1)})


def test_relabel_must_be_injective():
    with pytest.raises(InvalidPermutation):
        relabel([k(1), k(2)], {k(1): k(9), k(2): k(9)})


# -- property tests ----------------------------------------------------

_KINDS = [K, J, L]
_CATOMS = [A1, A2]


def _leaves(draw):
    if draw(st.integers(0, 2)) < 2:
        kind = draw(st.sampled_from(_KINDS))
        return MAtom(kind, draw(st.integers(1, 6)))
    return draw(st.sampled_from(_CATOMS))


@st.composite
def labeled_builds(draw, depth=3):
    out = []
    for _ in range(draw(st.integers(0, 6))):
        roll = draw(st.integers(0, 9))
        if depth > 0 and roll == 0:
            out.append(draw(labeled_builds(depth=depth - 1)))
        elif depth > 0 and roll == 1:
            out.append(RawPair(_leaves(draw), _leaves(draw)))
        else:
            out.append(_leaves(draw))
    return out


def _collect(build, acc):
    if isinstance(build, MAtom):
        acc.setdefault(build.kind, set()).add(build)
    elif isinstance(build, list):
        for c in build:
            _collect(c, acc)
    elif isinstance(build, RawPair):
        _collect(build.first, acc)
        _collect(build.second, acc)


@st.composite
def builds_with_permutation(draw):
    build = draw(labeled_builds())
    by_kind: dict = {}
    _collect(build, by_kind)
    mapping = {}
    for kind, atoms in by_kind.items():
        atoms = sorted(atoms, key=lambda a: a.label)
        if draw(st.booleans()):
            labels = draw(st.permutations([a.label for a in atoms]))
        else:
            labels = [a.label + 100 for a in atoms]
        mapping.update({a: MAtom(kind, lbl) for a, lbl in zip(atoms, labels)})
    return build, mapping


@given(builds_with_permutation())
@settings(max_examples=200, deadline=None)
def test_equivariance(build_and_permutation):
    # canonicalize(b) == canonicalize(pi(b)) for kind-preserving bijections pi
    build, mapping = build_and_permutation
    assert relabel(build, mapping) == canonicalize(build)


@given(labeled_builds())
@settings(max_examples=200, deadline=None)
def test_canonical_form_matches_independent_normal_form(build):
    # the package's canonical value and the oracle's normal form agree
    assert onf_value(canonicalize(build)) == onf_build(build)


@given(labeled_builds(), labeled_builds())
@settings(max_examples=200, deadline=None)
def test_equality_is_exactly_normal_form_equality(a, b):
    assert (canonicalize(a) == canonicalize(b)) == (onf_build(a) == onf_build(b))


@given(labeled_builds())
@settings(max_examples=100, deadline=None)
def test_equal_values_share_hash_and_text(build):
    x, y = canonicalize(build), canonicalize(list(build))
    assert x == y
    assert hash(x) == hash(y)
    assert x.text == y.text


_DRAW_BOUNDS = [(q, d, p) for q in range(9) for d in range(4) for p in (True, False)]


def test_generated_values_are_the_canonical_forms_of_generated_builds():
    # gen.qset draws values directly; from equal states it must give the
    # canonical form of the build labeled_build draws, and leave the RNG
    # in the same state, so later draws stay in step too
    for seed in range(300):
        catoms = [] if seed % 5 == 4 else None
        direct, labeled = StructureGen(seed, catoms=catoms), StructureGen(seed, catoms=catoms)
        for i in range(4):
            bounds = _DRAW_BOUNDS[(4 * seed + i) % len(_DRAW_BOUNDS)]
            value = direct.qset(*bounds)
            assert type(value) is QSet
            assert value.text == canonicalize(labeled.labeled_build(*bounds)).text, (seed, bounds)
            assert direct.rng.getstate() == labeled.rng.getstate(), (seed, bounds)
