"""Power, universe-relative singletons and pairs, product, unions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import classes_by_onf, onf_value, power_oracle, product_oracle, union_oracle
from small_pools import flat_qsets
from qset import (
    CAtom,
    CapExceeded,
    Kind,
    MAtom,
    NonClassicalIndex,
    NotInUniverse,
    PrimPair,
    QSet,
    canonicalize,
    family_from_pairs,
    family_union,
    indist,
    opair_in,
    pair_in,
    power,
    product,
    relabel,
    singleton_in,
    union,
)
from qset.algebra import opair_from
from qset.gen import StructureGen

K = Kind("K")
J = Kind("J")
A1 = CAtom("A1")
A2 = CAtom("A2")


def k(label):
    return MAtom(K, label)


def j(label):
    return MAtom(J, label)


def qs(*entries):
    return QSet(entries)


# -- power -------------------------------------------------------------


def test_power_of_empty():
    p = power(QSet())
    assert p.qcard == 1
    assert p.text == "{{}}"


def test_power_of_two_indistinguishable_atoms():
    # forms {}, {m_K}, {m_K^2} with multiplicities 1, 2, 1
    p = power(qs((K, 2)))
    assert p.qcard == 4
    assert p.distinct_classes() == 3
    assert p.count(QSet()) == 1
    assert p.count(qs((K, 1))) == 2
    assert p.count(qs((K, 2))) == 1
    assert classes_by_onf(p) == dict(power_oracle(qs((K, 2))))


def test_power_mixed_atom_kinds():
    p = power(canonicalize([k(1), A1]))
    assert p.qcard == 4
    assert p.distinct_classes() == 4
    assert all(n == 1 for _, n in p.classes())


def test_power_qcard_law_and_oracle_agreement():
    gen = StructureGen(seed=11)
    for _ in range(30):
        x = gen.qset(max_qcard=7, max_depth=2)
        p = power(x)
        assert p.qcard == 2 ** x.qcard
        assert classes_by_onf(p) == dict(power_oracle(x))


def test_power_distinct_form_count():
    gen = StructureGen(seed=12)
    for _ in range(30):
        x = gen.qset(max_qcard=8, max_depth=1)
        expected = 1
        for _, n in x.classes():
            expected *= n + 1
        assert power(x).distinct_classes() == expected


def test_power_cap_is_an_error_not_a_truncation():
    with pytest.raises(CapExceeded):
        power(qs((K, 17)))
    with pytest.raises(CapExceeded):
        power(qs((K, 4)), cap=3)
    assert power(qs((K, 16))).qcard == 2 ** 16


# -- singleton_in ------------------------------------------------------


def test_singleton_takes_the_whole_class():
    u = qs((K, 3), (J, 1))
    s = singleton_in(k(1), u)
    assert s == qs((K, 3))
    assert s.qcard == 3  # "singleton" with quasi-cardinal above 1


def test_singleton_classical():
    assert singleton_in(A1, qs(A1, A2)) == qs(A1)


def test_singleton_requires_membership():
    with pytest.raises(NotInUniverse):
        singleton_in(j(1), qs((K, 3)))


def test_singleton_of_qset_member():
    inner = qs((K, 1))
    u = QSet([(inner, 2), A1])
    assert singleton_in(inner, u) == QSet([(inner, 2)])


# -- pair_in -----------------------------------------------------------


def test_pair_unions_the_classes():
    u = qs((K, 2), A1)
    assert pair_in(k(1), A1, u) == u
    assert pair_in(k(1), A1, u).qcard == 3


def test_pair_with_itself_is_the_singleton():
    u = qs((K, 2), A1, (J, 1))
    assert pair_in(k(1), k(2), u) == singleton_in(k(1), u)


def test_pair_classical_content():
    assert pair_in(A1, A2, qs(A1, A2)) == qs(A1, A2)


# -- opair_in ----------------------------------------------------------


def test_opair_classical_kuratowski():
    u = qs(A1, A2)
    assert opair_in(A1, A2, u) == canonicalize([[A1], [A1, A2]])


def test_opair_respects_indistinguishability():
    u = qs((K, 2), A1)
    assert opair_in(k(1), A1, u) == opair_in(k(2), A1, u)


def test_opair_is_ordered_for_singleton_classes():
    u = qs((K, 1), A1)
    assert opair_in(k(1), A1, u) != opair_in(A1, k(1), u)


def test_opair_collapses_when_components_coincide():
    u = qs((K, 2))
    o = opair_in(k(1), k(2), u)
    assert o.qcard == 1
    assert o == QSet([qs((K, 2))])


# -- product -----------------------------------------------------------


def test_product_counts_multiply():
    pr = product(qs((K, 2)), qs(A1))
    assert pr.qcard == 2
    assert pr.distinct_classes() == 1
    assert pr.count(PrimPair(K, A1)) == 2
    assert classes_by_onf(pr) == dict(product_oracle(qs((K, 2)), qs(A1)))


def test_product_classical():
    pr = product(qs(A1, A2), qs(A1))
    assert pr.qcard == 2
    assert pr.distinct_classes() == 2


def test_product_with_empty_factor():
    assert product(qs((K, 3)), QSet()) == QSet()


def test_product_qcard_law_and_oracle_agreement():
    gen = StructureGen(seed=21)
    for _ in range(30):
        x = gen.qset(max_qcard=5, max_depth=1)
        y = gen.qset(max_qcard=5, max_depth=1)
        pr = product(x, y)
        assert pr.qcard == x.qcard * y.qcard
        assert classes_by_onf(pr) == dict(product_oracle(x, y))


def test_product_cap_is_an_error():
    with pytest.raises(CapExceeded):
        product(qs((K, 70)), qs((J, 70)))
    with pytest.raises(CapExceeded):
        product(qs((K, 3)), qs((J, 2)), cap=5)


# -- pair coherence ----------------------------------------------------


def test_pair_coherence_exhaustive_on_small_universes():
    # PrimPair equality must track componentwise indistinguishability,
    # and indistinguishable components must give one weak ordered pair.
    for u in flat_qsets([K, J], [A1], 4):
        members = [d for d, _ in u.classes()]
        for a in members:
            for b in members:
                for a2 in members:
                    for b2 in members:
                        same = indist(a, a2) and indist(b, b2)
                        assert (PrimPair(a, b) == PrimPair(a2, b2)) == same
                        if same:
                            assert opair_in(a, b, u) == opair_in(a2, b2, u)


# -- union -------------------------------------------------------------


def test_union_takes_class_maximum():
    assert union(qs((K, 2)), qs((K, 1))) == qs((K, 2))


def test_union_of_disjoint_classes():
    assert union(qs((K, 1)), qs(A1)) == qs((K, 1), A1)


def test_union_idempotent():
    x = canonicalize([k(1), k(2), A1, [j(1)]])
    assert union(x, x) == x


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_union_laws(sa, sb, sc):
    # commutative, associative, and classwise max against the oracle
    a = StructureGen(sa).qset(max_qcard=5, max_depth=2)
    b = StructureGen(sb).qset(max_qcard=5, max_depth=2)
    c = StructureGen(sc).qset(max_qcard=5, max_depth=2)
    assert union(a, b) == union(b, a)
    assert union(union(a, b), c) == union(a, union(b, c))
    assert classes_by_onf(union(a, b)) == union_oracle(a, b)


# -- families ------------------------------------------------------------


def test_family_union_folds_entries():
    assert family_union([qs((K, 1)), qs((J, 1))]) == qs((K, 1), (J, 1))


def test_family_union_empty_index():
    assert family_union([]) == QSet()


def test_family_union_singleton_index_is_the_entry():
    x = canonicalize([k(1), [A1]])
    assert family_union([x]) == x


def test_family_union_rejects_non_qset_entries():
    with pytest.raises(TypeError):
        family_union([qs((K, 1)), A1])


def test_family_index_must_be_classical():
    with pytest.raises(NonClassicalIndex):
        family_from_pairs(QSet([PrimPair(K, qs(A1))]))


def test_family_from_pairs():
    graph = QSet([PrimPair(A1, qs((K, 1))), PrimPair(A2, qs((J, 2)))])
    entries = family_from_pairs(graph)
    assert entries == {A1: qs((K, 1)), A2: qs((J, 2))}
    assert family_union(entries.values()) == qs((K, 1), (J, 2))


def test_family_from_pairs_rejects_conflicts():
    graph = QSet([PrimPair(A1, qs((K, 1))), PrimPair(A1, qs((K, 2)))])
    with pytest.raises(ValueError):
        family_from_pairs(graph)


def test_family_from_pairs_rejects_non_qset_entries():
    with pytest.raises(TypeError):
        family_from_pairs(QSet([PrimPair(A1, A2)]))


# -- values built without entry checks ----------------------------------


def _assert_validated_twin(r):
    # r, and each quasi-set class of it, equals the value QSet() builds from its classes
    twin = QSet(list(r.classes()))
    seen = (r.text, r.key, hash(r), r.qcard, r.depth, r.is_classical, list(r.classes()))
    assert seen == (twin.text, twin.key, hash(twin), twin.qcard, twin.depth, twin.is_classical, list(twin.classes()))
    assert r == twin
    for d, _ in r.classes():
        if isinstance(d, QSet):
            _assert_validated_twin(d)


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_algebra_results_equal_validated_construction(sx, sy, su, pick):
    x = StructureGen(sx).qset(max_qcard=4, max_depth=2)
    y = StructureGen(sy).qset(max_qcard=4, max_depth=2)
    u = union(StructureGen(su).qset(max_qcard=5, max_depth=2), QSet([x, y]))
    members = [d for d, _ in u.classes()]
    a = members[pick % len(members)]
    b = members[pick // len(members) % len(members)]
    results = [
        power(x),
        product(x, y),
        union(x, y),
        singleton_in(a, u),
        pair_in(a, b, u),
        opair_in(a, b, u),
        opair_from(singleton_in(a, u), pair_in(a, b, u)),
    ]
    for r in results:
        _assert_validated_twin(r)


# -- equivariance of the algebra ---------------------------------------


def test_algebra_is_equivariant_under_relabeling():
    gen = StructureGen(seed=31)
    for _ in range(20):
        build = gen.labeled_build(max_qcard=4, max_depth=1, allow_pairs=False)
        mapping = gen.kind_permutation(build)
        x = canonicalize(build)
        y = relabel(build, mapping)
        assert y == x
        assert power(y) == power(x)
        assert product(y, y) == product(x, x)
        assert union(x, y) == x
