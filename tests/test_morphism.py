"""Quasi-functions, composition, the category-law checker, encodings."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import congruence_oracle
from small_pools import all_quasi_functions, all_relations, flat_qsets
from qset import (
    CAtom,
    CategoryPresentation,
    InvalidQuasiFunction,
    Kind,
    MAtom,
    NotComposable,
    QSet,
    QuasiFunction,
    QuasiRelation,
    canonicalize,
    check_category_laws,
    compose,
    decode_quasi_function,
    encode_quasi_function,
    identity,
    is_quasi_function,
    qfun_equiv,
    quasi_function,
)
from qset.gen import StructureGen

K = Kind("K")
J = Kind("J")
A1 = CAtom("A1")
A2 = CAtom("A2")


def qs(*entries):
    return QSet(entries)


# -- the quasi-function condition ---------------------------------------


def test_single_class_map_is_a_quasi_function():
    rel = QuasiRelation(qs((K, 2)), qs((J, 2)), {(K, J)})
    assert is_quasi_function(rel)


def test_splitting_a_class_violates_congruence():
    # indistinguishable arguments sent to distinguishable images
    rel = QuasiRelation(qs((K, 2)), qs((J, 1), A1), {(K, J), (K, A1)})
    assert not is_quasi_function(rel)


def test_classical_bijection_is_a_quasi_function():
    rel = QuasiRelation(qs(A1, A2), qs(A1, A2), {(A1, A2), (A2, A1)})
    assert is_quasi_function(rel)


def test_partial_graph_is_not_a_quasi_function():
    rel = QuasiRelation(qs((K, 1), A1), qs((J, 1)), {(K, J)})
    assert not is_quasi_function(rel)


def test_constructor_enforces_the_condition():
    with pytest.raises(InvalidQuasiFunction):
        QuasiFunction(qs((K, 2)), qs((J, 1), A1), frozenset({(K, J), (K, A1)}))
    with pytest.raises(InvalidQuasiFunction):
        QuasiFunction(qs((K, 1), A1), qs((J, 1)), frozenset({(K, J)}))


def test_graph_must_reference_present_classes():
    with pytest.raises(ValueError):
        QuasiRelation(qs((K, 1)), qs((J, 1)), {(A1, J)})
    with pytest.raises(ValueError):
        QuasiRelation(qs((K, 1)), qs((J, 1)), {(K, A2)})


def test_condition_matches_labeled_formula_on_all_small_relations():
    # scaled-down version of the acceptance sweep: qcard <= 2 pools
    pool = flat_qsets([K, J], [A1], 2)
    for dom in pool:
        for cod in pool:
            for rel in all_relations(dom, cod):
                assert is_quasi_function(rel) == congruence_oracle(rel), (
                    dom.text, cod.text, sorted(map(str, rel.graph)))


# -- identity and composition -------------------------------------------


def test_identity_of_empty_qset():
    assert identity(QSet()).graph == frozenset()


def test_identity_maps_each_class_to_itself():
    a = qs((K, 2), A1)
    assert identity(a).graph == frozenset({(K, K), (A1, A1)})
    assert is_quasi_function(identity(a))


def test_identities_of_equal_qsets_are_equivalent():
    a = canonicalize([MAtom(K, 1), MAtom(K, 2)])
    b = canonicalize([MAtom(K, 8), MAtom(K, 9)])
    assert qfun_equiv(identity(a), identity(b))


def test_compose_chains_graphs():
    f = quasi_function(qs((K, 2)), qs((J, 1)), [(K, J)])
    g = quasi_function(qs((J, 1)), qs(A1), [(J, A1)])
    assert compose(g, f).graph == frozenset({(K, A1)})


def test_compose_requires_matching_middle():
    f = quasi_function(qs((K, 2)), qs((J, 1)), [(K, J)])
    h = quasi_function(qs((J, 2)), qs(A1), [(J, A1)])  # different middle qset
    with pytest.raises(NotComposable):
        compose(h, f)


def test_identity_laws_hold():
    f = quasi_function(qs((K, 2), A1), qs((J, 1)), [(K, J), (A1, J)])
    assert qfun_equiv(compose(identity(f.cod), f), f)
    assert qfun_equiv(compose(f, identity(f.dom)), f)


def test_composition_closure_small():
    pool = flat_qsets([K, J], [A1], 2)
    for a in pool:
        for b in pool:
            for f in all_quasi_functions(a, b):
                for c in pool:
                    for g in all_quasi_functions(b, c):
                        assert is_quasi_function(compose(g, f))


def test_trusted_results_equal_validated_construction():
    # compose and identity build their results without the public
    # constructor's checks; each must be the value that
    # constructor builds from the relational composite, and a quasi-function,
    # with the class map of that composite
    pool = flat_qsets([K, J], [A1], 2)
    for a in pool:
        ident = identity(a)
        pairs = [(d, d) for d, _ in a.classes()]
        assert ident == QuasiFunction(a, a, pairs)
        assert ident.map == dict(pairs)
        assert congruence_oracle(ident)
        for b in pool:
            for f in all_quasi_functions(a, b):
                for c in pool:
                    for g in all_quasi_functions(b, c):
                        gf = compose(g, f)
                        graph = {(x, z) for x, y in f.graph for y2, z in g.graph if y2 == y}
                        checked = QuasiFunction(f.dom, g.cod, graph)
                        assert type(gf) is QuasiFunction
                        assert gf == checked and hash(gf) == hash(checked)
                        assert gf.map == dict(graph) == checked.map
                        assert congruence_oracle(gf)


def test_generated_quasi_functions_equal_validated_construction():
    # gen.quasi_function builds through QuasiFunction._of, unchecked
    made = 0
    for seed in range(60):
        gen = StructureGen(seed)
        dom = gen.qset(max_qcard=4, max_depth=1)
        cod = gen.qset(max_qcard=4, max_depth=1)
        f = gen.quasi_function(dom, cod)
        if f is None:
            assert dom.qcard > 0 and cod.qcard == 0
            continue
        checked = QuasiFunction(f.dom, f.cod, f.graph)
        assert type(f) is QuasiFunction
        assert f == checked and hash(f) == hash(checked)
        assert f.map == checked.map
        assert congruence_oracle(f)
        made += 1
    assert made >= 40


@pytest.mark.parametrize(
    "graph, error",
    [
        ([(K, J), (K, A2), (A1, A2)], InvalidQuasiFunction),  # not functional
        ([(K, J)], InvalidQuasiFunction),  # partial
        ([(K, J), (A1, A2), (J, J)], ValueError),  # J is no domain class
        ([(K, J), (A1, A1)], ValueError),  # A1 is no codomain class
    ],
)
def test_public_constructor_still_checks_after_compose(graph, error):
    dom, cod = qs((K, 2), A1), qs(J, A2)
    f = quasi_function(dom, cod, [(K, J), (A1, A2)])
    assert qfun_equiv(compose(identity(cod), f), f)
    with pytest.raises(error):
        QuasiFunction(dom, cod, frozenset(graph))
    if error is ValueError:
        with pytest.raises(error):
            QuasiRelation(dom, cod, frozenset(graph))


def test_compose_checks_a_bare_relation():
    dom, cod = qs((K, 2), A1), qs(J)
    partial = QuasiRelation(dom, cod, frozenset([(K, J)]))
    with pytest.raises(InvalidQuasiFunction):
        compose(identity(cod), partial)
    total = QuasiRelation(dom, cod, frozenset([(K, J), (A1, J)]))
    assert compose(identity(cod), total) == QuasiFunction(dom, cod, total.graph)
    # a relation with two images for one class is refused, not read as
    # whichever image its hash-ordered graph lists last
    split = QuasiRelation(cod, qs(A1, A2), frozenset([(J, A1), (J, A2)]))
    with pytest.raises(InvalidQuasiFunction, match="^domain class m_J is paired with two codomain classes$"):
        compose(split, quasi_function(dom, cod, [(K, J), (A1, J)]))


# -- equivalence of quasi-functions --------------------------------------


def test_qfun_equiv_ignores_labels():
    dom1 = canonicalize([MAtom(K, 1), MAtom(K, 2)])
    dom2 = canonicalize([MAtom(K, 5), MAtom(K, 6)])
    f1 = quasi_function(dom1, qs(A1), [(K, A1)])
    f2 = quasi_function(dom2, qs(A1), [(K, A1)])
    assert qfun_equiv(f1, f2)


def test_qfun_equiv_separates_graphs():
    dom = qs(A1, A2)
    f = quasi_function(dom, dom, [(A1, A1), (A2, A2)])
    g = quasi_function(dom, dom, [(A1, A2), (A2, A1)])
    assert not qfun_equiv(f, g)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_qfun_equiv_is_a_congruence_for_compose(sa, sb):
    # f equivalent to f', g equivalent to g' forces g.f equivalent to g'.f'
    fa, ga, _ = StructureGen(sa).composable_chain(length=3, max_qcard=4)[:3]
    assert qfun_equiv(compose(ga, fa), compose(ga, fa))
    fb = QuasiFunction(fa.dom, fa.cod, fa.graph)
    gb = QuasiFunction(ga.dom, ga.cod, ga.graph)
    assert qfun_equiv(fa, fb) and qfun_equiv(ga, gb)
    assert qfun_equiv(compose(ga, fa), compose(gb, fb))
    del sb


# -- the law checker ------------------------------------------------------


def test_laws_on_identities_alone():
    sample = [identity(x) for x in flat_qsets([K], [A1], 2)]
    report = check_category_laws(sample, seed=3)
    assert report.ok
    assert report.identity_checks == 2 * len(sample)
    assert report.triples_checked > 0


def test_laws_exhaustive_on_tiny_universe():
    pool = flat_qsets([K, J], [], 2)
    fns = [f for a in pool for b in pool for f in all_quasi_functions(a, b)]
    report = check_category_laws(fns, seed=0, max_triples=2000)
    assert report.violations == []


def test_corrupted_composition_is_caught():
    # negative control: a compose that rotates images between classes,
    # still a valid quasi-function but the wrong one
    def broken_compose(g, f):
        real = compose(g, f)
        pairs = sorted(real.graph, key=str)
        if len(pairs) > 1:
            doms = [a for a, _ in pairs]
            imgs = [b for _, b in pairs]
            return QuasiFunction(real.dom, real.cod,
                                 frozenset(zip(doms, imgs[1:] + imgs[:1])))
        return real

    gen = StructureGen(seed=5)
    fns = []
    for _ in range(12):
        fns.extend(gen.composable_chain(length=3, max_qcard=4))
    report = check_category_laws(fns, seed=5, compose_fn=broken_compose)
    assert len(report.violations) > 0


def test_law_report_sampling_is_deterministic():
    gen = StructureGen(seed=9)
    fns = []
    for _ in range(20):
        fns.extend(gen.composable_chain(length=3, max_qcard=3))
    r1 = check_category_laws(fns, seed=1, max_triples=10)
    r2 = check_category_laws(fns, seed=1, max_triples=10)
    assert r1.to_json() == r2.to_json()
    assert r1.triples_checked == 10


def test_law_report_json_shape():
    report = check_category_laws([identity(qs(A1))], seed=0)
    doc = json.loads(report.to_json())
    assert list(doc) == ["schema", "triples_checked", "identity_checks",
                         "violations", "seed", "sample_size"]
    assert doc["schema"] == "qset/1"


# -- encoding into quasi-sets ---------------------------------------------


def test_encode_decode_round_trip():
    gen = StructureGen(seed=13)
    for _ in range(25):
        f = gen.composable_chain(length=1, max_qcard=4)[0]
        assert qfun_equiv(decode_quasi_function(encode_quasi_function(f)), f)


def test_decode_rejects_non_encodings():
    with pytest.raises(ValueError):
        decode_quasi_function(QSet())
    with pytest.raises(ValueError):
        decode_quasi_function(qs(A1))


def test_presentation_validates_morphisms():
    a = qs((K, 2))
    b = qs(A1)
    f = quasi_function(a, b, [(K, A1)])
    objects = QSet([a, b])
    morphisms = QSet([encode_quasi_function(f), encode_quasi_function(identity(a))])
    pres = CategoryPresentation(objects, morphisms)
    assert len(pres.decoded()) == 2
    stray = quasi_function(qs((J, 1)), b, [(J, A1)])  # dom not among objects
    with pytest.raises(ValueError):
        CategoryPresentation(objects, QSet([encode_quasi_function(stray)]))
