"""Wall curves, Picard number, pseudo-index, Mori cone, and the
inequality check with equality recognition."""

from __future__ import annotations

import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import invariants
from toricfano.cli import _invariants_payload
from toricfano.errors import NotFano, SingularBasis, UnpairedWall
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    make_fan,
    star_subdivision,
)
from toricfano.invariants import (
    contractible_sufficient,
    fibration_in_P_iota,
    is_extremal,
    is_fano,
    lemma_degree_sum_check,
    mori_cone_extremal_classes,
    mukai_check,
    picard_number,
    product_of_projective_spaces,
    pseudo_index,
    small_codim_contractible,
    wall_curves,
)
from toricfano.primitive import all_relations


def _hirzebruch(a):
    return make_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                    [(0, 1), (1, 2), (2, 3), (0, 3)])


def _del_pezzo_one():
    p2 = construct_projective_space(2)
    return star_subdivision(p2, p2.max_cones[0])


def test_wall_curves_of_plane():
    p2 = construct_projective_space(2)
    walls = wall_curves(p2)
    assert len(walls) == 3
    assert all(w.anticanonical_degree == 3 for w in walls)
    assert all(w.relation == (1, 1, 1) for w in walls)


def test_wall_curves_need_paired_facets():
    broken = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(UnpairedWall,
                       match=r"^wall \(0,\) lies in 1 maximal cones$"):
        wall_curves(broken)


def test_picard_number():
    assert picard_number(construct_projective_space(4)) == 1
    p1 = construct_projective_space(1)
    assert picard_number(construct_product(p1, p1)) == 2
    assert picard_number(_del_pezzo_one()) == 2


def test_pseudo_index_values():
    assert pseudo_index(construct_projective_space(3)) == 4
    p1 = construct_projective_space(1)
    p2 = construct_projective_space(2)
    assert pseudo_index(construct_product(p1, p2)) == 2
    assert pseudo_index(construct_product(p2, p2)) == 3
    assert pseudo_index(_del_pezzo_one()) == 1


def test_pseudo_index_requires_fano():
    # F_2 has a primitive relation of degree 0, F_3 one of degree -1.
    for a in (2, 3):
        fan = _hirzebruch(a)
        assert min(r.degree for r in all_relations(fan)) == 2 - a
        assert not is_fano(fan)
        with pytest.raises(NotFano):
            pseudo_index(fan)


def test_a_fan_without_primitive_collections_is_not_fano():
    # A single cone: every set of rays spans a face, so there is no
    # primitive relation to take the least degree of.
    cone = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert all_relations(cone) == []
    assert not is_fano(cone)
    for check in (pseudo_index, mukai_check, fibration_in_P_iota,
                  small_codim_contractible, lemma_degree_sum_check):
        with pytest.raises(NotFano):
            check(cone)


def _least_wall_degree(fan):
    return min(w.anticanonical_degree for w in wall_curves(fan))


def test_pseudo_index_is_the_least_wall_degree_on_the_corpus(
        all_corpus_fans):
    for fan in all_corpus_fans:
        if is_fano(fan):
            assert pseudo_index(fan) == _least_wall_degree(fan)
        else:
            with pytest.raises(NotFano):
                pseudo_index(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_pseudo_index_is_the_least_wall_degree_under_relabelling_and_gl_n_z(
        drawn_fan, relabelled, transformed, data):
    drawn = drawn_fan(data)
    moved, _ = relabelled(drawn, data)
    for fan in (drawn, moved, transformed(drawn, data)):
        if is_fano(fan):
            assert pseudo_index(fan) == _least_wall_degree(fan)
        else:
            with pytest.raises(NotFano):
                pseudo_index(fan)


def test_each_wall_holds_a_primitive_collection_of_no_larger_degree(
        all_corpus_fans):
    # The witness of the module docstring's proof: at a wall with
    # u + v = sum(c_i x_i), the rays u, v and the x_i with c_i < 0 (the
    # positive entries of the class vector) hold a primitive collection
    # whose degree is at most the wall's.
    walls = 0
    for fan in all_corpus_fans:
        if not is_fano(fan):
            continue
        relations = all_relations(fan)
        for w in wall_curves(fan):
            support = {i for i, x in enumerate(w.relation) if x > 0}
            assert any(set(r.collection) <= support
                       and r.degree <= w.anticanonical_degree
                       for r in relations), (fan, w)
            walls += 1
    assert walls > 0


def test_mori_cone_extremal_class_counts():
    assert len(mori_cone_extremal_classes(construct_projective_space(2))) == 1
    assert len(mori_cone_extremal_classes(_del_pezzo_one())) == 2
    p1 = construct_projective_space(1)
    cube = construct_product(p1, p1, p1)
    assert len(mori_cone_extremal_classes(cube)) == 3
    # Three successive point blow-ups of the plane leave six extremal rays.
    fan = construct_projective_space(2)
    for _ in range(3):
        fan = star_subdivision(fan, fan.max_cones[0])
    if is_fano(fan):
        assert len(mori_cone_extremal_classes(fan)) == 6


def test_extremal_membership():
    bl = _del_pezzo_one()
    classes = mori_cone_extremal_classes(bl)
    for cls in classes:
        assert is_extremal(bl, cls)
    summed = tuple(a + b for a, b in zip(classes[0], classes[1]))
    assert not is_extremal(bl, summed)


def test_extremal_flags_of_small_cones():
    # The positive quadrant, with an inner vector and its double.
    assert invariants._extremal_flags([(1, 0), (0, 1), (1, 1), (2, 2)]) == \
        [True, True, False, False]
    # A half-plane holds the line through (1, 0), so it has no extreme ray.
    assert invariants._extremal_flags([(1, 0), (-1, 0), (0, 1)]) == \
        [False, False, False]
    with pytest.raises(SingularBasis):
        invariants._extremal_flags([])


def test_mori_cone_is_computed_once_per_fan(monkeypatch):
    builds = []
    extremal_flags = invariants._extremal_flags

    def counting(vectors):
        builds.append(len(vectors[0]))
        return extremal_flags(vectors)

    monkeypatch.setattr(invariants, "_extremal_flags", counting)
    bl = _del_pezzo_one()
    first = mori_cone_extremal_classes(bl)
    second = mori_cone_extremal_classes(bl)
    assert first == second and first is not second
    first.clear()
    assert all(is_extremal(bl, cls) for cls in second)
    assert mori_cone_extremal_classes(bl) == second
    assert builds == [2]


def test_contractibility_sufficient_condition():
    bl = _del_pezzo_one()
    low = min(all_relations(bl), key=lambda r: r.degree)
    assert contractible_sufficient(bl, low)


def test_small_codim_contractible():
    p5 = construct_projective_space(5)
    result = small_codim_contractible(p5)
    assert result.hypothesis_holds
    assert result.relation is not None
    assert not result.guarantee_violated
    bl = _del_pezzo_one()
    assert not small_codim_contractible(bl).hypothesis_holds


def test_fibration_criterion_equivalence():
    p1 = construct_projective_space(1)
    p2 = construct_projective_space(2)
    assert fibration_in_P_iota(construct_product(p1, p2))
    assert fibration_in_P_iota(construct_product(p2, p2))
    assert not fibration_in_P_iota(_del_pezzo_one())


def test_product_recognition():
    p1 = construct_projective_space(1)
    p2 = construct_projective_space(2)
    assert product_of_projective_spaces(construct_product(p1, p2)) == [1, 2]
    assert product_of_projective_spaces(construct_projective_space(4)) == [4]
    assert product_of_projective_spaces(_del_pezzo_one()) is None
    triple = construct_product(p1, p2, p2)
    assert product_of_projective_spaces(triple) == [1, 2, 2]
    # (P^1)^2 with a maximal cone listed twice: the collections pass, and
    # only the cone count rejects it.
    square = construct_product(p1, p1)
    twice = make_fan(2, square.rays, square.max_cones + square.max_cones[:1])
    assert product_of_projective_spaces(twice) is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_recognition_under_relabelling_and_gl_n_z(relabelled,
                                                          transformed, data):
    parts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    drawn = construct_product(*map(construct_projective_space, parts))
    moved, _ = relabelled(drawn, data)
    for fan in (drawn, moved, transformed(drawn, data)):
        assert product_of_projective_spaces(fan) == sorted(parts)


def test_mukai_check_strict_and_equality():
    report = mukai_check(_del_pezzo_one())
    assert report.inequality_holds
    assert report.equality_case == "NotEqual"
    assert report.factors is None

    p2 = construct_projective_space(2)
    report = mukai_check(construct_product(p2, p2))
    assert report.inequality_lhs == 4 == report.dim_n
    assert report.equality_case == "ProductOfProjectiveSpaces"
    assert report.factors == (2, 2)

    report = mukai_check(construct_projective_space(7))
    assert report.picard_rho == 1
    assert report.pseudo_index_iota == 8
    assert report.inequality_lhs == 7
    assert report.factors == (7,)


# On Python 3.11 the traced peak of the mukai route and the invariants
# payload on (P^1)^9 was 1.43 MB with a sweep down the face levels, 1.28 MB
# with the face counts read off the h-vector and the collections found as
# minimal transversals, and 0.95 MB once each crossing of the cone walk
# shared the inverse columns it leaves unchanged. It stays 0.94 MB now that
# validation reads the covering degree off the h-vector counts and runs no
# point test (0.94 MB with this test run alone, 0.80 MB inside a full
# Tier-1 run). The ceiling lies halfway between 0.95 and 1.28 MB.
MUKAI_PEAK_CEILING_MB = 1.12


def test_mukai_route_peak_memory_on_a_product_of_lines():
    fan = construct_product(*[construct_projective_space(1)] * 9)
    tracemalloc.start()
    try:
        report = mukai_check(fan)
        payload = _invariants_payload(fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.factors == (1,) * 9
    assert payload["f_vector"] == [comb(9, k) * 2 ** k for k in range(10)]
    assert peak / 1e6 < MUKAI_PEAK_CEILING_MB, f"traced peak {peak} bytes"


def test_mukai_check_requires_fano():
    for a in (2, 3):
        with pytest.raises(NotFano):
            mukai_check(_hirzebruch(a))
