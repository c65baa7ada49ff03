"""Brute-force reference implementations and corpus generation."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricfano import invariants, lattice
from toricfano.errors import NonIntegralCoefficient, TooLarge
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    make_fan,
    star_subdivision,
)
from toricfano.fvector import f_vector
from toricfano.invariants import (
    _extremal_flags,
    is_fano,
    mori_cone_extremal_classes,
    pseudo_index,
    wall_curves,
)
from toricfano.oracle import (
    _fingerprint,
    _nonneg_combination_exists,
    corpus_directory,
    generate_corpus,
    oracle_f_vector,
    oracle_mori_extremals,
    oracle_primitive_collections,
    oracle_pseudo_index,
    write_corpus,
)
from toricfano.primitive import all_relations, primitive_collections


P1 = construct_projective_space(1)


def _sample_fans():
    p2 = construct_projective_space(2)
    fans = [p2, construct_projective_space(4), construct_product(P1, P1, P1),
            construct_product(p2, construct_projective_space(3)),
            star_subdivision(p2, p2.max_cones[0])]
    dp = p2
    for _ in range(3):
        dp = star_subdivision(dp, dp.max_cones[0])
    fans.append(dp)
    return fans


def test_oracle_agrees_with_fast_collections():
    for fan in _sample_fans():
        assert oracle_primitive_collections(fan) == \
            primitive_collections(fan)


def test_oracle_agrees_with_fast_extremals():
    for fan in _sample_fans():
        assert sorted(oracle_mori_extremals(fan)) == \
            sorted(mori_cone_extremal_classes(fan))


def test_oracle_agrees_with_fast_face_counts():
    for fan in _sample_fans():
        assert oracle_f_vector(fan) == f_vector(fan)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_oracle_agrees_under_relabelling_and_gl_n_z(drawn_fan, transformed,
                                                    data):
    drawn = drawn_fan(data)
    fan = transformed(drawn, data)
    assert primitive_collections(fan) == oracle_primitive_collections(fan)
    assert f_vector(fan) == oracle_f_vector(fan)
    if len(fan.rays) - fan.dim <= 6 and len(wall_curves(fan)) <= 200:
        assert sorted(mori_cone_extremal_classes(fan)) == \
            sorted(oracle_mori_extremals(fan))
    fingerprint = _fingerprint(fan)
    assert fingerprint == _fingerprint(drawn)
    assert fingerprint["fano"] == is_fano(fan)


def _mori_from_relations(fan):
    """Extremal classes of the cone spanned by the primitive-relation
    classes, which generate the Mori cone of a smooth projective toric
    variety (Batyrev, Tohoku Math. J. 1991): the double description of
    mori_cone_extremal_classes, run on the relation classes instead of the
    wall classes."""
    first = set(fan.max_cones[0])
    outside = [i for i in range(len(fan.rays)) if i not in first]
    classes = sorted({r.class_vector for r in all_relations(fan)})
    coords = [lattice.make_primitive([c[i] for i in outside])
              for c in classes]
    flags = _extremal_flags(coords)
    return [c for c, f in zip(classes, flags) if f]


def test_relation_classes_give_the_mori_cone_on_the_corpus(all_corpus_fans):
    for fan in all_corpus_fans:
        assert _mori_from_relations(fan) == mori_cone_extremal_classes(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_relation_classes_give_the_mori_cone_under_relabelling_and_gl_n_z(
        drawn_fan, transformed, data):
    fan = transformed(drawn_fan(data), data)
    assume(is_fano(fan))
    assert _mori_from_relations(fan) == mori_cone_extremal_classes(fan)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_extremal_flags_match_the_simplex_on_drawn_cones(drawn_cone, data):
    # A vector spans an extreme ray exactly when it is no nonnegative
    # combination of the vectors off its ray: on a pointed cone, those
    # with a different primitive vector.
    vectors = drawn_cone(data)
    for v, flag in zip(vectors, _extremal_flags(vectors)):
        ray = lattice.make_primitive(v)
        others = [w for w in vectors if lattice.make_primitive(w) != ray]
        assert flag == (not _nonneg_combination_exists(others, v))


def test_oracle_pseudo_index_agrees_on_the_corpus(all_corpus_fans):
    fans = [fan for fan in all_corpus_fans + _sample_fans() if is_fano(fan)]
    assert len(fans) == 61
    for fan in fans:
        assert oracle_pseudo_index(fan) == pseudo_index(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_oracle_pseudo_index_agrees_under_relabelling_and_gl_n_z(
        drawn_fan, transformed, data):
    fan = transformed(drawn_fan(data), data)
    assume(is_fano(fan))
    assert oracle_pseudo_index(fan) == pseudo_index(fan)


def _hirzebruch(a):
    return make_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                    [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_oracle_fano_agrees_on_the_corpus_and_hirzebruch_surfaces(
        all_corpus_fans):
    hirzebruch = [_hirzebruch(a) for a in range(4)]
    assert [_fingerprint(fan)["fano"] for fan in hirzebruch] == \
        [True, True, False, False]
    for fan in all_corpus_fans + hirzebruch:
        assert _fingerprint(fan)["fano"] == is_fano(fan)


def test_oracle_pseudo_index_rejects_a_singular_wall():
    # At the wall (1, 0) of the determinant-2 cone on (1, 0) and (1, 2),
    # (-1, -1) = -(1, 0) / 2 - (1, 2) / 2.
    fan = make_fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NonIntegralCoefficient):
        oracle_pseudo_index(fan)


def test_nonneg_combination_solver():
    assert _nonneg_combination_exists([(1, 0), (0, 1)], (3, 4))
    assert _nonneg_combination_exists([(1, 1), (1, -1)], (2, 0))
    assert not _nonneg_combination_exists([(1, 0)], (0, 1))
    assert not _nonneg_combination_exists([(1, 1)], (1, -1))
    assert _nonneg_combination_exists([], (0, 0))
    assert not _nonneg_combination_exists([], (1, 0))


def test_oracle_size_limits():
    big = construct_product(*[P1] * 9)
    with pytest.raises(TooLarge):
        oracle_primitive_collections(big)
    with pytest.raises(TooLarge):
        oracle_f_vector(big)
    with pytest.raises(TooLarge):
        oracle_mori_extremals(construct_product(*[P1] * 7))
    with pytest.raises(TooLarge):
        oracle_pseudo_index(big)


def _refuse_fast_walls(monkeypatch):
    def refuse(fan):
        raise AssertionError("an oracle read the fast wall curves")
    monkeypatch.setattr(invariants, "_wall_curves", refuse)


def _blown_up_product():
    """P^2 x P^1 blown up along the curve of the cone on its first two
    rays: a Fano fan that is no product of projective spaces."""
    fan = construct_product(construct_projective_space(2),
                            construct_projective_space(1))
    return star_subdivision(fan, (0, 1))


def test_oracles_build_their_own_wall_classes(monkeypatch):
    fan = _blown_up_product()
    assert is_fano(fan)
    expected = (oracle_mori_extremals(fan), oracle_pseudo_index(fan),
                _fingerprint(fan))
    _refuse_fast_walls(monkeypatch)
    fresh = _blown_up_product()
    assert (oracle_mori_extremals(fresh), oracle_pseudo_index(fresh),
            _fingerprint(fresh)) == expected


def test_oracle_mori_extremals_counts_its_own_walls(monkeypatch):
    # (P^1)^5 x P^2: rho 6, within the rho limit, but 96 cones of
    # dimension 7 meet in 96 * 7 / 2 = 336 walls.
    fan = construct_product(*[P1] * 5, construct_projective_space(2))
    assert len(fan.rays) - fan.dim == 6
    _refuse_fast_walls(monkeypatch)
    with pytest.raises(TooLarge, match="336 walls"):
        oracle_mori_extremals(fan)


def test_corpus_generation_is_deterministic():
    first = generate_corpus()
    second = generate_corpus()
    assert [e.name for e in first] == [e.name for e in second]
    assert [e.fingerprint for e in first] == [e.fingerprint for e in second]
    assert [e.fan for e in first] == [e.fan for e in second]


def test_bundled_corpus_matches_regeneration(tmp_path):
    regenerated = write_corpus(tmp_path)
    bundled = corpus_directory()
    fresh_index = json.loads(
        (tmp_path / "fingerprints.json").read_text(encoding="utf-8"))
    bundled_index = json.loads(
        (bundled / "fingerprints.json").read_text(encoding="utf-8"))
    assert fresh_index == bundled_index
    for entry in regenerated:
        fresh = (tmp_path / f"{entry.name}.fan").read_text(encoding="utf-8")
        shipped = (bundled / f"{entry.name}.fan").read_text(encoding="utf-8")
        assert fresh == shipped


def test_corpus_contents(corpus_fingerprints):
    assert corpus_fingerprints["product_1x1x1x1"]["mukai_verdict"] == \
        "ProductOfProjectiveSpaces"
    assert corpus_fingerprints["product_1x1x1x1"]["pseudo_index_iota"] == 2
    blowup = corpus_fingerprints["blowup_projective_3_codim_2"]
    assert blowup["fano"] and blowup["pseudo_index_iota"] == 1
    assert blowup["picard_rho"] == 2
    control = corpus_fingerprints["hirzebruch_2_non_fano"]
    assert control["fano"] is False
    assert [2, 0] in control["relation_summary"]
