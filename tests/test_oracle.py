"""Brute-force reference implementations and corpus generation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.errors import TooLarge
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    star_subdivision,
)
from toricfano.fvector import f_vector
from toricfano.invariants import mori_cone_extremal_classes, wall_curves
from toricfano.oracle import (
    _fingerprint,
    _nonneg_combination_exists,
    corpus_directory,
    generate_corpus,
    oracle_f_vector,
    oracle_mori_extremals,
    oracle_primitive_collections,
    write_corpus,
)
from toricfano.primitive import primitive_collections


def _power_of_line(n):
    fan = construct_projective_space(1)
    for _ in range(n - 1):
        fan = construct_product(fan, construct_projective_space(1))
    return fan


def _sample_fans():
    p2 = construct_projective_space(2)
    fans = [p2, construct_projective_space(4), _power_of_line(3),
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
    assert _fingerprint(fan) == _fingerprint(drawn)


def test_nonneg_combination_solver():
    assert _nonneg_combination_exists([(1, 0), (0, 1)], (3, 4))
    assert _nonneg_combination_exists([(1, 1), (1, -1)], (2, 0))
    assert not _nonneg_combination_exists([(1, 0)], (0, 1))
    assert not _nonneg_combination_exists([(1, 1)], (1, -1))
    assert _nonneg_combination_exists([], (0, 0))
    assert not _nonneg_combination_exists([], (1, 0))


def test_oracle_size_limits():
    big = _power_of_line(9)
    with pytest.raises(TooLarge):
        oracle_primitive_collections(big)
    with pytest.raises(TooLarge):
        oracle_f_vector(big)
    with pytest.raises(TooLarge):
        oracle_mori_extremals(_power_of_line(7))


def test_corpus_generation_is_deterministic():
    first = generate_corpus()
    second = generate_corpus()
    assert first.names() == second.names()
    assert [e.fingerprint for e in first.entries] == \
        [e.fingerprint for e in second.entries]
    assert [e.fan for e in first.entries] == [e.fan for e in second.entries]


def test_bundled_corpus_matches_regeneration(tmp_path):
    regenerated = write_corpus(tmp_path)
    bundled = corpus_directory()
    fresh_index = json.loads(
        (tmp_path / "fingerprints.json").read_text(encoding="utf-8"))
    bundled_index = json.loads(
        (bundled / "fingerprints.json").read_text(encoding="utf-8"))
    assert fresh_index == bundled_index
    for entry in regenerated.entries:
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
