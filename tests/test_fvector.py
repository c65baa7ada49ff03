"""Face counts, the palindromy engine, closed forms, and the bound solver."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import fvector
from toricfano.errors import (
    DimensionOutOfRange,
    FormulaDiscrepancy,
    InternalInconsistency,
    NonIntegralResult,
    NotFano,
    RegimeUnsupported,
    SingularBasis,
)
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    make_fan,
    star_subdivision,
)
from toricfano.fvector import (
    REGIME_HALF,
    REGIME_HALF_MINUS_ONE,
    FVector,
    check_binomial_identities,
    closed_form_cross_check,
    corollary_bound_table,
    dehn_sommerville_fk,
    dehn_sommerville_tail,
    ds_tail_from_prefix,
    euler_relation_holds,
    f_vector,
    h_vector,
    is_palindromic,
    is_simplex_criterion,
    max_rho_bound,
    psi_k,
    psi_k_eliminated,
    verify_closed_forms,
)
from toricfano.invariants import degree_sum_identity, lemma_degree_sum_check


def _power_of_line(n):
    fan = construct_projective_space(1)
    for _ in range(n - 1):
        fan = construct_product(fan, construct_projective_space(1))
    return fan


def _simplex_counts(n):
    return tuple(comb(n + 1, j) for j in range(n + 1))


def _cross_counts(n):
    return tuple(2 ** j * comb(n, j) for j in range(n + 1))


def test_f_vector_counts():
    assert f_vector(construct_projective_space(3)).f == (1, 4, 6, 4)
    assert f_vector(_power_of_line(3)).f == (1, 6, 12, 8)


def test_f_vector_needs_independent_cone_rays():
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0), (-1, -1)],
                   [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(SingularBasis):
        f_vector(fan)


def test_f_vector_rejects_a_non_palindromic_h_vector():
    # One quadrant: w lies in the cone, so h = (1, 0, 0).
    with pytest.raises(InternalInconsistency):
        f_vector(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]))


def test_face_count_conventions():
    fv = f_vector(construct_projective_space(2))
    assert fv.face_count(-1) == 1
    assert fv.face_count(0) == 3
    assert fv.face_count(5) == 0
    with pytest.raises(DimensionOutOfRange):
        fv.face_count(-2)


def test_euler_relation():
    for fan in (construct_projective_space(2), construct_projective_space(5),
                _power_of_line(4)):
        assert euler_relation_holds(f_vector(fan))
    assert not euler_relation_holds(FVector(3, (1, 4, 6, 5)))


def test_binomial_identities():
    fv = f_vector(construct_projective_space(5))
    assert check_binomial_identities(fv, 6)
    cube = f_vector(_power_of_line(4))
    assert check_binomial_identities(cube, 2)
    assert not check_binomial_identities(cube, 3)


def test_simplex_criterion():
    for n in range(1, 7):
        assert is_simplex_criterion(f_vector(construct_projective_space(n)))
    assert not is_simplex_criterion(f_vector(_power_of_line(2)))
    p2 = construct_projective_space(2)
    assert not is_simplex_criterion(f_vector(star_subdivision(
        p2, p2.max_cones[0])))


def test_h_vector_palindromy():
    for fan in (construct_projective_space(4), _power_of_line(5)):
        assert is_palindromic(h_vector(f_vector(fan)))
    assert h_vector(f_vector(_power_of_line(2))) == (1, 2, 1)


def test_engine_completes_simplex_and_cross_counts():
    for n in range(4, 14):
        counts = _simplex_counts(n)
        prefix = counts[:n // 2 + 1]
        assert ds_tail_from_prefix(n, prefix) == \
            tuple(Fraction(x) for x in counts)
    for n in range(4, 10):
        counts = _cross_counts(n)
        prefix = counts[:n // 2 + 1]
        assert ds_tail_from_prefix(n, prefix) == \
            tuple(Fraction(x) for x in counts)


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_engine_completes_any_prefix_palindromically(data):
    # Palindromy fixes the tail uniquely, so this checks the engine without
    # the closed forms.
    n = data.draw(st.integers(1, 15))
    prefix = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                min_size=n // 2 + 1, max_size=n // 2 + 1))
    completed = ds_tail_from_prefix(n, prefix)
    assert len(completed) == n + 1
    assert completed[:len(prefix)] == tuple(prefix)
    assert is_palindromic(h_vector(FVector(n, completed)))


def test_engine_rejects_wrong_prefix_length():
    with pytest.raises(ValueError):
        ds_tail_from_prefix(6, (1, 7, 21))
    with pytest.raises(DimensionOutOfRange):
        ds_tail_from_prefix(0, (1,))


def test_closed_fk_at_simplex_inputs():
    for n in range(4, 14):
        k = n // 2
        assert dehn_sommerville_fk(n + 1, n) == comb(n + 1, k + 1)


def test_a_non_integral_closed_fk_raises(monkeypatch):
    monkeypatch.setattr(fvector, "_fk_closed",
                        lambda f0, n: Fraction(1, 2))
    with pytest.raises(NonIntegralResult,
                       match=r"^f_3 evaluated to 1/2$"):
        dehn_sommerville_fk(7, 6)


def test_closed_tail_at_simplex_inputs():
    for n in range(4, 14):
        k = n // 2
        fn2, fn3 = dehn_sommerville_tail(n + 1, comb(n + 1, k), n)
        assert fn2 == comb(n + 1, n - 1)
        assert fn3 == comb(n + 1, n - 2)


def test_closed_tail_at_cross_polytope_inputs_low_dim():
    # The hypothesis behind the tail forms only covers the counts below
    # f_{k-1}; for n = 4 and 5 the cross-polytope satisfies it.
    for n in (4, 5):
        k = n // 2
        counts = _cross_counts(n)
        fn2, fn3 = dehn_sommerville_tail(2 * n, counts[k], n)
        assert fn2 == counts[n - 1]
        assert fn3 == counts[n - 2]


def test_closed_forms_match_engine_everywhere():
    # The whole f_0 window the bounds-tables benchmark draws from.
    for n in range(4, 14):
        assert closed_form_cross_check(
            n, f0_values=range(n + 1, n + 61)) == []


def test_injected_broken_formula_is_caught(monkeypatch):
    # The comparisons run in integers; an error below 1 must show too.
    correct = fvector._fk_closed
    for error in (1, Fraction(1, 3)):
        monkeypatch.setattr(fvector, "_fk_closed",
                            lambda f0, n, e=error: correct(f0, n) + e)
        records = closed_form_cross_check(8)
        assert [(r.formula, r.inputs) for r in records] == [
            ("fk", (f0,)) for f0 in range(9, 21)]
        assert all(r.closed_value == r.engine_value + error
                   for r in records)
        with pytest.raises(FormulaDiscrepancy) as excinfo:
            verify_closed_forms(8)
        assert excinfo.value.records


@pytest.mark.parametrize("n", [8, 9])
def test_injected_broken_tail_intercept_is_caught_at_every_offset(
        monkeypatch, n):
    # The tail forms are built once per f0; every offset must still be
    # compared with its own engine completion. The intercept's denominator
    # enters each integer comparison, so an error of 1/2 must show too.
    correct = fvector._tail_affine
    f0_values = range(n + 1, n + 5)
    for error in (1, Fraction(1, 2)):
        def broken(f0, dim, e=error):
            fn2, (slope, intercept) = correct(f0, dim)
            return fn2, (slope, intercept + e)

        monkeypatch.setattr(fvector, "_tail_affine", broken)
        records = closed_form_cross_check(n, f0_values=f0_values)
        assert [(r.formula, r.inputs) for r in records] == [
            ("tail_fn3", (f0, comb(f0, n // 2) + off))
            for f0 in f0_values for off in fvector._FK_OFFSETS]
        assert all(r.closed_value == r.engine_value + error
                   for r in records)


def test_engine_completion_is_linear_in_the_free_count():
    # The cross-check runs one completion per f0 and moves it along
    # f_{k-1} with column k of the palindromy completion.
    for n in range(4, 14):
        k = n // 2
        column = (0,) * k + (1,) + tuple(
            row[k] for row in fvector._palindromy_completion(n))
        for f0 in range(n + 1, n + 61):
            prefix = [comb(f0, j) for j in range(k + 1)]
            base = ds_tail_from_prefix(n, prefix)
            for off in fvector._FK_OFFSETS:
                assert ds_tail_from_prefix(
                    n, prefix[:k] + [prefix[k] + off]) == tuple(
                        x + off * c for x, c in zip(base, column))


@pytest.mark.parametrize("n", [5, 8, 9])
def test_injected_engine_column_error_is_caught_at_every_offset(
        monkeypatch, n):
    # Column k of the tail rows off by one adds f_{k-1} = s to every tail
    # count, so each offset's engine value must differ from the closed
    # form by its own s, not by the offset-0 value's error.
    k = n // 2
    rows = fvector._palindromy_completion(n)
    broken = tuple(row[:k] + (row[k] + 1,) for row in rows)
    monkeypatch.setattr(fvector, "_palindromy_completion",
                        lambda dim: broken)
    f0_values = range(n + 1, n + 5)
    records = closed_form_cross_check(n, f0_values=f0_values)
    expected = []
    for f0 in f0_values:
        expected.append(("fk", (f0,)))
        for off in fvector._FK_OFFSETS:
            s = comb(f0, k) + off
            expected += [("tail_fn2", (f0, s)), ("tail_fn3", (f0, s))]
    assert [(r.formula, r.inputs) for r in records] == expected
    assert all(r.engine_value - r.closed_value == r.inputs[-1]
               for r in records if r.formula != "fk")


def test_palindromy_completion_requires_a_unimodular_system(monkeypatch):
    adjugate = fvector.lattice.adjugate

    def doubled(rows):
        det, adj = adjugate(rows)
        return 2 * det, adj

    monkeypatch.setattr(fvector.lattice, "adjugate", doubled)
    with pytest.raises(InternalInconsistency):
        fvector._palindromy_completion.__wrapped__(6)


def test_psi_display_equals_elimination():
    for n in range(6, 14):
        for f0 in range(n + 1, n + 8):
            assert psi_k(f0, n) == psi_k_eliminated(f0, n)


def test_degree_sum_identity_small_dims():
    # n = 2 exercises the empty-face convention f_{-1} = 1.
    p2 = construct_projective_space(2)
    assert degree_sum_identity(p2)
    hirzebruch = make_fan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
                          [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert degree_sum_identity(hirzebruch)
    with pytest.raises(DimensionOutOfRange):
        degree_sum_identity(construct_projective_space(1))


def test_degree_sum_identity_products():
    p2 = construct_projective_space(2)
    p3 = construct_projective_space(3)
    for fan in (p3, construct_product(p2, p3), _power_of_line(5)):
        assert degree_sum_identity(fan)


def test_lemma_degree_sum_check():
    p2 = construct_projective_space(2)
    assert lemma_degree_sum_check(construct_product(p2, p2))
    hirzebruch = make_fan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
                          [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotFano):
        lemma_degree_sum_check(hirzebruch)


def test_max_rho_bound_tables():
    half = {(4, 2): 2, (5, 2): 2, (6, 3): 2, (7, 3): 2}
    half_minus = {(6, 2): 4, (7, 2): 4, (8, 3): 3, (9, 3): 3,
                  (10, 4): 2, (11, 4): 3, (12, 5): 2, (13, 5): 2}
    for (n, iota), expected in {**half, **half_minus}.items():
        assert max_rho_bound(n, iota) == expected


def test_margin_stays_positive_past_every_bound():
    # Sampled independently of the forward-difference certificate.
    for n, iota in REGIME_HALF + REGIME_HALF_MINUS_ONE:
        best = max_rho_bound(n, iota)
        assert all(fvector._bound_margin(n, iota, rho) > 0
                   for rho in range(best + 1, best + 101))


def test_margin_dip_past_the_first_violation_is_caught(monkeypatch):
    # A cubic (d = 3 on cell (4, 2)) that is <= 0 up to rho = 2, positive
    # from 3 to 9 and negative again at 10: its second forward difference
    # at rho = 3 is negative, so no certificate exists.
    def dipping(n, iota, rho):
        return ((rho - Fraction(5, 2)) * (rho - Fraction(19, 2))
                * (rho - Fraction(21, 2)))

    monkeypatch.setattr(fvector, "_bound_margin", dipping)
    assert [dipping(4, 2, rho) > 0 for rho in range(1, 11)] == \
        [False, False] + [True] * 7 + [False]
    with pytest.raises(InternalInconsistency):
        max_rho_bound(4, 2)


def test_max_rho_bound_rejects_other_regimes():
    for n, iota in ((4, 4), (8, 4), (5, 3), (14, 6), (3, 1)):
        with pytest.raises(RegimeUnsupported):
            max_rho_bound(n, iota)


def test_corollary_table():
    table = corollary_bound_table()
    assert table[4, 2] == 4
    assert table[5, 2] == 5
    assert table[6, 3] == 3
    assert table[7, 2] == 7
    assert table[13, 5] == 3
    assert (14, 2) not in table
