"""Acceptance suite: ten checks covering the bound tables, corpus-wide
inequality verification, counting identities, recognition criteria, oracle
equivalence, closed-form cross-validation, and divisor restrictions.

Each criterion is one test; `pytest -v` prints one pass/fail line apiece.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from toricfano.fvector import (
    _bound_margin,
    check_binomial_identities,
    corollary_bound_table,
    dehn_sommerville_fk,
    dehn_sommerville_tail,
    ds_tail_from_prefix,
    f_vector,
    is_simplex_criterion,
    max_rho_bound,
    verify_closed_forms,
)
from toricfano.fan import invariant_subvariety_fan
from toricfano.invariants import (
    degree_sum_identity,
    fibration_in_P_iota,
    is_fano,
    lemma_degree_sum_check,
    mori_cone_extremal_classes,
    mukai_check,
    picard_number,
    product_of_projective_spaces,
    pseudo_index,
    wall_curves,
)
from toricfano.oracle import (
    _MAX_ORACLE_RAYS,
    _MAX_ORACLE_RHO,
    _MAX_ORACLE_WALLS,
    oracle_f_vector,
    oracle_mori_extremals,
    oracle_primitive_collections,
)
from toricfano.primitive import primitive_collections

HALF_REGIME = {(4, 2): 2, (5, 2): 2, (6, 3): 2, (7, 3): 2}
HALF_MINUS_ONE_REGIME = {(6, 2): 4, (7, 2): 4, (8, 3): 3, (9, 3): 3,
                         (10, 4): 2, (11, 4): 3, (12, 5): 2, (13, 5): 2}
EXPECTED_RATIO_BOUNDS = {
    (4, 2): 4, (5, 2): 5, (6, 3): 3, (7, 3): 3,
    (6, 2): 6, (7, 2): 7, (8, 3): 4, (9, 3): 4,
    (10, 4): 3, (11, 4): 3, (12, 5): 3, (13, 5): 3,
}


def test_criterion_01_face_count_bound_table():
    start = time.monotonic()
    mismatches = []
    for (n, iota), expected in {**HALF_REGIME,
                                **HALF_MINUS_ONE_REGIME}.items():
        got = max_rho_bound(n, iota)
        if got != expected:
            margin = _bound_margin(n, iota, expected)
            mismatches.append(f"(n={n}, iota={iota}): computed {got}, "
                              f"expected {expected}, margin at expected "
                              f"rho = {margin}")
    elapsed = time.monotonic() - start
    assert not mismatches, "; ".join(mismatches)
    assert elapsed < 10.0, f"bound table took {elapsed:.1f}s"
    print("criterion 1 (face-count bound table, both regimes): PASS")


def test_criterion_02_ratio_bound_table():
    assert corollary_bound_table() == EXPECTED_RATIO_BOUNDS
    print("criterion 2 (ratio bound table): PASS")


def test_criterion_03_corpus_inequality_and_equality_recognition(
        corpus_fans):
    start = time.monotonic()
    checked = 0
    for name, fan in corpus_fans.items():
        if not is_fano(fan):
            continue
        report = mukai_check(fan)
        assert report.inequality_holds, name
        assert report.equality_case != "EqualButUnrecognized", name
        if report.equality_case == "ProductOfProjectiveSpaces":
            assert report.factors is not None
            assert all(f == report.pseudo_index_iota - 1
                       for f in report.factors), name
            assert len(report.factors) == report.picard_rho, name
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 50
    assert elapsed < 60.0, f"corpus verification took {elapsed:.1f}s"
    print(f"criterion 3 (inequality on {checked} Fano corpus fans, "
          "equality recognized): PASS")


def test_criterion_04_degree_sum_identity(corpus_fans):
    checked = 0
    for name, fan in corpus_fans.items():
        if fan.dim < 2:
            continue
        assert degree_sum_identity(fan), name
        if is_fano(fan):
            assert lemma_degree_sum_check(fan), name
        checked += 1
    assert checked >= 50
    print(f"criterion 4 (degree-sum identity on {checked} fans): PASS")


def test_criterion_05_binomial_identities_and_fibration(corpus_fans):
    for name, fan in corpus_fans.items():
        if not is_fano(fan):
            continue
        iota = pseudo_index(fan)
        assert check_binomial_identities(f_vector(fan), iota), name
        # Raises internally when the two sides of the equivalence disagree.
        fibration_in_P_iota(fan)
    print("criterion 5 (binomial identities and fibration criterion): PASS")


def test_criterion_06_disjointness_of_longest_collections(corpus_fans):
    for name, fan in corpus_fans.items():
        if not is_fano(fan):
            continue
        iota = pseudo_index(fan)
        if iota <= 1:
            continue
        longest = [set(c) for c in primitive_collections(fan)
                   if len(c) == iota + 1]
        for a, b in combinations(longest, 2):
            assert not a & b, (name, sorted(a), sorted(b))
    print("criterion 6 (long primitive collections pairwise disjoint): PASS")


def test_criterion_07_simplex_recognition(corpus_fans):
    for name, fan in corpus_fans.items():
        expected = name.startswith("projective_")
        assert is_simplex_criterion(f_vector(fan)) == expected, name
        if is_fano(fan) and pseudo_index(fan) > fan.dim // 2 + 1:
            assert product_of_projective_spaces(fan) == [fan.dim], name
    print("criterion 7 (simplex criterion exact; high pseudo-index forces "
          "projective space): PASS")


def test_criterion_08_oracle_equivalence(corpus_fans):
    collections_checked = extremals_checked = counts_checked = 0
    for name, fan in corpus_fans.items():
        if len(fan.rays) <= _MAX_ORACLE_RAYS:
            assert oracle_primitive_collections(fan) == \
                primitive_collections(fan), name
            assert oracle_f_vector(fan) == f_vector(fan), name
            collections_checked += 1
            counts_checked += 1
        if picard_number(fan) <= _MAX_ORACLE_RHO and \
                len(wall_curves(fan)) <= _MAX_ORACLE_WALLS:
            assert sorted(oracle_mori_extremals(fan)) == \
                sorted(mori_cone_extremal_classes(fan)), name
            extremals_checked += 1
    assert collections_checked >= 40
    assert extremals_checked >= 30
    print(f"criterion 8 (oracle agreement: {collections_checked} "
          f"collection sets, {extremals_checked} extremal sets, "
          f"{counts_checked} face-count vectors): PASS")


def test_criterion_09_closed_forms_against_engine(corpus_fans):
    # Function-level agreement on the closed forms' own hypothesis inputs.
    for n in range(4, 14):
        verify_closed_forms(n)
    # Simplex boundaries: the engine completes the binomial prefix to the
    # full count vector, and the closed forms evaluate to the same entries.
    for n in range(4, 14):
        counts = tuple(comb(n + 1, j) for j in range(n + 1))
        k = n // 2
        completed = ds_tail_from_prefix(n, counts[:k + 1])
        assert completed == tuple(Fraction(x) for x in counts)
        assert dehn_sommerville_fk(n + 1, n) == counts[k + 1]
        assert dehn_sommerville_tail(n + 1, counts[k], n) == \
            (counts[n - 1], counts[n - 2])
    # Cross-polytope boundaries from the actual fans of products of lines:
    # the engine must reproduce the counted vector from its prefix alone.
    for n in range(4, 8):
        fan = corpus_fans["product_" + "x".join("1" * n)]
        counts = f_vector(fan).f
        k = n // 2
        completed = ds_tail_from_prefix(n, counts[:k + 1])
        assert completed == tuple(Fraction(x) for x in counts), n
        if n in (4, 5):
            # Only here does the cross-polytope satisfy the binomial
            # hypothesis the tail forms assume.
            assert dehn_sommerville_tail(2 * n, counts[k], n) == \
                (counts[n - 1], counts[n - 2])
    print("criterion 9 (closed forms vs palindromy engine, simplex and "
          "cross-polytope boundaries): PASS")


def test_criterion_10_divisor_restriction_invariants(corpus_fans):
    checked = 0
    for name, fan in corpus_fans.items():
        if not is_fano(fan) or pseudo_index(fan) < 3:
            continue
        iota = pseudo_index(fan)
        rho = picard_number(fan)
        for ray_index in range(len(fan.rays)):
            sub = invariant_subvariety_fan(fan, (ray_index,))
            assert picard_number(sub.fan) == rho, (name, ray_index)
            assert pseudo_index(sub.fan) >= iota - 1, (name, ray_index)
            checked += 1
    assert checked >= 40
    print(f"criterion 10 ({checked} divisor restrictions keep rho and "
          "lose at most one from iota): PASS")
