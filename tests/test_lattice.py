"""Integer linear algebra: adjugates, determinants and the rank that
cone_facets names, from the one fraction-free elimination, compared with
a Fraction row reduction; the rational solve; and the facets of drawn
cones, compared with a scan of vector subsets."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import lattice
from toricfano.errors import NotSquare, SingularBasis
from toricfano.lattice import (
    adjugate,
    cone_facets,
    content,
    is_primitive,
    make_primitive,
    solve_in_basis,
)
from toricfano.oracle import _hyperplane_normal


def _det(rows):
    return adjugate(rows)[0]


def test_determinant_known_values():
    assert _det([[int(i == j) for j in range(4)] for i in range(4)]) == 1
    assert _det([]) == 1
    assert _det([[2, 1], [1, 1]]) == 1
    assert _det([(0, 1), (1, 0)]) == -1
    assert _det([[3, 1, 4], [1, 5, 9], [2, 6, 5]]) == -90


def test_determinant_rejects_non_square():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(NotSquare):
            adjugate(rows)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _leibniz(a):
    """The determinant as a signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_adjugate_known_values():
    assert adjugate([]) == (1, [])
    unimodular = [[2, 1, 0], [1, 1, 0], [0, 3, -1]]
    det, adj = adjugate(unimodular)
    assert det == -1
    assert _product(unimodular, adj) == [[-int(i == j) for j in range(3)]
                                         for i in range(3)]
    # adj is det times the inverse, so -adj is the inverse here.
    assert _product([[-x for x in row] for row in adj], unimodular) == \
        [[int(i == j) for j in range(3)] for i in range(3)]
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[3, 1], [4, 2]]) == (2, [[2, -1], [-4, 3]])
    assert adjugate([[1, 2], [2, 4]]) == (0, None)
    assert adjugate([[0, 0], [0, 0]]) == (0, None)


@st.composite
def _square_matrices(draw):
    """An n x n integer matrix, n <= 6, entries in [-3, 3]; some have one
    row a multiple of another, so det 0 is drawn often."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(entry) * x for x in rows[j]]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_square_matrices())
def test_adjugate_property(a):
    det, adj = adjugate(a)
    assert det == _leibniz(a)
    if det == 0:
        assert adj is None
    else:
        assert _product(a, adj) == [[det * (i == j) for j in range(len(a))]
                                    for i in range(len(a))]


def _fraction_rank(rows):
    """The rank by Gauss-Jordan elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def _matrices(draw):
    """A rows x cols integer matrix, 1 <= rows <= 6, 1 <= cols <= 7,
    entries in [-4, 4]; some have a zero column, and some have a row that
    is a combination of two others."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        a, b = draw(entry), draw(entry)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=_matrices())
def test_rank_matches_fraction_elimination(m):
    # cone_facets names the pivot count of its one elimination when the
    # columns do not span.
    columns = list(zip(*m))
    rank = _fraction_rank(m)
    if rank < len(m):
        with pytest.raises(SingularBasis,
                           match=rf"dimension {rank} in Q\^{len(m)}$"):
            cone_facets(columns)
    else:
        cone_facets(columns)


def test_solve_in_basis():
    basis = [(1, 0), (1, 2)]
    sol = solve_in_basis(basis, (3, 4))
    assert sol == (Fraction(1), Fraction(2))
    with pytest.raises(SingularBasis):
        solve_in_basis([(1, 0), (2, 0)], (0, 1))
    # A basis that is not n vectors of length n is rejected, even when the
    # target lies in its span.
    plane = [(2, 0, 1, 3), (0, 2, 1, -1)]
    for basis, target in (([(1, 0)], (0, 1)), ([(1, 0)], (1, 0)),
                          (plane, (1, 1, 1, 1)),
                          ([(1, 0), (0, 1), (1, 1)], (1, 1)),
                          ([(1, 0), (0,)], (1, 0))):
        with pytest.raises(SingularBasis):
            solve_in_basis(basis, target)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(basis=_square_matrices(), data=st.data())
def test_solve_in_basis_matches_adjugate(basis, data):
    # The coordinates c with c * B = t are t * adj(B) / det(B).
    n = len(basis)
    target = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    det, adj = adjugate(basis)
    if det == 0:
        with pytest.raises(SingularBasis):
            solve_in_basis(basis, target)
    else:
        assert solve_in_basis(basis, target) == tuple(
            Fraction(sum(t * row[j] for t, row in zip(target, adj)), det)
            for j in range(n))


def test_primitivity_helpers():
    assert is_primitive((1, -1, 0))
    assert not is_primitive((2, -2, 0))
    assert not is_primitive((0, 0))
    assert make_primitive((4, -6, 2)) == (2, -3, 1)


@pytest.mark.parametrize("v, g", [
    ((), 0), ((0,), 0), ((0, 0, 0), 0), ((5,), 5), ((-5,), 5),
    ((-4, -6), 2), ((-4, 6, 0), 2), ((3, -7), 1), ((0, -1, 0), 1),
])
def test_content_is_the_nonnegative_gcd(v, g):
    assert content(v) == g
    assert content(list(v)) == g
    assert is_primitive(v) == (g == 1)


@pytest.mark.parametrize("v, want", [
    ((-5,), (-1,)), ((7,), (1,)), ((-4, -6), (-2, -3)),
    ((0, -3, 6), (0, -1, 2)), ((3, -7), (3, -7)), ((0, -1, 0), (0, -1, 0)),
])
def test_make_primitive_keeps_signs_and_returns_a_tuple(v, want):
    assert make_primitive(v) == want
    got = make_primitive(list(v))
    assert type(got) is tuple and got == want


@pytest.mark.parametrize("v", [(), (0,), (0, 0, 0), [0, 0]])
def test_make_primitive_rejects_a_zero_vector(v):
    with pytest.raises(ValueError, match="zero vector"):
        make_primitive(v)


def _facets_by_subsets(vectors):
    """(inner normal, tight mask) of every hyperplane through the origin
    and d - 1 independent vectors that has every vector on one side."""
    d = len(vectors[0])
    found = set()
    for subset in combinations(vectors, d - 1):
        normal = _hyperplane_normal([(0,) * d, *subset])
        if normal is None:
            continue
        values = [sum(a * b for a, b in zip(normal, v)) for v in vectors]
        if min(values) < 0 < max(values):
            continue
        if min(values) < 0:
            normal = tuple(-x for x in normal)
        found.add((normal, sum(1 << i for i, x in enumerate(values)
                               if x == 0)))
    return sorted(found)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cone_facets_match_a_subset_scan(drawn_cone, data):
    vectors = drawn_cone(data)
    assert cone_facets(vectors) == _facets_by_subsets(vectors)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_cone_facets_reject_vectors_that_do_not_span(drawn_cone, data):
    vectors = drawn_cone(data)
    with pytest.raises(SingularBasis):
        cone_facets([v[:-1] + (0,) for v in vectors])


def test_cone_facets_of_small_cones():
    # The positive quadrant, listed with a duplicate and an inner vector.
    assert cone_facets([(1, 0), (1, 1), (0, 2), (1, 0)]) == \
        [((0, 1), 0b1001), ((1, 0), 0b0100)]
    # A half-plane has one facet, and the whole plane none.
    assert cone_facets([(1, 0), (-1, 0), (0, 1)]) == [((0, 1), 0b011)]
    assert cone_facets([(1, 0), (0, 1), (-1, -1)]) == []
    with pytest.raises(SingularBasis):
        cone_facets([])


def test_cone_facets_join_a_pair_with_no_common_tight_vector():
    # In Q^2 the two rays of the starting dual cone, (1, 0) and (0, 1),
    # share no tight vector. (-1, 1) separates them, and they are adjacent
    # because no third ray exists, so they join into the normal (1, 1).
    assert cone_facets([(1, 0), (0, 1), (-1, 1)]) == \
        [((0, 1), 0b001), ((1, 1), 0b100)]


# The cross-polytope of dimension 5 lifted to height 1: its facets are
# simplices, and in every pair that the double description meets one ray
# is tight at exactly d - 1 vectors and the two share d - 2, so the rank
# condition settles every pair. The cone over the 3-cube has square
# facets, whose four tight vectors leave pairs to the bit-pattern test.
CROSS_5 = [tuple(s if k == i else 0 for k in range(5)) + (1,)
           for i in range(5) for s in (1, -1)]
CUBE_CONE = [(x, y, z, 1) for x in (1, -1) for y in (1, -1) for z in (1, -1)]


@pytest.mark.parametrize("vectors, facets, tables", [
    (CROSS_5, 32, 0), (CUBE_CONE, 6, 1),
], ids=["cross-polytope-5", "cube-cone"])
def test_cone_facets_join_pairs_by_rank_or_by_bit_pattern(
        monkeypatch, vectors, facets, tables):
    built = []
    rays_tight_at = lattice._rays_tight_at

    def counting(tight):
        built.append(tight)
        return rays_tight_at(tight)

    monkeypatch.setattr(lattice, "_rays_tight_at", counting)
    got = cone_facets(vectors)
    assert got == _facets_by_subsets(vectors)
    assert len(got) == facets
    assert len(built) == tables
