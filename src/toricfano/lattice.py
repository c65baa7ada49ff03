"""Exact integer and rational linear algebra for cone and fan computations.

Everything runs over arbitrary-precision integers and fractions; no floating
point is used anywhere. Vectors are plain tuples of ints (or Fractions for
rational results), matrices are sequences of integer rows. cone_facets,
the facets of the cone spanned by integer vectors, is the package's one
convex-hull routine: a double description whose adjacency test is a
bit-pattern test, an AND of bitsets per candidate pair in place of a scan
over every other ray.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .errors import NotSquare, SingularBasis

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


def vector_sum(vectors: Sequence[Sequence[int]], dim: int) -> IntVector:
    total = [0] * dim
    for v in vectors:
        for j in range(dim):
            total[j] += v[j]
    return tuple(total)


def content(v: Sequence[int]) -> int:
    """gcd of the coordinates, nonnegative, by one C-level math.gcd call;
    0 for the zero vector and for the empty one."""
    return gcd(*v)


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def make_primitive(v: Sequence[int]) -> IntVector:
    """Divide a nonzero vector by the gcd of its coordinates, as a tuple;
    a vector that is already primitive comes back as tuple(v)."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def solve_in_basis(basis: Sequence[Sequence[int]],
                   target: Sequence[int]) -> RatVector:
    """Solve sum(c_i * basis_i) = target exactly over the rationals.

    The basis must consist of n independent vectors of length n =
    len(target); the result holds the n coordinates of target. This is the
    package's one rational solver.
    """
    n = len(target)
    if len(basis) != n or any(len(b) != n for b in basis):
        raise SingularBasis("basis must consist of n vectors of length n")
    # Columns of the system matrix are the basis vectors.
    aug = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(target[i])]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularBasis("basis vectors are linearly dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _bareiss(rows: Sequence[Sequence[int]]
             ) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer
    matrix, behind adjugate and cone_facets.

    Returns (reduced rows, pivot columns, sign, d). A column with no
    nonzero entry at or below the next pivot row is skipped. After each
    pivot every entry is a minor of the row-swapped matrix, so each
    division is exact. At the end each pivot column is zero except in its
    own row, where it holds d, the last pivot (1 when there is none);
    the rows past the rank are zero; and sign is the parity of the row
    swaps.
    """
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(a):
            break
        if a[k][col] == 0:
            piv = next((r for r in range(k + 1, len(a)) if a[r][col] != 0),
                       None)
            if piv is None:
                continue
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[col]
        for i in range(len(a)):
            if i == k:
                continue
            row = a[i]
            f = row[col]
            if f:
                a[i] = [(x * pivot - f * y) // prev
                        for x, y in zip(row, pivot_row)]
            elif pivot != prev:
                a[i] = [x * pivot // prev for x in row]
        prev = pivot
        pivots.append(col)
    return a, pivots, sign, prev


def adjugate(rows: Sequence[Sequence[int]]
             ) -> tuple[int, list[list[int]] | None]:
    """(det A, adj A) of a square integer matrix A given by its rows, with
    A * adj == det * I; adj is None when det is 0.

    Eliminates [A | I]. A is invertible exactly when the pivots are the
    columns of A; the left block is then d * I, with d the determinant of
    the row-swapped A, and the right block M satisfies M * A = d * I. So
    M = d * A^-1, and adj A = sign * M, where sign is the parity of the
    row swaps and det A = sign * d.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare(f"matrix with {n} rows is not square")
    a, pivots, sign, d = _bareiss(
        [list(r) + [int(i == j) for j in range(n)]
         for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in a]


def cone_facets(vectors: Sequence[Sequence[int]]
                ) -> list[tuple[IntVector, int]]:
    """The facets of the cone spanned by integer vectors that span Q^d, as
    (primitive inner normal, tight mask) pairs sorted by normal; bit i of
    the mask is set when vectors[i] lies on the facet. Raises SingularBasis
    when the vectors do not span. The package's one convex-hull routine.

    A double description of the dual cone { y : v . y >= 0 for every v },
    whose extreme rays are the facet normals:
    - it starts from the first d independent vectors in input order, the
      pivot columns of one Bareiss elimination with the vectors as
      columns; their dual cone is simplicial, and its rays are the columns
      of sign(det B) * adj B, each tight at every row of B but one;
    - each remaining vector v keeps the rays with v . r >= 0 and joins
      each adjacent pair with v . r_i > 0 > v . r_j into
      (v . r_i) r_j - (v . r_j) r_i, which is tight where both are and
      at v;
    - two rays are adjacent when their common tight set has at least
      d - 2 members and no third ray's tight set contains it (Fukuda &
      Prodon 1996). That is a bit-pattern test (Terzer, ETH Zurich
      thesis, 2009): once per added vector, on[b] is the bitset of the
      rays tight at vector b, and the pair (i, j) is adjacent when the
      AND of on[b] over the bits b of the common tight set is exactly
      {i, j}. The AND starts from the set of all rays, so an empty common
      set, possible when d = 2, leaves every ray in it.
    """
    if not vectors:
        raise SingularBasis("no vectors to span the space")
    d = len(vectors[0])
    basis = _bareiss(list(zip(*vectors)))[1]
    if len(basis) < d:
        raise SingularBasis(f"the vectors span a space of dimension "
                            f"{len(basis)} in Q^{d}")
    det, adj = adjugate([vectors[j] for j in basis])
    sign = 1 if det > 0 else -1
    basis_mask = sum(1 << i for i in basis)
    rays = [make_primitive([sign * row[k] for row in adj]) for k in range(d)]
    tight = [basis_mask & ~(1 << i) for i in basis]
    for ci, v in enumerate(vectors):
        bit = 1 << ci
        if basis_mask & bit:
            continue
        values = [sum(map(mul, v, r)) for r in rays]
        positive = [k for k, x in enumerate(values) if x > 0]
        negative = [k for k, x in enumerate(values) if x < 0]
        new_rays = [r for r, x in zip(rays, values) if x >= 0]
        new_tight = [t | bit if x == 0 else t
                     for t, x in zip(tight, values) if x >= 0]
        # on[b]: the bitset of the current rays tight at the vector of
        # one-bit mask b.
        on: dict[int, int] = {}
        if positive and negative:
            for k, t in enumerate(tight):
                ray_bit = 1 << k
                while t:
                    b = t & -t
                    on[b] = on.get(b, 0) | ray_bit
                    t ^= b
        every_ray = (1 << len(rays)) - 1
        for i in positive:
            ti = tight[i]
            near = [(j, common) for j in negative
                    if (common := ti & tight[j]).bit_count() >= d - 2]
            for j, common in near:
                meet, rest = every_ray, common
                while rest:
                    b = rest & -rest
                    meet &= on[b]
                    rest ^= b
                if meet != 1 << i | 1 << j:
                    continue
                new_rays.append(make_primitive(
                    [values[i] * y - values[j] * x
                     for x, y in zip(rays[i], rays[j])]))
                new_tight.append(common | bit)
        rays, tight = new_rays, new_tight
    return sorted(zip(rays, tight))
