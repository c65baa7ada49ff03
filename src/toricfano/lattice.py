"""Exact integer and rational linear algebra for cone and fan computations.

Everything runs over arbitrary-precision integers and fractions; no floating
point is used anywhere. Vectors are plain tuples of ints (or Fractions for
rational results), matrices are sequences of integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    """gcd of the coordinates; 0 for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def make_primitive(v: Sequence[int]) -> IntVector:
    """Divide a nonzero vector by the gcd of its coordinates."""
    g = content(v)
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


def adjugate(rows: Sequence[Sequence[int]]
             ) -> tuple[int, list[list[int]] | None]:
    """(det A, adj A) of a square integer matrix A given by its rows, with
    A * adj == det * I; adj is None when det is 0.

    Fraction-free (Bareiss) Gauss-Jordan on [A | I]: after step k every
    entry is a minor of order k + 1 of the row-swapped [A | I], so each
    division is exact. At the end the left block is d * I, with d the
    determinant of the row-swapped A, and the right block M satisfies
    M * A = d * I. So M = d * A^-1, and adj A = sign * M, where sign is
    the parity of the row swaps and det A = sign * d.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare(f"matrix with {n} rows is not square")
    a = [list(r) + [int(i == j) for j in range(n)]
         for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0, None
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = a[i]
            f = row[k]
            if f:
                a[i] = [(x * pivot - f * y) // prev
                        for x, y in zip(row, pivot_row)]
            elif pivot != prev:
                a[i] = [x * pivot // prev for x in row]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def _row_hermite(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]],
                                                         list[list[int]],
                                                         int]:
    """Row Hermite form of an integer matrix.

    Returns (H, U, rank) with U unimodular, U * A = H, pivots positive and
    entries above each pivot reduced into [0, pivot).
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def sub(i: int, k: int, q: int):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    rank = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(rank, nrows) if a[i][col] != 0]
            if len(nz) <= 1:
                break
            k = min(nz, key=lambda i: abs(a[i][col]))
            for i in nz:
                if i != k:
                    sub(i, k, a[i][col] // a[k][col])
        nz = [i for i in range(rank, nrows) if a[i][col] != 0]
        if not nz:
            continue
        k = nz[0]
        a[rank], a[k] = a[k], a[rank]
        u[rank], u[k] = u[k], u[rank]
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
            u[rank] = [-x for x in u[rank]]
        for i in range(rank):
            sub(i, rank, a[i][col] // a[rank][col])
        rank += 1
    return a, u, rank


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    _, _, rank = _row_hermite(rows)
    return rank


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[IntVector]:
    """A canonical lattice basis of { v in Z^cols : rows * v = 0 }.

    The returned vectors span the full (saturated) kernel lattice; the basis
    is put in Hermite form so the output is deterministic.
    """
    # Row-reduce the transpose while tracking the transform: zero rows of H
    # correspond to transform rows annihilating every row of the matrix.
    h, u, rank = _row_hermite(list(zip(*rows)))
    basis = [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]
    assert len(basis) == len(h) - rank
    if not basis:
        return []
    canon, _, _ = _row_hermite(basis)
    return [tuple(r) for r in canon]
