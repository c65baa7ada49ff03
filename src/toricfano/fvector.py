"""Face-count vectors, the Dehn-Sommerville machinery, and the rho-bound
solver. A fan's face counts are the binomial sums of its h-vector, which
fan._h_counts counts on the fan's cone inverses.

Two independent routes to the same numbers live here. The closed forms
(dehn_sommerville_fk, dehn_sommerville_tail, psi_k) evaluate explicit
binomial sums. The engine (ds_tail_from_prefix) knows nothing about those
sums: it solves the h-vector palindromy equations h_i = h_{n-i} directly.
Their coefficients depend on n alone, and the system is unimodular, so it
is inverted once per dimension with lattice.adjugate and each completion
is one integer matrix-vector product. The closed forms are validated
against the engine, never trusted; disagreements surface as
FormulaDiscrepancy records holding both values. The cross-check runs one
completion per f_0 and moves it along the free count f_{k-1} with the
engine's own column for that count, since the completion is linear in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Sequence

from . import lattice
from .errors import (
    DimensionOutOfRange,
    FormulaDiscrepancy,
    InternalInconsistency,
    NonIntegralResult,
    RegimeUnsupported,
    ValidationError,
)
from .fan import Fan, _h_counts, validate


@dataclass(frozen=True)
class FVector:
    """Face counts of the boundary complex: f[j] holds f_{j-1}, so f[0] is
    the empty-face count 1 and f[n] is the facet count f_{n-1}."""

    n: int
    f: tuple[int, ...]

    def face_count(self, d: int) -> int:
        """f_d, with f_{-1} = 1 and f_d = 0 above the top dimension."""
        if d < -1:
            raise DimensionOutOfRange(f"face dimension {d} below -1")
        if d >= self.n:
            return 0
        return self.f[d + 1]

    @property
    def f0(self) -> int:
        return self.f[1]


def _face_counts(fan: Fan) -> tuple[int, ...]:
    """f_{-1}..f_{n-1}, from the fan's cached h-vector counts (fan._h_counts,
    Fulton 1993, section 5.2): f_{j-1} = sum_i C(n-i, j-i) h_i. Counting
    for -w gives h reversed, so h must be palindromic (Dehn-Sommerville); a
    fan where it is not raises InternalInconsistency. h_0 is the number of
    cones over a generic point, so a fan that wraps around more than once
    raises ValidationError with its report.
    """
    n = fan.dim
    h = fan.cached(_h_counts)
    if not is_palindromic(h):
        raise InternalInconsistency(f"h-vector {list(h)} is not palindromic")
    if h[0] != 1:
        raise ValidationError(validate(fan))
    return tuple(sum(comb(n - i, j - i) * h[i] for i in range(j + 1))
                 for j in range(n + 1))


def f_vector(fan: Fan) -> FVector:
    """Count the cones of each dimension, from the h-vector of the fan
    (_face_counts), computed at most once per Fan. The fan must pass
    validate: the count holds for complete simplicial fans."""
    return FVector(fan.dim, fan.cached(_face_counts))


def euler_relation_holds(fv: FVector) -> bool:
    total = sum((-1) ** j * fv.f[j + 1] for j in range(fv.n))
    return total == 1 - (-1) ** fv.n


def check_binomial_identities(fv: FVector, iota: int) -> bool:
    """Whether f_{j-1} = C(f_0, j) for all j below iota."""
    return all(fv.f[j] == comb(fv.f0, j) for j in range(1, iota))


def is_simplex_criterion(fv: FVector) -> bool:
    """Whether f_{j-1} = C(f_0, j) for all j up to [n/2] + 1, which holds
    exactly for boundaries of simplices."""
    return check_binomial_identities(fv, fv.n // 2 + 2)


# ---------------------------------------------------------------------------
# the independent engine: h-vector palindromy


def _h_coefficient(n: int, j: int, i: int) -> int:
    """The coefficient of f_{i-1} in h_j of an n-dimensional complex."""
    return (-1) ** (j - i) * comb(n - i, j - i)


def h_vector(fv: FVector) -> tuple[int, ...]:
    n = fv.n
    return tuple(
        sum(_h_coefficient(n, j, i) * fv.f[i] for i in range(j + 1))
        for j in range(n + 1))


def is_palindromic(values: Sequence[int]) -> bool:
    return tuple(values) == tuple(reversed(values))


@cache
def _palindromy_completion(n: int) -> tuple[tuple[int, ...], ...]:
    """The integer matrix A^-1 * R for the palindromy system
    A * tail = R * prefix of dimension n, so that tail = (A^-1 * R) * prefix.

    Row i (0 <= i < n - k) of the system is h_i - h_{n-i} = 0: A holds its
    coefficients on the unknowns f_{k}..f_{n-1}, and R the negated
    coefficients on the prefix f_{-1}..f_{k-1}. Both depend on n alone.
    Row i meets the unknowns only through h_{n-i}, whose last term is
    f_{n-i-1} with coefficient 1, so A is triangular with det A = +-1 and
    A^-1 = det A * adj(A). Any other determinant raises
    InternalInconsistency.
    """
    k = n // 2

    def h_row(j: int) -> list[int]:
        return [_h_coefficient(n, j, c) if c <= j else 0
                for c in range(n + 1)]

    system = [[x - y for x, y in zip(h_row(i), h_row(n - i))]
              for i in range(n - k)]
    det, adj = lattice.adjugate([row[k + 1:] for row in system])
    if det not in (1, -1):
        raise InternalInconsistency(
            f"palindromy system of dimension {n} has determinant {det}")
    return tuple(
        tuple(-det * sum(a * row[c] for a, row in zip(adj_row, system))
              for c in range(k + 1))
        for adj_row in adj)


def ds_tail_from_prefix(n: int, prefix: Sequence[int]) -> tuple[int, ...]:
    """Complete f_{-1}..f_{k-1} (k = [n/2]) to a full count vector using only
    the palindromy equations h_i = h_{n-i}.

    Returns the n+1 integers f_{-1}..f_{n-1}. The system is inverted once
    per dimension over the integers (_palindromy_completion); each call is
    one integer matrix-vector product.
    """
    if n < 1:
        raise DimensionOutOfRange("n must be at least 1")
    k = n // 2
    if len(prefix) != k + 1:
        raise ValueError(f"prefix must hold the {k + 1} counts f_-1..f_{k - 1}")
    tail = [sum(m * x for m, x in zip(row, prefix))
            for row in _palindromy_completion(n)]
    return (*prefix, *tail)


# ---------------------------------------------------------------------------
# closed forms


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegralResult(f"{what} evaluated to {value}")
    return int(value)


def _fk_closed(f0: int, n: int) -> Fraction:
    k = n // 2
    if n % 2 == 0:
        # Every term of the even-n sum carries 1/(k+1); divide once.
        return Fraction(sum(
            (-1) ** (k - j - 1) * (j + 1) * comb(2 * k - j, k)
            * comb(f0, j + 1) for j in range(k)), k + 1)
    return Fraction(sum(
        (-1) ** (k - j - 1) * comb(2 * k - j + 1, k + 1) * comb(f0, j + 1)
        for j in range(-1, k)))


def dehn_sommerville_fk(f0: int, n: int) -> int:
    """f_k (k = [n/2]) under the hypothesis f_{j-1} = C(f_0, j) for j <= k."""
    if n < 2:
        raise DimensionOutOfRange("n must be at least 2")
    return _require_integer(_fk_closed(f0, n), f"f_{n // 2}")


def _tail_affine(f0: int, n: int
                 ) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
    """The (slope, intercept) of f_{n-2} and of f_{n-3} as affine functions
    of the free count f_{k-1}, under the hypothesis
    f_{j-1} = C(f_0, j) for j <= k - 1. Only the intercepts depend on f_0."""
    k = n // 2
    if n % 2 == 0:
        fn2 = sum(
            ((-1) ** j * Fraction(k - j, k + j - 1)
             * ((k - 1) * comb(k + j, k) + comb(k + j - 1, k))
             * comb(f0, k - j) for j in range(1, k)),
            Fraction(0))
        # The leading inner binomial is C(k-1, 2); with C(k, 2) the sum fails
        # every simplex cross-check.
        fn3 = sum(
            ((-1) ** j * Fraction(k - j, k + j - 2)
             * (comb(k - 1, 2) * comb(k + j, k)
                + (k - 2) * comb(k + j - 1, k) + comb(k + j - 2, k))
             * comb(f0, k - j) for j in range(1, k)),
            Fraction(0))
        return (k, fn2), (comb(k, 2), fn3)
    fn2 = sum(
        ((-1) ** j * Fraction(2 * k + 1, k + j)
         * (k * comb(k + j + 1, k + 1) + comb(k + j, k + 1))
         * comb(f0, k - j) for j in range(1, k + 1)),
        Fraction(0))
    fn3 = sum(
        ((-1) ** j * Fraction(2 * k, k + j - 1)
         * (comb(k, 2) * comb(k + j + 1, k + 1)
            + (k - 1) * comb(k + j, k + 1) + comb(k + j - 1, k + 1))
         * comb(f0, k - j) for j in range(1, k + 1)),
        Fraction(0))
    return (2 * k + 1, fn2), (k * k, fn3)


def dehn_sommerville_tail(f0: int, f_kminus1: int, n: int) -> tuple[int, int]:
    """(f_{n-2}, f_{n-3}) under the hypothesis f_{j-1} = C(f_0, j) for
    j <= k - 1, with f_{k-1} supplied."""
    if n < 4:
        raise DimensionOutOfRange("n must be at least 4")
    (a1, a0), (b1, b0) = _tail_affine(f0, n)
    return (_require_integer(a1 * f_kminus1 + a0, f"f_{n - 2}"),
            _require_integer(b1 * f_kminus1 + b0, f"f_{n - 3}"))


def psi_k(f0: int, n: int) -> Fraction:
    """The bound polynomial with f_{k-1} <= psi_k(f_0) in the
    iota = [n/2] - 1 regime."""
    if n < 4:
        raise DimensionOutOfRange("n must be at least 4")
    k = n // 2
    if n % 2 == 0:
        lead = Fraction(k ** 3 - k ** 2 + 12, k ** 2) * comb(f0, k - 1)
        rest = sum(
            (Fraction((-1) ** (j - 1) * (k - j) * factorial(k + j - 3),
                      k * factorial(k) * factorial(j))
             * ((k + j - 1) * (k + j - 2) * k + 12 * j) * comb(f0, k - j)
             for j in range(2, k)),
            Fraction(0))
        return lead + rest
    lead = Fraction(2 * k ** 3 + 3 * k ** 2 - 2 * k + 21,
                    (k - 1) * (2 * k + 3)) * comb(f0, k - 1)
    rest = sum(
        (Fraction((-1) ** (j - 1) * factorial(k + j - 2),
                  (k - 1) * (2 * k + 3) * factorial(k) * factorial(j))
         * (2 * k ** 4 + (4 * j - 1) * k ** 3 + 2 * (j * j - 2) * k ** 2
            + (j * j + 17 * j + 3) * k + 3 * j * (1 - j))
         * comb(f0, k - j) for j in range(2, k + 1)),
        Fraction(0))
    return lead + rest


def psi_k_eliminated(f0: int, n: int) -> Fraction:
    """Re-derive psi_k by eliminating f_{n-2} and f_{n-3} from the tail
    closed forms through the degree-sum inequality
    12 f_{n-3} >= (3n + iota - 5) f_{n-2} with iota = [n/2] - 1."""
    if n < 4:
        raise DimensionOutOfRange("n must be at least 4")
    k = n // 2
    c = 3 * n + (k - 1) - 5
    (a1, a0), (b1, b0) = _tail_affine(f0, n)
    denom = c * a1 - 12 * b1
    if denom <= 0:
        raise InternalInconsistency(
            "elimination does not bound f_{k-1} from above")
    return (12 * b0 - c * a0) / denom


# ---------------------------------------------------------------------------
# discrepancy scanning


@dataclass(frozen=True)
class Discrepancy:
    """A closed form and the engine disagreeing at one input."""

    formula: str
    inputs: tuple[int, ...]
    closed_value: Fraction
    engine_value: int


_FK_OFFSETS = range(-2, 7)


def closed_form_cross_check(
        n: int, f0_values: Sequence[int] | None = None) -> list[Discrepancy]:
    """Compare the closed forms against the palindromy engine.

    The engine is fed the same hypothesis inputs (binomial prefix, free
    f_{k-1} = C(f_0, k) + offset for each offset in _FK_OFFSETS); both
    routes must produce identical values. The engine runs one completion
    per f_0, at offset 0. Its completion is linear in f_{k-1}, so each
    count at an offset is that completion's count plus the offset times
    the count's dependence on f_{k-1}: column k of the palindromy
    completion, read once per call. Each tail intercept is read once per
    f_0 as num / den, so a tail form agrees with the engine value e at
    f_{k-1} = s exactly when (slope * s - e) * den + num == 0: the
    comparison stays in integers, and a Fraction is built only for a
    Discrepancy record.
    """
    if n < 4:
        raise DimensionOutOfRange("n must be at least 4")
    k = n // 2
    if f0_values is None:
        f0_values = range(n + 1, n + 13)
    # How each count f_{-1}..f_{n-1} moves with the free count f_{k-1}:
    # the prefix holds it as its last entry, and tail row r of the
    # palindromy completion (count k + 1 + r) scales it by entry k.
    column = [0] * k + [1] + [row[k] for row in _palindromy_completion(n)]
    out: list[Discrepancy] = []
    for f0 in f0_values:
        prefix = [comb(f0, j) for j in range(k + 1)]
        full = ds_tail_from_prefix(n, prefix)
        closed = _fk_closed(f0, n)
        if closed != full[k + 1]:
            out.append(Discrepancy("fk", (f0,), closed, full[k + 1]))
        (a1, a0), (b1, b0) = _tail_affine(f0, n)
        forms = (("tail_fn2", n - 1, a1, a0.numerator, a0.denominator),
                 ("tail_fn3", n - 2, b1, b0.numerator, b0.denominator))
        for off in _FK_OFFSETS:
            s = prefix[k] + off
            for formula, i, slope, num, den in forms:
                e = full[i] + off * column[i]
                if (slope * s - e) * den + num:
                    out.append(Discrepancy(
                        formula, (f0, s), slope * s + Fraction(num, den), e))
    return out


def verify_closed_forms(n: int) -> None:
    """Raise FormulaDiscrepancy when any closed form disagrees with the
    engine."""
    records = closed_form_cross_check(n)
    if records:
        raise FormulaDiscrepancy(records)


# ---------------------------------------------------------------------------
# the rho-bound solver and tables

REGIME_HALF = ((4, 2), (5, 2), (6, 3), (7, 3))
REGIME_HALF_MINUS_ONE = ((6, 2), (7, 2), (8, 3), (9, 3), (10, 4), (11, 4),
                         (12, 5), (13, 5))


def _bound_margin(n: int, iota: int, rho: int) -> Fraction:
    """Left-hand side minus right-hand side of the regime inequality, <= 0
    exactly when the bound admits rho: with f_0 = n + rho, a polynomial in
    rho of degree d = k + 1 if iota = k = [n/2] (from C(f_0, k + 1)), else
    d = k (from C(f_0, k))."""
    k = n // 2
    f0 = n + rho
    if iota == k:
        return comb(f0, k + 1) - _fk_closed(f0, n) - Fraction(f0, k + 1)
    return comb(f0, k) - Fraction(f0, k) - psi_k(f0, n)


def max_rho_bound(n: int, iota: int) -> int:
    """Largest rho with f_0 = rho + n satisfying the regime inequality.

    Supported regimes: iota = [n/2] for 4 <= n <= 7 and iota = [n/2] - 1 for
    6 <= n <= 13. The scan stops at the first violation, best + 1, where
    the margin's forward differences D^j prove the bound exact: Newton's
    margin(best + 1 + t) = sum_j D^j C(t, j) holds for integers t >= 0, so
    D^0 > 0, all D^j >= 0 and D^(d+1) == 0 (a check on d) make it positive
    for every rho > best. Otherwise raises InternalInconsistency.
    """
    if (n, iota) not in REGIME_HALF + REGIME_HALF_MINUS_ONE:
        raise RegimeUnsupported(f"(n={n}, iota={iota}) is outside the "
                                "supported regimes")
    best = 0
    while (violation := _bound_margin(n, iota, best + 1)) <= 0:
        best += 1
    d = n // 2 + 1 if iota == n // 2 else n // 2
    row = [violation] + [_bound_margin(n, iota, rho)
                         for rho in range(best + 2, best + d + 3)]
    differences = []
    while row:
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if differences[0] > 0 and min(differences) >= 0 and differences[-1] == 0:
        return best
    raise InternalInconsistency(
        f"no forward-difference certificate past rho={best}: {differences}")


def corollary_bound_table() -> dict[tuple[int, int], int]:
    """The bounds equivalent to rho * (iota - 1) <= n over both regimes,
    namely floor(n / (iota - 1)), keyed by the (n, iota) cell."""
    return {(n, iota): n // (iota - 1)
            for n, iota in REGIME_HALF + REGIME_HALF_MINUS_ONE}
