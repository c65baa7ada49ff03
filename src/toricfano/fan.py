"""The Fan data type: validation, faces, constructors, star subdivision,
and invariant-subvariety (quotient) fans.

A fan is stored combinatorially: an ambient rank, a tuple of primitive ray
generators, and the maximal cones as sorted index tuples into the ray list.
Cone references throughout the package are plain sorted index tuples; the
empty tuple is the zero cone. Inside this module a cone is also an int bit
mask, bit i for ray i, and the wall table is keyed by the walls' masks and
names the cones at each wall by their indices in max_cones.
Data derived from a fan (primitive relations, the wall table, wall curves,
the scaled integer inverse of each maximal cone, the h-vector counts, the
extremal classes of the Mori cone) is computed at most once per Fan object
through Fan.cached, the inverses as a tuple indexed by cone: a walk across
the unit crossings between unimodular cones fills it, sharing the columns
a crossing leaves unchanged, and every other cone gets its own adjugate.
The walk is one pass over the wall table from cone 0, with a breadth-first
walk for the cones that pass leaves unreached. It keeps each wall relation
it finds, keyed by the ray the crossing brings in, and reads a later
crossing that brings in the same ray off it when the relation's rays all
lie in the cone it leaves: that cone is unimodular, so the relation is the
one expression of the new ray in its basis, whichever ray the crossing
drops. A crossing rebuilds only the columns of its relation's rays.
No other module reads the inverses directly. The walk also counts each
cone's negative columns, changed at a crossing only by the columns it
rebuilds or negates; validation and the face counts share the histogram of
those counts, the h-vector counts (_h_counts).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Sequence, TypeVar

from . import lattice
from .errors import (
    ConeTooSmall,
    DependentSpan,
    DimensionOutOfRange,
    NotACone,
    SingularBasis,
    ValidationError,
)
from .lattice import IntVector

ConeRef = tuple[int, ...]
T = TypeVar("T")


@dataclass(frozen=True)
class Fan:
    """A complete smooth fan given by rays and maximal cones."""

    dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[ConeRef, ...]

    def cached(self, compute: Callable[["Fan"], T]) -> T:
        """compute(self), computed on the first call with this compute
        function and kept for the lifetime of this Fan.

        A Fan never changes, so the value never goes stale. The memo lives
        in the instance dictionary, outside the dataclass fields, so it
        takes no part in equality, hashing or repr. Public functions that
        return a cached value hand out fresh lists or immutable values, so
        no caller can change what the next caller sees.
        """
        memo = self.__dict__.setdefault("_cached", {})
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]


def _integers(row: object, what: str, entry: str) -> tuple[int, ...]:
    """row, a what, as a tuple of ints, by operator.index: an entry that is
    a float or a string raises ValueError naming it as entry, where int()
    would truncate or parse it, and a row that is not iterable, such as a
    bare integer, raises ValueError naming it as what."""
    try:
        row = tuple(row)
    except TypeError:
        raise ValueError(f"{what} {row!r} is not a sequence of integers") \
            from None
    try:
        return tuple(map(operator.index, row))
    except TypeError:
        for x in row:
            if not hasattr(x, "__index__"):
                raise ValueError(f"{entry} {x!r} is not an integer") from None
        raise


def make_fan(dim: int, rays: Sequence[Sequence[int]],
             max_cones: Iterable[Sequence[int]]) -> Fan:
    """Build a Fan in canonical form.

    Rays are sorted lexicographically, cone indices remapped accordingly,
    each cone sorted, and the cone list sorted. Only structural problems
    raise here (wrong arities, bad indices, entries that are not integers),
    as ValueError; mathematical validity is the business of validate().
    """
    (dim,) = _integers([dim], "dim", "dim")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rays = [_integers(r, "ray", "ray coordinate") for r in rays]
    if not rays:
        raise ValueError("at least one ray is required")
    for r in rays:
        if len(r) != dim:
            raise ValueError(f"ray {r} does not have {dim} coordinates")
    m = len(rays)
    cones = [_integers(c, "maximal cone", "ray index") for c in max_cones]
    if not cones:
        raise ValueError("at least one maximal cone is required")
    for c in cones:
        if len(c) != dim:
            raise ValueError(f"maximal cone {c} does not have {dim} rays")
        if len(set(c)) != len(c):
            raise ValueError(f"maximal cone {c} repeats a ray index")
        if min(c) < 0 or max(c) >= m:
            bad = next(i for i in c if not 0 <= i < m)
            raise ValueError(f"ray index {bad} out of range")
    return _canonical_fan(dim, rays, cones)


def _canonical_fan(dim: int, rays: list[tuple[int, ...]],
                   cones: Iterable[Sequence[int]]) -> Fan:
    """The canonical Fan of rows that already passed make_fan's checks:
    int tuples of dim coordinates, and cones of dim distinct indices into
    rays. make_fan and the `.fan` reader, which checks its rows as a
    block, both end here."""
    m = len(rays)
    order = sorted(range(m), key=rays.__getitem__)
    newpos = [0] * m
    for new, old in enumerate(order):
        newpos[old] = new
    canon_rays = tuple([rays[i] for i in order])
    canon_cones = tuple(sorted([tuple(sorted(map(newpos.__getitem__, c)))
                                for c in cones]))
    return Fan(dim, canon_rays, canon_cones)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _check_primitivity(fan: Fan) -> CheckResult:
    bad = [i for i, r in enumerate(fan.rays) if not lattice.is_primitive(r)]
    if bad:
        return CheckResult("primitivity", False,
                           f"non-primitive rays at indices {bad}")
    return CheckResult("primitivity", True)


def _check_distinctness(fan: Fan) -> CheckResult:
    seen: dict[IntVector, int] = {}
    for i, r in enumerate(fan.rays):
        if r in seen:
            return CheckResult("distinctness", False,
                               f"rays {seen[r]} and {i} coincide")
        seen[r] = i
    return CheckResult("distinctness", True)


def _check_coverage(fan: Fan) -> CheckResult:
    used = {i for c in fan.max_cones for i in c}
    missing = [i for i in range(len(fan.rays)) if i not in used]
    if missing:
        return CheckResult("ray_coverage", False,
                           f"rays {missing} appear in no maximal cone")
    return CheckResult("ray_coverage", True)


def _check_smoothness(fan: Fan, dets: Sequence[int]) -> CheckResult:
    for c, d in zip(fan.max_cones, dets):
        if abs(d) != 1:
            return CheckResult("smoothness", False,
                               f"cone {c} has determinant {d}")
    return CheckResult("smoothness", True)


def _walls(fan: Fan) -> dict[int, tuple[int, ...]]:
    """The wall table, read through fan.cached by validation, the cone walk
    and the wall curves: the bit mask of each codimension-1 face (wall) ->
    one flat tuple (cone, position, cone, position, ...) of the maximal
    cones containing it, each cone by its index in max_cones, in that
    order, so max_cones[cone][position] is the cone's ray off the wall. A
    valid fan has two sides per wall."""
    walls: dict[int, tuple[int, ...]] = {}
    get = walls.get
    for index, (c, mask) in enumerate(zip(fan.max_cones,
                                          fan.cached(_max_cone_masks))):
        for p, i in enumerate(c):
            wall = mask ^ (1 << i)
            walls[wall] = get(wall, ()) + (index, p)
    return walls


def _check_facet_pairing(fan: Fan) -> CheckResult:
    """Each wall lies in exactly two maximal cones. One set of entry
    lengths decides the common case; the sorted list of bad walls is built
    only when some wall fails (every fan has a cone, so a wall)."""
    walls = fan.cached(_walls)
    if set(map(len, walls.values())) != {4}:
        bad = sorted(_rays_of(w) for w, s in walls.items() if len(s) != 4)
        return CheckResult(
            "facet_pairing", False,
            f"facets not shared by exactly two maximal cones: {bad[:5]}")
    return CheckResult("facet_pairing", True)


ConeInverse = tuple[int, tuple[tuple[int, ...], ...] | None]


def _coordinates(target: Sequence[int],
                 cols: Sequence[Sequence[int]]) -> list[int]:
    """target * N for a cone's columns cols: |det| times target's
    coordinates in the cone's basis."""
    return [sum(map(mul, target, col)) for col in cols]


def _walk(fan: Fan) -> tuple[tuple[ConeInverse, ...], list[int]]:
    """(table, negative): the table _cone_adjugates returns, and for each
    maximal cone, in max_cones order, the number of columns of its N whose
    last nonzero entry is negative, which _h_counts reads. A is the matrix
    whose rows are the cone's rays, and the table holds (det, cols), with
    cols the n columns of N = |det| * A^-1 = sign(det) * adj A, so on a
    unimodular cone N is the exact integer inverse; cols is None when det
    is 0.

    Cone 0 gets its own lattice.adjugate. When it is unimodular, one pass
    over the wall table, in its insertion order, crosses each wall that
    has one side reached into the other side. When the pass leaves cones
    unreached, a breadth-first walk over the dual graph, read off the wall
    table, crosses on from the reached unimodular cones, and then from
    each cone still unreached, in max_cones order, which gets its own
    adjugate. The pass visits each wall once, and the breadth-first walk
    at most once from each side.

    A crossing goes from a reached cone c into the cone d on the other
    side of a wall. Let k be the position of the ray u that d drops, v the
    ray it takes instead, q v's position in d, and w = v * N, so v = w * A
    and det d = (-1)^(k-q) * det c * w_k (Reid 1983; Oda 1988). It enters
    d only when w_k = +-1, so d is unimodular too, and then:
    - v's column is w_k * col_k, moved to position q;
    - every other column j is col_j - w_k * w_j * col_k.
    A column with w_j = 0 is column j itself: d shares that tuple with c,
    as it shares col_k when w_k = 1, and the crossing builds only the
    columns of the rays in v's relation u + v = sum c_i x_i, at positions
    read off c's mask. d's count of negative columns is c's, changed by
    the columns the crossing builds or negates; moving a column keeps its
    sign.

    c is unimodular, so w is the one expression v = sum w_j * ray_j of v
    in c's basis. The walk keeps it for the rest of the walk, keyed by v
    alone, as the bit mask of the rays with w_j != 0 and a dict from each
    of those rays to its coefficient, one entry per ray v. A later
    crossing that brings in v, from a cone whose mask holds that support
    mask, reads w off the entry: each ray's coefficient, 0 for a ray
    outside it. That cone is unimodular too, so an identity among v and
    rays of that cone is its one expression of v, whatever ray u the
    crossing drops, and the table stays exactly what one adjugate per
    cone gives. Any other crossing computes w = v * N in full and
    overwrites the entry.
    """
    rays = fan.rays
    cones = fan.max_cones
    masks = fan.cached(_max_cone_masks)
    walls = fan.cached(_walls)
    found: list[ConeInverse | None] = [None] * len(cones)
    negative = [0] * len(cones)
    relations: dict[int, tuple[int, dict[int, int]]] = {}
    # A column is negative when its last nonzero entry is: its reverse
    # then sorts below the zero tuple.
    zero = (0,) * fan.dim

    def seed(d: int) -> bool:
        """Give cone d its own adjugate; whether it is unimodular."""
        det, adj = lattice.adjugate([rays[i] for i in cones[d]])
        if adj is None:
            found[d] = (det, None)
            return False
        sign = -1 if det < 0 else 1
        cols = tuple([tuple([sign * x for x in col]) for col in zip(*adj)])
        found[d] = (det, cols)
        negative[d] = sum([col[::-1] < zero for col in cols])
        return det == 1 or det == -1

    def cross(c: int, k: int, d: int, q: int) -> bool:
        """Enter cone d from the reached cone c, across the wall that drops
        c's ray at position k and brings in d's ray at position q, when the
        crossing is a unit one; whether it is."""
        det, cols = found[c]
        mask = masks[c]
        v = cones[d][q]
        # A ray not yet seen gets support -1, all bits set, which no
        # cone's mask holds.
        support, terms = relations.get(v, (-1, None))
        if support & mask != support:
            w = _coordinates(rays[v], cols)
            terms = {r: x for r, x in zip(cones[c], w) if x}
            relations[v] = (_mask_of(terms), terms)
        u = cones[c][k]
        wk = terms.get(u, 0)
        if wk != 1 and wk != -1:
            return False
        ck = cols[k]
        new = list(cols)
        change = 0
        for r, x in terms.items():
            if r != u:
                j = (mask & ((1 << r) - 1)).bit_count()
                old = cols[j]
                b = wk * x
                # A list, not tuple(generator): such a tuple is made at a
                # guessed length and shrunk, so once freed it joins another
                # size's free list, which keeps up to 2000.
                col = tuple([y - b * z for y, z in zip(old, ck)])
                new[j] = col
                change += (col[::-1] < zero) - (old[::-1] < zero)
        del new[k]
        if wk == 1:
            new.insert(q, ck)
        else:
            new.insert(q, tuple([-x for x in ck]))
            change += 1 - 2 * (ck[::-1] < zero)
        det_d = det * wk
        found[d] = (-det_d if (k - q) % 2 else det_d, tuple(new))
        negative[d] = negative[c] + change
        return True

    def spread(queue: list[int]) -> None:
        """Breadth-first from the unimodular cones in queue."""
        for c in queue:
            mask = masks[c]
            for k, u in enumerate(cones[c]):
                sides = walls[mask ^ (1 << u)]
                for i in range(0, len(sides), 2):
                    d = sides[i]
                    if found[d] is None and cross(c, k, d, sides[i + 1]):
                        queue.append(d)

    if seed(0):
        for sides in walls.values():
            if len(sides) == 4:
                a, p, b, q = sides
                if found[a] is None:
                    if found[b] is not None:
                        cross(b, q, a, p)
                elif found[b] is None:
                    cross(a, p, b, q)
    if None in found:
        spread([c for c, entry in enumerate(found)
                if entry is not None and abs(entry[0]) == 1])
        for start in range(len(cones)):
            if found[start] is None and seed(start):
                spread([start])
    return tuple(found), negative


def _cone_adjugates(fan: Fan) -> tuple[ConeInverse, ...]:
    """(det, cols) for each maximal cone, in max_cones order, read through
    fan.cached by validation and the cone coordinates: the table that
    _walk builds."""
    return fan.cached(_walk)[0]


def _cone_coordinates(fan: Fan, index: int,
                      target: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(numerators, size) with target = sum(numerators[i] / size * ray_i)
    over the rays of the maximal cone max_cones[index], where
    size = |det| > 0, from the fan's cached table; raises SingularBasis
    when the cone's rays are dependent. The primitive relations and the
    quotient fans use it.

    The rays are the rows of a matrix A, so the coordinates are
    target * A^-1, and |det| * A^-1 is the table's N.
    """
    det, cols = fan.cached(_cone_adjugates)[index]
    if cols is None:
        raise SingularBasis("basis vectors are linearly dependent")
    return tuple(_coordinates(target, cols)), abs(det)


def _h_counts(fan: Fan) -> tuple[int, ...]:
    """h_0..h_n, read through fan.cached by validation and the face counts:
    h_i is the number of maximal cones in whose basis w = (1, M, ...,
    M^(n-1)), for a large M, has exactly i negative coordinates (Fulton
    1993, section 5.2). Coordinate k of w is column k of the cone's N read
    as a base-M number, over |det|, so its sign is that of the column's
    last nonzero entry; no column of an invertible N is zero, so w lies on
    no cone's boundary. A cone with dependent rays raises SingularBasis.

    The walk counts each cone's negative columns as it builds the table: a
    cone with its own adjugate counts all n, and a crossing adds the change
    in sign of the few columns it builds or negates. So h is a histogram
    of those counts, with no pass over the table's n * #cones column slots.
    """
    table, negative = fan.cached(_walk)
    # The table's one entry for a cone with dependent rays is (0, None).
    if (0, None) in table:
        raise SingularBasis("basis vectors are linearly dependent")
    return tuple(map(negative.count, range(fan.dim + 1)))


def _check_covering_degree(fan: Fan, dets: Sequence[int]) -> CheckResult:
    """Decide whether the cones cover R^n exactly once.

    Runs after every other check has passed, so each wall (facet) lies in
    exactly two full-dimensional cones. Wall orientation: the ray of a
    sorted cone c at position p lies on side sign(det c) * (-1)^(n-1-p) of
    the wall c minus p (the sign of the determinant with that ray moved
    last), and the two cones at a wall must put their opposite rays on
    opposite sides, so det c * (-1)^p must differ between them: with every
    det +-1 after smoothness, they are equal exactly when the dets agree
    and p - q is even, or the dets differ and p - q is odd. The wall
    reported is the first by its second side in (cone, position) order.
    Facet pairing plus this coherent orientation make the number of cones
    over a generic point the same everywhere: it equals the covering
    degree d of the cones over the sphere. Every direction then lies in
    relatively open faces whose positive local degrees sum to d, so d = 1
    puts it in exactly one face: the cones form a complete fan. The vector
    w of _h_counts lies on no cone's boundary, so d is h_0.
    """
    cones = fan.max_cones
    folded = [((cones[c], q), cones[other], wall) for wall, (other, p, c, q)
              in fan.cached(_walls).items()
              if (dets[other] == dets[c]) == ((p - q) % 2 == 0)]
    if folded:
        (c, _), other, wall = min(folded)
        return CheckResult(
            "covering_degree", False,
            f"cones {other} and {c} lie on the same side of wall "
            f"{_rays_of(wall)}")
    degree = fan.cached(_h_counts)[0]
    if degree != 1:
        return CheckResult(
            "covering_degree", False,
            f"a generic point lies in {degree} maximal cones")
    return CheckResult("covering_degree", True)


def validate(fan: Fan) -> ValidationReport:
    """Check primitivity, distinctness, coverage, smoothness, facet-pairing
    completeness, and the covering degree: coherent wall orientation plus
    h_0 = 1 in the fan's h-vector counts, so the cones cover R^n exactly
    once.

    Deterministic; returns a structured report, and mathematically invalid
    fans never raise.
    """
    dets = [det for det, _ in fan.cached(_cone_adjugates)]
    checks = [
        _check_primitivity(fan),
        _check_distinctness(fan),
        _check_coverage(fan),
        _check_smoothness(fan, dets),
        _check_facet_pairing(fan),
    ]
    if all(c.passed for c in checks):
        checks.append(_check_covering_degree(fan, dets))
    else:
        checks.append(CheckResult("covering_degree", False,
                                  "not attempted: earlier checks failed"))
    return ValidationReport(tuple(checks))


def require_valid(fan: Fan) -> Fan:
    """The fan itself when validate passes; raises ValidationError naming
    the failed checks otherwise."""
    report = validate(fan)
    if not report.ok:
        raise ValidationError(report)
    return fan


# ---------------------------------------------------------------------------
# faces


def _mask_of(ref: Iterable[int]) -> int:
    """The bit mask of a set of ray indices, bit i for ray i."""
    return sum(1 << i for i in ref)


def _rays_of(mask: int) -> ConeRef:
    """The sorted ray indices of a bit mask, one step per set bit."""
    rays = []
    while mask:
        low = mask & -mask
        rays.append(low.bit_length() - 1)
        mask ^= low
    return tuple(rays)


def _max_cone_masks(fan: Fan) -> tuple[int, ...]:
    """The bit mask of each maximal cone, in max_cones order, each a sum
    of bits looked up in one list: a C-level map, with no shift and no
    generator frame per cone."""
    bit = [1 << i for i in range(len(fan.rays))].__getitem__
    return tuple([sum(map(bit, c)) for c in fan.max_cones])


def faces(fan: Fan, j: int) -> list[ConeRef]:
    """All distinct j-dimensional cones, as a sorted list of sorted index
    tuples: the j-subsets of the maximal cones.

    faces(fan, 0) is the singleton list holding the zero cone ().
    """
    if not 0 <= j <= fan.dim:
        raise DimensionOutOfRange(f"j={j} outside 0..{fan.dim}")
    return sorted({face for c in fan.max_cones
                   for face in combinations(c, j)})


def is_cone(fan: Fan, ref: Sequence[int]) -> bool:
    """True iff the index set is a face of some maximal cone; a repeated,
    negative or out-of-range index gives False."""
    m = len(fan.rays)
    if len(ref) > fan.dim or len(set(ref)) != len(ref) or \
            not all(0 <= i < m for i in ref):
        return False
    mask = _mask_of(ref)
    return any(mask & c == mask for c in fan.cached(_max_cone_masks))


# ---------------------------------------------------------------------------
# constructors


def construct_projective_space(n: int) -> Fan:
    """The fan with rays e_1..e_n and -(e_1+...+e_n), all n-subsets as cones."""
    if n < 1:
        raise DimensionOutOfRange("n must be at least 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = combinations(range(n + 1), n)
    return make_fan(n, rays, cones)


def construct_product(a: Fan, b: Fan) -> Fan:
    """The product fan: padded rays, unions of cone pairs."""
    dim = a.dim + b.dim
    zeros_a = (0,) * b.dim
    zeros_b = (0,) * a.dim
    rays = [r + zeros_a for r in a.rays] + [zeros_b + r for r in b.rays]
    offset = len(a.rays)
    cones = [ca + tuple(i + offset for i in cb)
             for ca in a.max_cones for cb in b.max_cones]
    return make_fan(dim, rays, cones)


def star_subdivision(fan: Fan, sigma: Sequence[int]) -> Fan:
    """Subdivide at the sum of sigma's rays.

    Every maximal cone containing sigma is replaced by the cones obtained by
    swapping one generator of sigma for the new ray.
    """
    sigma = tuple(sorted(sigma))
    if not is_cone(fan, sigma):
        raise NotACone(f"{sigma} is not a cone of the fan")
    if len(sigma) < 2:
        raise ConeTooSmall("star subdivision needs a cone of dimension >= 2")
    new_ray = lattice.vector_sum([fan.rays[i] for i in sigma], fan.dim)
    new_index = len(fan.rays)
    rays = list(fan.rays) + [new_ray]
    sigma_set = set(sigma)
    cones: list[tuple[int, ...]] = []
    for c in fan.max_cones:
        if sigma_set.issubset(c):
            for s in sigma:
                cones.append(tuple(i for i in c if i != s) + (new_index,))
        else:
            cones.append(c)
    return make_fan(fan.dim, rays, cones)


# ---------------------------------------------------------------------------
# invariant-subvariety (quotient) fans


@dataclass(frozen=True)
class QuotientFan:
    """The fan of an invariant subvariety, with the back-map sending each new
    ray index to the original ray index it projects from."""

    fan: Fan
    back_map: tuple[int, ...]


def invariant_subvariety_fan(fan: Fan, sigma: Sequence[int]) -> QuotientFan:
    """The fan of the invariant subvariety V(sigma) in the quotient lattice.

    Rays are the primitive projections of the rays u with sigma + {u} a cone,
    which are the rays outside sigma of the maximal cones containing sigma;
    maximal cones are the projections of those cones.
    """
    sigma = tuple(sorted(sigma))
    if len(sigma) < 1 or not is_cone(fan, sigma):
        raise NotACone(f"{sigma} is not a cone of dimension >= 1")
    k = len(sigma)
    if k >= fan.dim:
        raise DimensionOutOfRange("quotient rank would be zero")
    sigma_set = set(sigma)
    containing = [c for c in fan.max_cones if sigma_set.issubset(c)]
    # The coordinates at the positions outside sigma, in the basis of a
    # maximal cone containing sigma, map N onto N(sigma), the quotient of N
    # by the lattice points in the real span of sigma, when that cone is
    # unimodular, as on a valid fan. The projection is det times them, so
    # on a cone with det -1 the quotient's rays are the negated
    # coordinates; _cone_coordinates gives |det| times them.
    cone = containing[0]
    index = fan.max_cones.index(cone)
    det = fan.cached(_cone_adjugates)[index][0]
    if det == 0:
        raise DependentSpan(f"the rays of cone {cone} are linearly dependent")
    sign = -1 if det < 0 else 1
    outside = [p for p, i in enumerate(cone) if i not in sigma_set]
    projected: dict[int, IntVector] = {}
    for u in sorted({u for c in containing for u in c} - sigma_set):
        nums, _ = _cone_coordinates(fan, index, fan.rays[u])
        # On a valid fan the image is already primitive.
        projected[u] = lattice.make_primitive(
            [sign * nums[p] for p in outside])
    order = sorted(projected, key=lambda u: projected[u])
    new_rays = [projected[u] for u in order]
    newpos = {u: i for i, u in enumerate(order)}
    cones = [tuple(sorted(newpos[u] for u in c if u not in sigma_set))
             for c in containing]
    quotient = make_fan(fan.dim - k, new_rays, cones)
    # make_fan re-sorts rays; new_rays is already sorted, so indices line up.
    assert quotient.rays == tuple(new_rays)
    return QuotientFan(quotient, tuple(order))
