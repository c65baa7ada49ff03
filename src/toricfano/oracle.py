"""Brute-force reference implementations and the bundled corpus generator.

The oracles here deliberately share no code with the fast paths they check:
collections and face counts from one scan of every subset of the rays as
bitmasks, extremality from a rational feasibility solve, the wall classes
from the wall relations of every pair of adjacent maximal cones solved
over Fraction (their sums give the wall degrees, the pseudo-index and the
Fano test, and their distinct vectors the Mori cone), and polytope facets
from trying every n-subset of the vertices as a hyperplane. They are slow
and simple on purpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from pathlib import Path
from typing import Sequence

from .errors import (
    NonIntegralCoefficient,
    NonSimplicialFacet,
    OriginNotInterior,
    TooLarge,
)
from .fan import (
    Fan,
    construct_product,
    construct_projective_space,
    make_fan,
    star_subdivision,
    validate,
)
from .fvector import FVector, f_vector
from .invariants import mori_cone_extremal_classes, mukai_check
from .io import serialize_fan
from .primitive import degrees_summary, primitive_collections

_MAX_ORACLE_RAYS = 16
_MAX_ORACLE_RHO = 6
_MAX_ORACLE_WALLS = 200
# As many subsets as the 2^16 that the ray-subset scan may visit.
_MAX_ORACLE_SUBSETS = 1 << 16


def _oracle_faces(fan: Fan) -> frozenset[int]:
    """The bitmask of every face, the empty one included, by scanning every
    subset of the rays for the face property."""
    m = len(fan.rays)
    if m > _MAX_ORACLE_RAYS:
        raise TooLarge(f"{m} rays exceeds the oracle limit "
                       f"{_MAX_ORACLE_RAYS}")
    cone_masks = [sum(1 << i for i in cone) for cone in fan.max_cones]
    return frozenset(mask for mask in range(1 << m)
                     if any(mask & ~c == 0 for c in cone_masks))


def oracle_primitive_collections(fan: Fan) -> list[tuple[int, ...]]:
    """Minimal non-faces: the non-faces whose every one-ray drop is a
    face."""
    faces = fan.cached(_oracle_faces)
    m = len(fan.rays)
    minimal = []
    for mask in range(1 << m):
        if mask in faces:
            continue
        bits = [i for i in range(m) if mask >> i & 1]
        if all(mask ^ (1 << i) in faces for i in bits):
            minimal.append(tuple(bits))
    return sorted(minimal, key=lambda s: (len(s), s))


def _nonneg_combination_exists(columns: Sequence[Sequence[int]],
                               target: Sequence[int]) -> bool:
    """Whether target = sum lambda_i * columns_i admits lambda >= 0, by a
    phase-one simplex over exact rationals with Bland's rule."""
    rows = len(target)
    cols = len(columns)
    if cols == 0:
        return all(x == 0 for x in target)
    # Tableau rows: [A | I | b] with b >= 0 after sign normalization;
    # minimize the sum of the artificial variables.
    tab = []
    for r in range(rows):
        sign = -1 if target[r] < 0 else 1
        row = [Fraction(sign * columns[c][r]) for c in range(cols)]
        row += [Fraction(1 if a == r else 0) for a in range(rows)]
        row.append(Fraction(sign * target[r]))
        tab.append(row)
    total = cols + rows
    cost = [Fraction(0)] * (total + 1)
    for a in range(rows):
        cost[cols + a] = Fraction(1)
    for r in range(rows):
        for j in range(total + 1):
            cost[j] -= tab[r][j]
    basis = [cols + r for r in range(rows)]
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for r in range(rows):
            if tab[r][enter] > 0:
                ratio = tab[r][total] / tab[r][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return False
        _, piv = best
        inv = tab[piv][enter]
        tab[piv] = [x / inv for x in tab[piv]]
        for r in range(rows):
            if r != piv and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[piv])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[piv])]
        basis[piv] = enter
    return -cost[total] == 0


def oracle_mori_extremals(fan: Fan) -> list[tuple[int, ...]]:
    """Extremal wall classes by definition: a class is extremal when it is
    not a nonnegative combination of the other distinct wall classes."""
    if len(fan.rays) - fan.dim > _MAX_ORACLE_RHO:
        raise TooLarge(f"Picard number exceeds the oracle limit "
                       f"{_MAX_ORACLE_RHO}")
    walls = fan.cached(_wall_classes)
    if len(walls) > _MAX_ORACLE_WALLS:
        raise TooLarge(f"{len(walls)} walls exceeds the oracle limit "
                       f"{_MAX_ORACLE_WALLS}")
    classes = sorted(set(walls))
    out = []
    for i, candidate in enumerate(classes):
        others = [c for j, c in enumerate(classes) if j != i]
        if not _nonneg_combination_exists(others, candidate):
            out.append(candidate)
    return out


def oracle_f_vector(fan: Fan) -> FVector:
    """Face counts as the number of face masks with each number of rays."""
    counts = [0] * (fan.dim + 1)
    for mask in fan.cached(_oracle_faces):
        counts[mask.bit_count()] += 1
    return FVector(fan.dim, tuple(counts))


def _fraction_coordinates(basis: Sequence[Sequence[int]],
                          target: Sequence[int]) -> list[Fraction] | None:
    """The coordinates of target in a basis of n integer vectors of length
    n, by Gauss-Jordan elimination over Fraction; None when the vectors
    are dependent."""
    n = len(target)
    rows = [[Fraction(b[r]) for b in basis] + [Fraction(target[r])]
            for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def _wall_classes(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The class vector of every wall curve, by definition, in the order of
    the pairs of maximal cones. Two maximal cones that share n - 1 rays
    meet in a wall, and their rays u and v off it satisfy
    u + v = sum(c_i x_i) over the wall rays x_i, solved over Fraction; the
    class vector is +1 at u and v and -c_i at the x_i, and its sum
    2 - sum(c_i) is the wall's anticanonical degree. The fan must be
    smooth and complete; a wall whose relation is not of that form with
    integer c_i raises NonIntegralCoefficient."""
    cones = fan.max_cones
    if comb(len(cones), 2) > _MAX_ORACLE_SUBSETS:
        raise TooLarge(f"C({len(cones)}, 2) cone pairs exceeds the oracle "
                       f"limit {_MAX_ORACLE_SUBSETS}")
    classes = []
    for a, b in combinations(cones, 2):
        wall = sorted(set(a) & set(b))
        if len(wall) != fan.dim - 1:
            continue
        (u,) = set(a) - set(b)
        (v,) = set(b) - set(a)
        coords = _fraction_coordinates(
            [fan.rays[i] for i in wall] + [fan.rays[u]], fan.rays[v])
        if coords is None or coords[-1] != -1 or \
                any(c.denominator != 1 for c in coords):
            raise NonIntegralCoefficient(
                f"wall {tuple(wall)} has no relation u + v = sum(c_i x_i) "
                "with integer c_i")
        vec = [0] * len(fan.rays)
        vec[u] = vec[v] = 1
        for i, c in zip(wall, coords):
            vec[i] = -int(c)
        classes.append(tuple(vec))
    return tuple(classes)


def oracle_pseudo_index(fan: Fan) -> int:
    """The least wall degree, by definition, from _wall_classes."""
    return min(sum(c) for c in fan.cached(_wall_classes))


def _hyperplane_normal(points: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """A primitive integer normal of the hyperplane through n points of
    Z^n, or None when the points are affinely dependent, by integer
    Gauss-Jordan elimination of their difference rows."""
    n = len(points[0])
    rows = [[p[j] - points[0][j] for j in range(n)] for p in points[1:]]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f, g = rows[i][col], rows[r][col]
                rows[i] = [g * x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    if len(pivots) < n - 1:
        return None
    # Each row now has nonzero entries only in its pivot column and the
    # one free column; the normal is 1 on the free column, scaled to
    # clear the pivots.
    (free,) = set(range(n)) - set(pivots)
    scale = lcm(*(rows[i][col] for i, col in enumerate(pivots)))
    normal = [0] * n
    normal[free] = scale
    for i, col in enumerate(pivots):
        normal[col] = -rows[i][free] * scale // rows[i][col]
    g = 0
    for x in normal:
        g = gcd(g, x)
    return tuple(x // g for x in normal)


def oracle_facets(vertices: Sequence[Sequence[int]],
                  n: int) -> list[tuple[int, ...]]:
    """Facet vertex-index sets of the convex hull of the vertices by trying
    every n-subset as a hyperplane and keeping those with every vertex on
    one side. Raises OriginNotInterior when the vertices lie in one
    hyperplane or a facet fails to keep the origin strictly inside, and
    NonSimplicialFacet when a facet holds more than n vertices."""
    m = len(vertices)
    if comb(m, n) > _MAX_ORACLE_SUBSETS:
        raise TooLarge(f"C({m}, {n}) vertex subsets exceeds the oracle "
                       f"limit {_MAX_ORACLE_SUBSETS}")
    facets = set()
    for subset in combinations(range(m), n):
        normal = _hyperplane_normal([vertices[i] for i in subset])
        if normal is None:
            continue
        values = [sum(a * b for a, b in zip(normal, v)) for v in vertices]
        offset = values[subset[0]]
        if max(values) > offset:
            if min(values) < offset:
                continue
            offset = -offset
            values = [-v for v in values]
        on_plane = tuple(i for i in range(m) if values[i] == offset)
        if len(on_plane) == m:
            raise OriginNotInterior("the vertices lie in one hyperplane")
        if len(on_plane) > n:
            raise NonSimplicialFacet(f"facet {on_plane} has {len(on_plane)} "
                                     f"vertices in dimension {n}")
        if offset <= 0:
            raise OriginNotInterior(f"facet {on_plane} does not keep the "
                                    "origin strictly inside")
        facets.add(on_plane)
    if not facets:
        raise OriginNotInterior("the vertices lie in a proper affine "
                                "subspace")
    return sorted(facets)


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    fan: Fan
    fingerprint: dict


def _fingerprint(fan: Fan) -> dict:
    degrees = sorted(sum(c) for c in fan.cached(_wall_classes))
    # Toric Kleiman criterion: -K is ample iff -K . C > 0 on every wall.
    fano = degrees[0] >= 1
    fp = {
        "dimension": fan.dim,
        "ray_count": len(fan.rays),
        "picard_rho": len(fan.rays) - fan.dim,
        "fano": fano,
        "pseudo_index_iota": degrees[0] if fano else None,
        "f_vector": list(oracle_f_vector(fan).f),
        "relation_summary": [list(p) for p in degrees_summary(fan)],
        "wall_degrees": degrees,
        "mukai_verdict": mukai_check(fan).equality_case if fano else None,
    }
    return fp


def _cross_check(name: str, fan: Fan) -> None:
    """Oracle agreement where the size limits permit; failures raise."""
    if len(fan.rays) <= _MAX_ORACLE_RAYS:
        fast = primitive_collections(fan)
        slow = oracle_primitive_collections(fan)
        if fast != slow:
            raise AssertionError(f"{name}: collections disagree: "
                                 f"{fast} vs {slow}")
        if oracle_f_vector(fan) != f_vector(fan):
            raise AssertionError(f"{name}: face counts disagree")
    if len(fan.rays) - fan.dim <= _MAX_ORACLE_RHO and \
            len(fan.cached(_wall_classes)) <= _MAX_ORACLE_WALLS:
        fast_ext = sorted(mori_cone_extremal_classes(fan))
        slow_ext = sorted(oracle_mori_extremals(fan))
        if fast_ext != slow_ext:
            raise AssertionError(f"{name}: extremal classes disagree: "
                                 f"{fast_ext} vs {slow_ext}")


def _partitions(total: int, largest: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            out.append((part,) + rest)
    return out


def _hirzebruch_two() -> Fan:
    rays = ((1, 0), (0, 1), (-1, 2), (0, -1))
    cones = ((0, 1), (1, 2), (2, 3), (0, 3))
    return make_fan(2, rays, cones)


def generate_corpus() -> tuple[CorpusEntry, ...]:
    """Deterministically build the bundled fan collection with
    oracle-checked fingerprints, sorted by name."""
    items: list[tuple[str, Fan]] = []

    for n in range(1, 8):
        items.append((f"projective_{n}", construct_projective_space(n)))

    for total in range(2, 8):
        for parts in _partitions(total, total - 1):
            if len(parts) < 2:
                continue
            name = "product_" + "x".join(str(p) for p in parts)
            items.append((name, construct_product(
                *map(construct_projective_space, parts))))

    # Blow-ups of projective space along invariant subvarieties of every
    # codimension >= 2; the center of codimension k is a k-dimensional cone.
    for n in range(2, 5):
        base = construct_projective_space(n)
        for k in range(2, n + 1):
            sigma = base.max_cones[0][:k]
            items.append((f"blowup_projective_{n}_codim_{k}",
                          star_subdivision(base, sigma)))

    # Iterated fixed-point blow-ups of the plane that stay Fano, up to
    # three subdivisions, deduplicated by fingerprint.
    seen: set[str] = set()
    frontier = [("plane", construct_projective_space(2))]
    for depth in range(1, 4):
        next_frontier = []
        for _, fan in frontier:
            for sigma in fan.max_cones:
                candidate = star_subdivision(fan, sigma)
                if oracle_pseudo_index(candidate) < 1:
                    continue
                key = json.dumps(_fingerprint(candidate), sort_keys=True)
                if key in seen:
                    continue
                seen.add(key)
                name = f"del_pezzo_depth_{depth}_{len(next_frontier)}"
                next_frontier.append((name, candidate))
        items.extend(next_frontier)
        frontier = next_frontier

    items.append(("hirzebruch_2_non_fano", _hirzebruch_two()))

    entries = []
    for name, fan in items:
        report = validate(fan)
        if not report.ok:
            raise AssertionError(f"{name}: corpus fan fails validation: "
                                 f"{report.failed_names}")
        _cross_check(name, fan)
        entries.append(CorpusEntry(name, fan, _fingerprint(fan)))
    entries.sort(key=lambda e: e.name)
    return tuple(entries)


_POLYTOPE_FILES = {
    "poly_square": "POLY 2 4\n1 0\n0 1\n-1 0\n0 -1\n",
    "poly_hexagon": "POLY 2 6\n1 0\n1 1\n0 1\n-1 0\n-1 -1\n0 -1\n",
    "poly_octahedron":
        "POLY 3 6\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n",
}


def write_corpus(directory: str | Path) -> tuple[CorpusEntry, ...]:
    """Write every corpus fan as a `.fan` file, a few polytope vertex lists
    as `.poly` files, and the fingerprint index; returns the corpus entries."""
    corpus = generate_corpus()
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for entry in corpus:
        (root / f"{entry.name}.fan").write_text(serialize_fan(entry.fan),
                                               encoding="utf-8")
    for name, text in sorted(_POLYTOPE_FILES.items()):
        (root / f"{name}.poly").write_text(text, encoding="utf-8")
    index = {e.name: e.fingerprint for e in corpus}
    (root / "fingerprints.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return corpus


def corpus_directory() -> Path:
    """The bundled corpus directory shipped inside the package."""
    return Path(__file__).resolve().parent / "corpus"
