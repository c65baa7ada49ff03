"""Fano test, Picard number, pseudo-index, Mori cone generators, the
wall-degree sum checks, and the generalized Mukai inequality verdict.

The pseudo-index iota is the minimum anticanonical degree over the rational
curves. Every effective curve class of a smooth complete toric variety is
a nonnegative integer combination of wall classes, so iota is the least
wall degree. It is read off the primitive relations instead: on a Fano fan
the least wall degree equals the least primitive-relation degree. Proof.
Let psi be the function that is linear on each maximal cone and 1 on each
ray. On a Fano fan it is the gauge of the polytope spanned by the rays,
so it is convex. For a multiset S of rays, delta(S) = sum(psi(s) for s in
S) - psi(sum S) is then >= 0 and superadditive, and for a primitive
collection P, delta(P) is the degree of its relation.
- Least primitive degree <= each wall degree. Take a wall with
  u + v = sum(c_i x_i), and let Q be {u, v} plus each x_i with c_i < 0,
  taken -c_i times. Then sum Q = sum(c_i x_i for c_i > 0) lies in the
  wall, so delta(Q) = 2 - sum(c_i) is the wall degree. The set of rays in
  Q is not a cone: if it were, sum Q would lie in its relative interior,
  a cone that holds u, and also in a face of the wall, which does not.
  So that set holds a primitive collection P, and
  deg r(P) = delta(P) <= delta(Q).
- Each primitive degree >= least wall degree. Let P = {x_1, ..., x_h},
  a = x_1 and b = x_2 + ... + x_h, which lies in the cone P - {x_1}. So
  deg r(P) = psi(a) + psi(b) - psi(a + b), twice the gap between the
  chord of psi over the segment from a to b and psi at its midpoint.
  Across a wall C with primitive normal l, the linear forms of psi differ
  by deg(C) * l, so the slope of psi along the segment jumps by
  deg(C) * |l(b - a)| where it crosses l = 0, and summing over those
  crossings gives deg r(P) = sum(deg(C_k) * min(|l_k(a)|, |l_k(b)|))
  over the walls C_k that the segment crosses, after a generic
  perturbation of a and b. That is a sum of nonnegative integer multiples
  of wall degrees, all >= 1 by the first part, and it is >= 1 on a Fano
  fan, so it is at least the least wall degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from . import lattice
from .errors import (
    DimensionOutOfRange,
    InternalInconsistency,
    NonIntegralCoefficient,
    NotFano,
    UnpairedWall,
)
from .fan import Fan, _walls
from .fvector import f_vector
from .primitive import PrimitiveRelation, all_relations, primitive_collections

# ---------------------------------------------------------------------------
# wall curves


@dataclass(frozen=True, slots=True)
class WallCurve:
    """An invariant curve: a wall with its two opposite rays and the integer
    relation u + v = sum(c_i * x_i) over the wall rays, stored as the class
    vector (+1 at u and v, -c_i at the wall rays)."""

    wall: tuple[int, ...]
    opposite_rays: tuple[int, int]
    relation: tuple[int, ...]
    anticanonical_degree: int


def _wall_curves(fan: Fan) -> tuple[WallCurve, ...]:
    """The wall curves in canonical wall order. Walls with the same class
    vector, or the same opposite rays, share one tuple for it."""
    out = []
    m = len(fan.rays)
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    # A wall's first side slices its ray tuple out of the cone, which is
    # cheaper than reading the bits of its mask.
    cones = fan.max_cones
    walls = []
    for sides in fan.cached(_walls).values():
        cone, pos = cones[sides[0]], sides[1]
        walls.append((cone[:pos] + cone[pos + 1:], sides))
    walls.sort()
    for wall, sides in walls:
        if len(sides) != 4:
            raise UnpairedWall(
                f"wall {wall} lies in {len(sides) // 2} maximal cones")
        cone_u, pos_u, cone_v, pos_v = sides
        u, v = cones[cone_u][pos_u], cones[cone_v][pos_v]
        basis = [fan.rays[i] for i in wall] + [fan.rays[u]]
        sol = lattice.solve_in_basis(basis, fan.rays[v])
        if sol[-1] != -1:
            raise InternalInconsistency(
                f"opposite ray coefficient {sol[-1]} at wall {wall}")
        vec = [0] * m
        vec[u] = 1
        vec[v] = 1
        for idx, coeff in zip(wall, sol):
            if coeff.denominator != 1:
                raise NonIntegralCoefficient(
                    f"wall {wall} relation has coefficient {coeff}")
            # u + v = sum(c_i x_i), so the class vector carries -c_i.
            vec[idx] = -int(coeff)
        relation = tuple(vec)
        relation = classes.setdefault(relation, relation)
        pair = (u, v) if u < v else (v, u)
        pair = pairs.setdefault(pair, pair)
        out.append(WallCurve(wall, pair, relation, sum(relation)))
    return tuple(out)


def wall_curves(fan: Fan) -> list[WallCurve]:
    """One WallCurve per codimension-1 face, in canonical wall order.
    Computed at most once per Fan."""
    return list(fan.cached(_wall_curves))


# ---------------------------------------------------------------------------
# basic invariants


def picard_number(fan: Fan) -> int:
    return len(fan.rays) - fan.dim


def is_fano(fan: Fan) -> bool:
    """True iff the fan has a primitive relation and every one has strictly
    positive degree. A fan without one is a single cone, never complete."""
    relations = all_relations(fan)
    return bool(relations) and all(r.degree >= 1 for r in relations)


def pseudo_index(fan: Fan) -> int:
    """Minimum anticanonical degree of an invariant curve (Fano fans only).

    It is the least degree of a primitive relation, which equals the least
    wall degree on a Fano fan (see the module docstring), so no wall curve
    is built. is_fano has already computed the relations.
    """
    if not is_fano(fan):
        raise NotFano("pseudo-index is only defined for Fano fans")
    return min(r.degree for r in all_relations(fan))


# ---------------------------------------------------------------------------
# Mori cone generators

def _extremal_flags(vectors: list[tuple[int, ...]]) -> list[bool]:
    """For each vector, whether it spans an extreme ray of the cone generated
    by all of them; the vectors must be nonzero and span Q^d.

    The least face through a vector is cut out by the facets through it. A
    face of dimension >= 2 has an extreme ray, which lies on more facets. A
    cone that holds a line l has a vector on every facet: any with positive
    weight in l + (-l) = 0. So a vector spans an extreme ray exactly when
    some facet misses it and no other vector lies on a strictly larger set
    of facets."""
    facets = lattice.cone_facets(vectors)
    on = [sum(1 << k for k, (_, mask) in enumerate(facets) if mask >> i & 1)
          for i in range(len(vectors))]
    return [t.bit_count() < len(facets)
            and not any(u != t and u & t == t for u in on) for t in on]


def _mori_extremals(fan: Fan) -> tuple[tuple[int, ...], ...]:
    first = set(fan.max_cones[0])
    outside = [i for i in range(len(fan.rays)) if i not in first]
    classes = sorted({w.relation for w in wall_curves(fan)})
    coords = [tuple(c[i] for i in outside) for c in classes]
    flags = _extremal_flags(coords)
    return tuple(c for c, f in zip(classes, flags) if f)


def mori_cone_extremal_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Primitive integer generators of the extreme rays of the cone spanned
    by the wall classes, canonically ordered. Computed at most once per
    Fan.

    Each class is read on the rho rays outside max_cones[0], and
    lattice.cone_facets runs on those integer coordinates:
    - a relation that vanishes on those rays is a relation among the
      independent rays of max_cones[0], so it is zero;
    - so the projection is injective on the rank-rho relation space, and
      it maps extreme rays to extreme rays;
    - invariant curves span N_1, so the projected classes span Q^rho.
    """
    return list(fan.cached(_mori_extremals))


def is_extremal(fan: Fan,
                relation: PrimitiveRelation | Sequence[int]) -> bool:
    """True iff the class (of a relation, or given directly as a vector)
    spans an extreme ray of the Mori cone."""
    vector = getattr(relation, "class_vector", relation)
    target = lattice.make_primitive(vector)
    return target in mori_cone_extremal_classes(fan)


# ---------------------------------------------------------------------------
# contractibility and fibrations


def contractible_sufficient(fan: Fan, relation: PrimitiveRelation) -> bool:
    """True certifies contractibility (degree below twice the pseudo-index);
    False is inconclusive."""
    return relation.degree < 2 * pseudo_index(fan)


@dataclass(frozen=True)
class SmallCodimSearch:
    """Result of the search for a contractible relation whose target cone is
    small: under the hypothesis 4 * iota > n + 4 such a relation must exist,
    so an empty search result raises the violation flag."""

    hypothesis_holds: bool
    relation: PrimitiveRelation | None
    guarantee_violated: bool


def small_codim_contractible(fan: Fan) -> SmallCodimSearch:
    """Search for a contractible relation with at most iota - 2 targets."""
    iota = pseudo_index(fan)
    hypothesis = 4 * iota > fan.dim + 4
    hit = None
    for r in all_relations(fan):
        if contractible_sufficient(fan, r) and len(r.targets) <= iota - 2:
            hit = r
            break
    return SmallCodimSearch(hypothesis, hit,
                            hypothesis and hit is None)


def fibration_in_P_iota(fan: Fan) -> bool:
    """Whether the variety fibers in projective spaces of dimension iota - 1.

    Two characterizations are evaluated and must agree: existence of a
    zero-sum relation of order iota, and the face-count inequality
    f_{iota-1} < C(f_0, iota). A fan of a projective space counts as a
    trivial fibration over a point (its zero-sum relation has order iota).
    """
    iota = pseudo_index(fan)
    by_relation = any(r.order == iota and not r.targets
                      for r in all_relations(fan))
    f_iota_minus_1 = f_vector(fan).face_count(iota - 1)
    by_counts = f_iota_minus_1 < comb(len(fan.rays), iota)
    if by_relation != by_counts:
        raise InternalInconsistency(
            f"fibration criteria disagree: relation={by_relation}, "
            f"counts={by_counts}")
    return by_relation


def product_of_projective_spaces(fan: Fan) -> list[int] | None:
    """Factor dimensions if the fan is a product of projective-space fans.

    Recognition is purely combinatorial: the primitive collections must be
    pairwise disjoint with zero-sum relations and partition the rays.
    They are the minimal non-faces of the maximal cones, which fix a
    simplicial complex, so the maximal cones are then the transversal
    unions (one ray left out of each collection); counting them rejects a
    cone listed twice.
    """
    collections = primitive_collections(fan)
    covered: set[int] = set()
    for c in collections:
        if covered & set(c):
            return None
        covered |= set(c)
        total = lattice.vector_sum([fan.rays[i] for i in c], fan.dim)
        if any(x != 0 for x in total):
            return None
    if covered != set(range(len(fan.rays))):
        return None
    orders = [len(c) for c in collections]
    expected_cones = 1
    for h in orders:
        expected_cones *= h
    if len(fan.max_cones) != expected_cones:
        return None
    return sorted(h - 1 for h in orders)


# ---------------------------------------------------------------------------
# degree-sum identity and inequality


def degree_sum_identity(fan: Fan) -> bool:
    """Whether the total of (degree - 2) over all walls equals
    12 f_{n-3} - 3 (n-1) f_{n-2}."""
    if fan.dim < 2:
        raise DimensionOutOfRange("the identity needs dimension at least 2")
    fv = f_vector(fan)
    total = sum(w.anticanonical_degree - 2 for w in wall_curves(fan))
    return total == 12 * fv.face_count(fan.dim - 3) \
        - 3 * (fan.dim - 1) * fv.face_count(fan.dim - 2)


def lemma_degree_sum_check(fan: Fan) -> bool:
    """Both the degree-sum identity and the inequality
    12 f_{n-3} >= (3n + iota - 5) f_{n-2}."""
    if not is_fano(fan):
        raise NotFano("the inequality needs the pseudo-index")
    iota = pseudo_index(fan)
    fv = f_vector(fan)
    inequality = 12 * fv.face_count(fan.dim - 3) >= \
        (3 * fan.dim + iota - 5) * fv.face_count(fan.dim - 2)
    return degree_sum_identity(fan) and inequality


# ---------------------------------------------------------------------------
# the Mukai verdict


@dataclass(frozen=True)
class MukaiReport:
    picard_rho: int
    pseudo_index_iota: int
    is_fano: bool
    dim_n: int
    inequality_lhs: int
    inequality_holds: bool
    equality_case: str
    factors: tuple[int, ...] | None


def mukai_check(fan: Fan) -> MukaiReport:
    """Verdict on rho * (iota - 1) <= n with equality classification.

    Equality without recognition as a product of projective spaces is
    reported as EqualButUnrecognized and never silently absorbed.
    """
    if not is_fano(fan):
        raise NotFano("the inequality is stated for Fano fans")
    rho = picard_number(fan)
    iota = pseudo_index(fan)
    n = fan.dim
    lhs = rho * (iota - 1)
    holds = lhs <= n
    factors: tuple[int, ...] | None = None
    if lhs == n:
        found = product_of_projective_spaces(fan)
        if found is None:
            case = "EqualButUnrecognized"
        else:
            if len(found) != rho or any(d != iota - 1 for d in found):
                raise InternalInconsistency(
                    f"product factors {found} do not match rho={rho}, "
                    f"iota={iota}")
            factors = tuple(found)
            case = "ProductOfProjectiveSpaces"
    else:
        case = "NotEqual"
    return MukaiReport(rho, iota, True, n, lhs, holds, case, factors)
