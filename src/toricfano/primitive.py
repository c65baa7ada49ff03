"""Primitive collections and primitive relations.

A primitive collection is a minimal set of ray generators that does not span
a cone of the fan. Its relation expresses the sum of the collection in the
minimal cone containing it, with strictly positive integer coefficients; the
degree is the order minus the coefficient sum. The class vector of a relation
lies in the integer kernel of the ray matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lattice
from .errors import (
    InternalInconsistency,
    NonIntegralCoefficient,
    NotInSupport,
)
from .fan import Fan, _cone_coordinates, _face_sweep

Collection = tuple[int, ...]


@dataclass(frozen=True)
class PrimitiveRelation:
    """The lattice identity sum(collection) = sum(coeffs[i] * targets[i])."""

    collection: Collection
    targets: tuple[int, ...]
    coeffs: tuple[int, ...]
    order: int
    degree: int
    class_vector: tuple[int, ...]


def primitive_collections(fan: Fan) -> list[Collection]:
    """All primitive collections (minimal non-faces), sorted by size then
    lexicographically.

    They are read off the fan's sweep of its face levels, which runs at
    most once per Fan: Apriori-style joins over bit masks, bit i for ray
    i, of faces that share all but their lowest ray, with two adjacent
    levels alive at a time. fan._face_sweep states the join test and why
    it finds every minimal non-face.
    """
    return list(fan.cached(_face_sweep)[1])


def primitive_relation(fan: Fan, collection: Sequence[int]) -> PrimitiveRelation:
    """Compute the primitive relation of a collection.

    The sum of the collection is located in the first maximal cone, in
    max_cones order, where its coordinates are all nonnegative, read off
    the fan's cached cone adjugates in integers; zero coefficients are
    dropped so the retained targets span the minimal containing cone.
    """
    collection = tuple(sorted(collection))
    m = len(fan.rays)
    s = lattice.vector_sum([fan.rays[i] for i in collection], fan.dim)
    order = len(collection)
    if all(x == 0 for x in s):
        targets: tuple[int, ...] = ()
        coeffs: tuple[int, ...] = ()
    else:
        located = None
        for cone in fan.max_cones:
            nums, det = _cone_coordinates(fan, cone, s)
            if all(x * det >= 0 for x in nums):
                located = (cone, nums, det)
                break
        if located is None:
            raise NotInSupport(
                f"sum of {collection} lies in no maximal cone")
        cone, nums, det = located
        pairs = []
        for idx, num in zip(cone, nums):
            if num == 0:
                continue
            if num % det:
                raise NonIntegralCoefficient(
                    f"coefficient {Fraction(num, det)} on ray {idx}")
            pairs.append((idx, num // det))
        pairs.sort()
        targets = tuple(i for i, _ in pairs)
        coeffs = tuple(a for _, a in pairs)
    if set(targets) & set(collection):
        raise InternalInconsistency(
            f"collection {collection} meets its own target cone {targets}")
    degree = order - sum(coeffs)
    vec = [0] * m
    for i in collection:
        vec[i] = 1
    for i, a in zip(targets, coeffs):
        vec[i] = -a
    relation = PrimitiveRelation(collection, targets, coeffs, order, degree,
                                 tuple(vec))
    if any(sum(a * r[j] for a, r in zip(relation.class_vector, fan.rays))
           for j in range(fan.dim)):
        raise InternalInconsistency(
            f"relation of {collection} is not in the kernel")
    return relation


def _relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    return tuple(primitive_relation(fan, c)
                 for c in primitive_collections(fan))


def all_relations(fan: Fan) -> list[PrimitiveRelation]:
    """Primitive relations of every primitive collection, in collection
    order. Computed at most once per Fan."""
    return list(fan.cached(_relations))


def degrees_summary(fan: Fan) -> list[tuple[int, int]]:
    """The multiset of (order, degree) pairs, as a sorted list."""
    return sorted((r.order, r.degree) for r in all_relations(fan))
