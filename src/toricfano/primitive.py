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
from itertools import combinations
from typing import Sequence

from . import lattice
from .errors import (
    InternalInconsistency,
    NonIntegralCoefficient,
    NotInSupport,
)
from .fan import Fan, _cone_coordinates, face_table

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


def _minimal_non_faces(fan: Fan) -> tuple[Collection, ...]:
    table = face_table(fan)
    found: list[Collection] = []
    # A minimal non-face has all its (s-1)-subsets spanning cones, so its
    # size is at most dim + 1.
    for s in range(2, fan.dim + 2):
        below = table[s - 1]
        level = table[s] if s <= fan.dim else frozenset()
        groups: dict[Collection, list[int]] = {}
        for face in sorted(below):
            groups.setdefault(face[:-1], []).append(face[-1])
        for prefix, lasts in groups.items():
            for a, b in combinations(lasts, 2):
                cand = prefix + (a, b)
                if cand in level:
                    continue
                # Dropping a or b gives a face of this group already.
                if all(cand[:i] + cand[i + 1:] in below
                       for i in range(s - 2)):
                    found.append(cand)
    # Prefixes arrive in increasing order and each group's pairs are
    # lexicographic, so found is already in (size, tuple) order.
    return tuple(found)


def primitive_collections(fan: Fan) -> list[Collection]:
    """All primitive collections (minimal non-faces), sorted by size then
    lexicographically.

    Candidates come from Apriori-style joins over the face table: for each
    size s, faces of size s-1 are grouped by their first s-2 indices, and
    each pair a < b of last indices in a group gives prefix + (a, b). A
    candidate qualifies iff it is not a face and every facet made by
    dropping a prefix index is a face; the facets made by dropping a or b
    are faces of the group. Supersets of smaller collections fail that test.

    Completeness: a minimal non-face S of size s >= 2 has every proper
    subset a face, in particular S minus its last index and S minus its
    second-to-last index. These two faces of size s-1 share the prefix
    S[:s-2], so their join produces S. Computed at most once per Fan.
    """
    return list(fan.cached(_minimal_non_faces))


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
