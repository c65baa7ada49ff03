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
from .fan import Fan, _cone_coordinates, _max_cone_masks, _rays_of

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
    """The minimal non-faces in (size, tuple) order, by Berge's algorithm
    on bit masks, bit i for ray i.

    A set of rays is a face exactly when it misses the complement of some
    maximal cone, so the non-faces are the sets that meet every complement
    and the minimal non-faces are the minimal transversals of the
    complements. Berge's algorithm takes the complements in turn. Each
    minimal transversal of those taken so far that meets the next one
    stays; each that misses it is extended by every ray of it, and an
    extension is kept unless it holds a transversal that stayed. No
    extension holds another one, and none lies inside a transversal that
    stayed, so what is kept is again the minimal transversals. A
    complement that every transversal meets changes nothing.

    An extension t | bit holds a stayed set s exactly when s & ~t is bit
    alone: s meets the complement and t does not, so s has a ray outside
    t, and that ray must be bit. So each missed t gets one mask: the
    complement with every such one-bit s & ~t cleared, and t is extended
    by the bits left in it. The extensions join the family only after the
    step, so each is tested against the stayed sets alone.
    """
    everything = (1 << len(fan.rays)) - 1
    minimal = [0]
    for cone in fan.cached(_max_cone_masks):
        missed = [t for t in minimal if t & cone == t]
        if not missed:
            continue
        for t in missed:
            minimal.remove(t)
        edge = everything ^ cone
        extensions = []
        for t in missed:
            free = edge
            outside = ~t
            for s in minimal:
                extra = s & outside
                if not extra & (extra - 1):
                    free &= ~extra
            while free:
                bit = free & -free
                extensions.append(t | bit)
                free ^= bit
        minimal += extensions
    return tuple(sorted((_rays_of(mask) for mask in minimal),
                        key=lambda c: (len(c), c)))


def primitive_collections(fan: Fan) -> list[Collection]:
    """All primitive collections (minimal non-faces), sorted by size then
    lexicographically; a ray in no maximal cone is one on its own.

    They are the minimal transversals of the complements of the maximal
    cones, found at most once per Fan by _minimal_non_faces.
    """
    return list(fan.cached(_minimal_non_faces))


def primitive_relation(fan: Fan, collection: Sequence[int]) -> PrimitiveRelation:
    """Compute the primitive relation of a collection.

    The sum of the collection is located in the first maximal cone, in
    max_cones order, where its coordinates are all nonnegative, read off
    the fan's cached cone inverses in integers; zero coefficients are
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
        for index, cone in enumerate(fan.max_cones):
            nums, size = _cone_coordinates(fan, index, s)
            if all(x >= 0 for x in nums):
                located = (cone, nums, size)
                break
        if located is None:
            raise NotInSupport(
                f"sum of {collection} lies in no maximal cone")
        cone, nums, size = located
        pairs = []
        for idx, num in zip(cone, nums):
            if num == 0:
                continue
            if num % size:
                raise NonIntegralCoefficient(
                    f"coefficient {Fraction(num, size)} on ray {idx}")
            pairs.append((idx, num // size))
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
    # The class vector is zero off the collection and the targets, so the
    # kernel identity sums those rays alone.
    support = [(vec[i], fan.rays[i]) for i in collection + targets]
    if any(sum(a * r[j] for a, r in support) for j in range(fan.dim)):
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
