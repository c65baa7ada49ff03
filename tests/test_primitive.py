"""Primitive collections and their lattice relations."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricfano import fan as fan_module
from toricfano import fvector, primitive
from toricfano.cli import _invariants_payload
from toricfano.errors import (
    InternalInconsistency,
    NonIntegralCoefficient,
    NotInSupport,
    SingularBasis,
)
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    faces,
    is_cone,
    make_fan,
    star_subdivision,
    validate,
)
from toricfano.fvector import f_vector
from toricfano.invariants import mukai_check, wall_curves
from toricfano.oracle import oracle_f_vector, oracle_primitive_collections
from toricfano.primitive import (
    all_relations,
    degrees_summary,
    primitive_collections,
    primitive_relation,
)


def test_projective_plane_single_collection():
    p2 = construct_projective_space(2)
    assert primitive_collections(p2) == [(0, 1, 2)]
    rel = primitive_relation(p2, (0, 1, 2))
    assert rel.targets == ()
    assert rel.order == 3
    assert rel.degree == 3
    assert rel.class_vector == (1, 1, 1)


def test_product_of_lines_two_pairs():
    p1 = construct_projective_space(1)
    fan = construct_product(p1, p1)
    cols = primitive_collections(fan)
    assert len(cols) == 2
    for col in cols:
        u, v = fan.rays[col[0]], fan.rays[col[1]]
        assert tuple(a + b for a, b in zip(u, v)) == (0, 0)
        rel = primitive_relation(fan, col)
        assert rel.degree == 2 and rel.targets == ()


def test_blowup_relations():
    p2 = construct_projective_space(2)
    bl = star_subdivision(p2, p2.max_cones[0])
    summary = degrees_summary(bl)
    assert summary == [(2, 1), (2, 2)]
    relations = all_relations(bl)
    low = next(r for r in relations if r.degree == 1)
    assert len(low.targets) == 1
    assert low.coeffs == (1,)


def test_collections_are_minimal_non_faces():
    fan = construct_product(construct_projective_space(2),
                            construct_projective_space(3))
    for col in primitive_collections(fan):
        assert not is_cone(fan, col)
        for i in range(len(col)):
            assert is_cone(fan, col[:i] + col[i + 1:])


def test_collection_order_bounded_by_dim_plus_one():
    for n in (2, 3, 4):
        fan = construct_projective_space(n)
        assert primitive_collections(fan) == [tuple(range(n + 1))]


def test_non_smooth_fan_yields_non_integral_coefficients():
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -2)],
                   [(0, 1), (1, 2), (0, 2)])
    cols = primitive_collections(fan)
    assert (0, 1, 2) in cols or any(len(c) == 2 for c in cols)
    with pytest.raises(NonIntegralCoefficient):
        for col in cols:
            primitive_relation(fan, col)


def test_a_sum_outside_the_support_raises_not_in_support():
    # P^2 without its cone (0, 2): the sum (0, -1) of rays (-1, -1) and
    # (1, 0) lies only in the cone that was dropped.
    p2 = construct_projective_space(2)
    fan = make_fan(2, p2.rays, [(0, 1), (1, 2)])
    assert (0, 2) in primitive_collections(fan)
    with pytest.raises(NotInSupport,
                       match=r"^sum of \(0, 2\) lies in no maximal cone$"):
        primitive_relation(fan, (0, 2))


def test_dependent_cone_before_the_sum_raises_singular_basis():
    # Cone (0, 2) spans a line and comes first; the sum (1, 1) of the
    # collection (1, 2) is ray 3, which only the later cones hold.
    fan = make_fan(2, [(-1, 0), (0, 1), (1, 0), (1, 1)],
                   [(0, 2), (1, 3), (2, 3)])
    assert fan.max_cones[0] == (0, 2)
    assert (1, 2) in primitive_collections(fan)
    with pytest.raises(SingularBasis):
        primitive_relation(fan, (1, 2))
    checks = {c.name: c for c in validate(fan).checks}
    assert not checks["smoothness"].passed
    assert checks["smoothness"].detail == "cone (0, 2) has determinant 0"
    assert not checks["covering_degree"].passed
    assert checks["covering_degree"].detail == \
        "not attempted: earlier checks failed"


def test_a_relation_off_the_kernel_raises_internal_inconsistency(
        monkeypatch):
    # The hexagon's rays (0, 1) and (1, 0) sum to the ray (1, 1). A
    # positive numerator raised by size in the cone that holds the sum
    # adds one copy of its ray to it, so the relation still has integral
    # coefficients and targets apart from the collection, but its class
    # is off the kernel.
    hexagon = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1),
                           (0, -1)],
                       [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    collection = (hexagon.rays.index((0, 1)), hexagon.rays.index((1, 0)))
    assert collection in primitive_collections(hexagon)
    assert primitive_relation(hexagon, collection).coeffs == (1,)
    coordinates = primitive._cone_coordinates

    def off_by_one(fan, index, target):
        nums, size = coordinates(fan, index, target)
        if min(nums) < 0:
            return nums, size
        k = next(k for k, x in enumerate(nums) if x > 0)
        return nums[:k] + (nums[k] + size,) + nums[k + 1:], size

    monkeypatch.setattr(primitive, "_cone_coordinates", off_by_one)
    with pytest.raises(InternalInconsistency,
                       match=r"^relation of \(3, 4\) is not in the kernel$"):
        primitive_relation(hexagon, collection)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_relations_under_relabelling_and_gl_n_z(drawn_fan, relabelled, data):
    fan = drawn_fan(data)
    moved, label = relabelled(fan, data)

    def mapped(rel):
        vec = [0] * len(label)
        for i, a in enumerate(rel.class_vector):
            vec[label[i]] = a
        pairs = sorted((label[t], a) for t, a in zip(rel.targets, rel.coeffs))
        return (tuple(sorted(label[i] for i in rel.collection)),
                tuple(t for t, _ in pairs), tuple(a for _, a in pairs),
                rel.order, rel.degree, tuple(vec))

    def fields(rel):
        return (rel.collection, rel.targets, rel.coeffs, rel.order,
                rel.degree, rel.class_vector)

    assert sorted(fields(r) for r in all_relations(moved)) == \
        sorted(mapped(r) for r in all_relations(fan))


def test_relation_classes_are_linear_relations_among_the_rays():
    fan = construct_product(construct_projective_space(1),
                            construct_projective_space(2))
    for rel in all_relations(fan):
        assert all(sum(a * r[j] for a, r in zip(rel.class_vector, fan.rays))
                   == 0 for j in range(fan.dim))


def test_closed_forms_beyond_the_oracle_limit():
    # (P^1)^10 has 20 rays, past the oracle's 16-ray limit; P^14 has one
    # collection of size dim + 1, the largest the joins can produce.
    lines = reduce(construct_product, [construct_projective_space(1)] * 10)
    pairs = {frozenset((i, lines.rays.index(tuple(-x for x in r))))
             for i, r in enumerate(lines.rays)}
    assert len(pairs) == 10
    assert {frozenset(c) for c in primitive_collections(lines)} == pairs
    assert f_vector(lines).f == tuple(comb(10, k) * 2 ** k
                                      for k in range(11))
    p14 = construct_projective_space(14)
    assert primitive_collections(p14) == [tuple(range(15))]
    assert f_vector(p14).f == tuple(comb(15, k) for k in range(15))
    # Two hexagon fans x P^2 x (P^1)^3: 21 rays in dimension 9. The
    # collections of a product are those of its factors, and its
    # f-polynomial sum f[j] t^j is the product of theirs.
    factors = [HEXAGON, HEXAGON, construct_projective_space(2)] + \
        [construct_projective_space(1)] * 3
    mixed = reduce(construct_product, factors)
    assert (len(mixed.rays), mixed.dim) == (21, 9)
    expected: set[frozenset] = set()
    f_poly = [1]
    offset = 0
    for factor in factors:
        collections = primitive_collections(factor)
        assert collections == oracle_primitive_collections(factor)
        assert f_vector(factor) == oracle_f_vector(factor)
        after = mixed.dim - offset - factor.dim
        expected |= {frozenset((0,) * offset + factor.rays[i] + (0,) * after
                               for i in c) for c in collections}
        f_poly = [sum(f_poly[i] * f_vector(factor).f[j - i]
                      for i in range(len(f_poly)) if 0 <= j - i <= factor.dim)
                  for j in range(len(f_poly) + factor.dim)]
        offset += factor.dim
    assert {frozenset(mixed.rays[i] for i in c)
            for c in primitive_collections(mixed)} == expected
    assert len(primitive_collections(mixed)) == len(expected) == 22
    assert f_vector(mixed).f == tuple(f_poly)


def test_face_counts_and_collections_run_once_per_fan(monkeypatch):
    # Validation and the face counts read one h count: it is patched in
    # both modules with one wrapper, as Fan.cached keys on the function.
    calls = {"_h_counts": [], "_face_counts": [], "_minimal_non_faces": []}
    for modules, name in (((fan_module, fvector), "_h_counts"),
                          ((fvector,), "_face_counts"),
                          ((primitive,), "_minimal_non_faces")):
        def counting(fan, compute=getattr(modules[0], name), log=calls[name]):
            log.append(fan)
            return compute(fan)
        for module in modules:
            monkeypatch.setattr(module, name, counting)
    fan = _blown_up_product()
    assert validate(fan).ok
    assert f_vector(fan).f == (1, 6, 12, 8)
    assert len(primitive_collections(fan)) == len(all_relations(fan)) == 5
    assert mukai_check(fan).dim_n == 3
    assert _invariants_payload(fan)["f_vector"] == [1, 6, 12, 8]
    assert calls == {name: [fan] for name in calls}


def test_a_ray_in_no_maximal_cone_is_a_primitive_collection():
    # The plane's fan plus the ray (1, 1), which no cone holds.
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                   [(0, 1), (1, 2), (0, 2)])
    assert primitive_collections(fan) == \
        oracle_primitive_collections(fan) == [(3,), (0, 1, 2)]


def _brute_minimal_non_faces(fan):
    """Every subset of the rays that lies in no maximal cone while each of
    its subsets with one ray fewer does, in (size, tuple) order."""
    cones = [set(c) for c in fan.max_cones]

    def is_face(subset):
        return any(cone.issuperset(subset) for cone in cones)

    return [subset for k in range(1, len(fan.rays) + 1)
            for subset in combinations(range(len(fan.rays)), k)
            if not is_face(subset)
            and all(is_face(subset[:i] + subset[i + 1:]) for i in range(k))]


@st.composite
def _hypergraphs(draw):
    """make_fan over up to 10 random rays and a random list of cones: the
    cones need not form a fan, may repeat, and may leave rays out."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(dim, 10))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                         min_size=m, max_size=m))
    cones = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=dim,
                                   max_size=dim, unique=True),
                          min_size=1, max_size=12))
    return make_fan(dim, rays, cones)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fan=_hypergraphs())
# The second cone (0, 1) repeats the first, so every transversal meets its
# complement.
@example(fan=make_fan(2, [(1, 0), (0, 1), (-1, -1)],
                      [(0, 1), (0, 1), (1, 2)]))
# The ray (1, 1), index 3, lies in no cone.
@example(fan=make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                      [(0, 1), (1, 2), (0, 2)]))
# Two disjoint cones: the second misses both transversals {2} and {3} of
# the first complement in one step, and each is extended by 0 and by 1, to
# ((0, 2), (0, 3), (1, 2), (1, 3)).
@example(fan=make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                      [(0, 1), (2, 3)]))
def test_berge_finds_the_minimal_non_faces_of_arbitrary_hypergraphs(fan):
    assert list(primitive._minimal_non_faces(fan)) == \
        _brute_minimal_non_faces(fan)


@pytest.mark.parametrize("m", [20, 40])
def test_collections_of_a_cycle_are_its_non_adjacent_pairs(m):
    # A smooth complete surface with m rays, past the oracle's 16: its
    # cones form an m-cycle, and the primitive collections of a cycle are
    # exactly its m(m - 3)/2 non-adjacent pairs.
    fan = construct_product(construct_projective_space(1),
                            construct_projective_space(1))
    for step in range(m - 4):
        fan = star_subdivision(fan, fan.max_cones[step % len(fan.max_cones)])
    assert validate(fan).ok
    assert (len(fan.rays), len(fan.max_cones)) == (m, m)
    edges = set(fan.max_cones)
    pairs = [p for p in combinations(range(m), 2) if p not in edges]
    assert len(pairs) == m * (m - 3) // 2
    assert primitive_collections(fan) == pairs


# The fan of the del Pezzo surface of degree 6, over the hexagon.
HEXAGON = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def _blown_up_product():
    fan = construct_product(construct_projective_space(2),
                            construct_projective_space(1))
    return star_subdivision(fan, (0, 1))


def test_cached_results_are_fresh_and_agree_across_equal_fans():
    fan = _blown_up_product()
    readers = (primitive_collections, all_relations, wall_curves,
               lambda f: faces(f, 2))
    for reader in readers:
        reader(fan).clear()
    results = [reader(fan) for reader in readers]
    assert all(results)
    other = _blown_up_product()
    assert other == fan and hash(other) == hash(fan)
    assert [reader(other) for reader in readers] == results


def test_fan_cached_computes_once_per_fan():
    fan = _blown_up_product()
    calls = []

    def compute(f):
        calls.append(f)
        return len(calls)

    assert fan.cached(compute) == 1
    assert fan.cached(compute) == 1
    assert _blown_up_product().cached(compute) == 2
    assert calls == [fan, fan]
