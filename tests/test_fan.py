"""Fan construction, canonicalization, validation, and refinements."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import fan as fan_module
from toricfano import invariants, lattice
from toricfano.errors import (
    ConeTooSmall,
    DependentSpan,
    DimensionOutOfRange,
    NotACone,
    SingularBasis,
    ValidationError,
)
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    faces,
    invariant_subvariety_fan,
    is_cone,
    make_fan,
    require_valid,
    star_subdivision,
    validate,
)
from toricfano.fvector import f_vector
from toricfano.invariants import (degree_sum_identity, picard_number,
                                  wall_curves)
from toricfano.io import parse_fan_unchecked, parse_polytope_unchecked
from toricfano.oracle import corpus_directory


def test_projective_space_validates():
    for n in range(1, 6):
        fan = construct_projective_space(n)
        assert fan.dim == n
        assert len(fan.rays) == n + 1
        assert len(fan.max_cones) == n + 1
        assert validate(fan).ok


def test_product_validates_and_adds_dimensions():
    a = construct_projective_space(2)
    b = construct_projective_space(3)
    fan = construct_product(a, b)
    assert fan.dim == 5
    assert len(fan.rays) == 7
    assert len(fan.max_cones) == len(a.max_cones) * len(b.max_cones)
    assert validate(fan).ok


def test_canonicalization_is_input_order_independent():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (0, 2)]
    fan = make_fan(2, rays, cones)
    shuffled = make_fan(2, [rays[2], rays[0], rays[1]],
                        [(1, 2), (2, 0), (1, 0)])
    assert fan == shuffled
    assert fan.rays == tuple(sorted(fan.rays))
    assert all(c == tuple(sorted(c)) for c in fan.max_cones)
    assert list(fan.max_cones) == sorted(fan.max_cones)


def test_validate_catches_non_primitive_ray():
    fan = make_fan(2, [(2, 0), (0, 1), (-1, -1)],
                   [(0, 1), (1, 2), (0, 2)])
    report = validate(fan)
    assert not report.ok
    assert "primitivity" in report.failed_names


def test_validate_catches_duplicate_ray():
    fan = make_fan(2, [(1, 0), (1, 0), (0, 1), (-1, -1)],
                   [(0, 2), (2, 3), (1, 3)])
    assert "distinctness" in validate(fan).failed_names


def test_validate_catches_missing_cone():
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    report = validate(fan)
    assert not report.ok
    assert "facet_pairing" in report.failed_names
    assert report.checks[4].detail == \
        "facets not shared by exactly two maximal cones: [(0,), (2,)]"


def test_make_fan_rejects_entries_that_are_not_integers():
    for dim, rays, cones, message in (
            (1, [(1.7,), (-1,)], [(0,), (1,)], "ray coordinate 1.7"),
            (1, [(1,), (-1,)], [(0,), (1.9,)], "ray index 1.9"),
            (1, [("0",), (-1,)], [(0,), (1,)], "ray coordinate '0'"),
            (1.0, [(1,), (-1,)], [(0,), (1,)], "dim 1.0")):
        with pytest.raises(ValueError, match=f"^{message} is not an integer"):
            make_fan(dim, rays, cones)


@pytest.mark.parametrize("dim, rays, cones, message", [
    (1, [1, -1], [(0,), (1,)], "ray 1"),
    (2, [(1, 0), (0, 1), (-1, -1)], [0, 1], "maximal cone 0"),
], ids=["ray", "cone"])
def test_make_fan_rejects_rows_that_are_not_sequences(dim, rays, cones,
                                                      message):
    with pytest.raises(ValueError,
                       match=f"^{message} is not a sequence of integers$"):
        make_fan(dim, rays, cones)


# The weighted projective space P(1, 1, 1, 2): smooth but for one cone of
# determinant 2, which no walk out of a unimodular cone enters.
WEIGHTED = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)],
                    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_validate_catches_singular_cone():
    fan = make_fan(2, [(1, 0), (-1, 2), (0, -1)],
                   [(0, 1), (1, 2), (0, 2)])
    report = validate(fan)
    assert "smoothness" in report.failed_names
    report = validate(WEIGHTED)
    assert report.failed_names == ["smoothness", "covering_degree"]
    assert report.checks[3].detail == "cone (0, 2, 3) has determinant 2"


def test_validate_is_deterministic():
    fan = construct_projective_space(3)
    first = validate(fan)
    second = validate(fan)
    assert first == second


# Fifteen rays in cyclic order, every consecutive determinant 1: the plane
# is covered twice.
WOUND_RAYS = [(1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2),
              (-1, -1), (-2, -3), (-1, -2), (-1, -3), (1, 2), (0, 1),
              (-1, 1), (-3, 2), (1, -1)]
# Fourteen rays in cyclic order, every consecutive determinant 1: the plane
# is covered three times.
TRIPLY_WOUND_RAYS = [(1, 0), (0, 1), (-1, -2), (1, 1), (2, 3), (-1, -1),
                     (0, -1), (1, -1), (2, -1), (-3, 2), (-2, 1), (-3, 1),
                     (-1, 0), (-2, -1)]


def _wound(rays):
    m = len(rays)
    return make_fan(2, rays, [(i, (i + 1) % m) for i in range(m)])


def _suspension(rays):
    """The fan over the cyclic rays, winding around the third axis."""
    m = len(rays)
    return make_fan(3, [r + (0,) for r in rays] + [(0, 0, 1), (0, 0, -1)],
                    [(i, (i + 1) % m, pole)
                     for i in range(m) for pole in (m, m + 1)])


# name -> (fan, expected covering_degree detail)
ADVERSARIAL = {
    "doubly_wound": (
        _wound(WOUND_RAYS), "a generic point lies in 2 maximal cones"),
    "doubly_wound_suspension": (
        _suspension(WOUND_RAYS), "a generic point lies in 2 maximal cones"),
    "triply_wound": (
        _wound(TRIPLY_WOUND_RAYS), "a generic point lies in 3 maximal cones"),
    "triply_wound_suspension": (
        _suspension(TRIPLY_WOUND_RAYS),
        "a generic point lies in 3 maximal cones"),
    # Five rays winding twice, a pentagram. The point (0, -1), the sum of
    # the rays of the first cone, is itself a ray, so it lies in the second
    # sheet's cones only on their boundary.
    "doubly_wound_pentagram": (
        _wound([(-1, -1), (1, 2), (0, -1), (-1, 1), (1, 0)]),
        "a generic point lies in 2 maximal cones"),
    # Smooth and facet-paired, but folded over: at two of its three walls
    # both cones lie on one side.
    "folded": (
        make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 2)]),
        "cones (0, 1) and (0, 2) lie on the same side of wall (0,)"),
    # The suspension of folded: four walls are folded. The first of them by
    # its first side, wall (0, 3), is not the one reported.
    "folded_suspension": (
        make_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)],
                 [(i, j, pole) for i, j in ((0, 1), (0, 2), (1, 2))
                  for pole in (3, 4)]),
        "cones (0, 2, 3) and (0, 2, 4) lie on the same side of wall (0, 2)"),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_covering_degree_rejects_adversarial_fans(name):
    fan, detail = ADVERSARIAL[name]
    report = validate(fan)
    assert report.failed_names == ["covering_degree"]
    assert report.checks[-1].detail == detail


@pytest.mark.parametrize("name",
                         sorted(n for n in ADVERSARIAL if "wound" in n))
def test_face_counts_reject_wound_fans(name):
    # A wound fan's h-vector is palindromic, but h_0 is its covering degree,
    # so the face counts it gives would count the empty face more than once.
    fan, _ = ADVERSARIAL[name]
    for compute in (f_vector, degree_sum_identity):
        with pytest.raises(ValidationError, match="covering_degree"):
            compute(fan)


def test_covering_degree_accepts_projective_line():
    # n = 1: the empty cone is the only wall.
    report = validate(construct_projective_space(1))
    assert report.ok
    assert report.checks[-1].name == "covering_degree"


def _assert_invariant(fan, moved):
    before = validate(fan)
    after = validate(moved)
    assert after.ok == before.ok
    assert after.failed_names == before.failed_names


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_invariant_under_relabelling_and_gl_n_z(corpus_fans,
                                                         transformed, data):
    small = sorted(name for name, fan in corpus_fans.items()
                   if len(fan.rays) <= 12)
    fan = corpus_fans[data.draw(st.sampled_from(small))]
    _assert_invariant(fan, transformed(fan, data))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_adversarial_fans_fail_under_relabelling_and_gl_n_z(transformed,
                                                            data):
    name = data.draw(st.sampled_from(sorted(ADVERSARIAL)))
    fan, detail = ADVERSARIAL[name]
    moved = transformed(fan, data)
    _assert_invariant(fan, moved)
    if "wound" in name:
        # The covering degree is intrinsic, and so is its detail.
        assert validate(moved).checks[-1].detail == detail


def _rational_point_test(fan):
    """Whether the sum of the rays of the first maximal cone, interior to
    it, lies in no other closed maximal cone, with one Fraction solve per
    cone, independent of the adjugate table. Once facet pairing and wall
    orientation hold, that happens exactly when the covering degree is 1.
    """
    point = lattice.vector_sum([fan.rays[i] for i in fan.max_cones[0]],
                               fan.dim)
    return not any(
        all(x >= 0 for x in lattice.solve_in_basis(
            [fan.rays[i] for i in c], point))
        for c in fan.max_cones[1:])


def _covering_degree_matches_rational(fan):
    """Whether validate reaches the covering-degree count on fan; where it
    does, that count must pass exactly when the rational point test does."""
    *earlier, result = validate(fan).checks
    if not all(c.passed for c in earlier) or "same side" in result.detail:
        return False
    assert result.passed == _rational_point_test(fan)
    return True


def test_covering_degree_matches_rational_point_test_on_the_corpus(
        all_corpus_fans):
    assert all(_covering_degree_matches_rational(fan)
               for fan in all_corpus_fans)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_covering_degree_matches_rational_point_test_on_adversarial_fans(
        transformed, data):
    # Wall orientation is intrinsic, so the folded fans and their images
    # never reach the count, and the wound ones always do.
    name = data.draw(st.sampled_from(sorted(ADVERSARIAL)))
    fan, _ = ADVERSARIAL[name]
    wound = "wound" in name
    assert _covering_degree_matches_rational(fan) == wound
    assert _covering_degree_matches_rational(transformed(fan, data)) == wound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_covering_degree_matches_rational_point_test_on_drawn_fans(
        drawn_fan, transformed, data):
    fan = drawn_fan(data)
    assert _covering_degree_matches_rational(fan)
    assert _covering_degree_matches_rational(transformed(fan, data))


def test_walls_are_enumerated_once_per_fan(monkeypatch):
    builds = []
    walls = fan_module._walls

    def counting(fan):
        builds.append(fan)
        return walls(fan)

    monkeypatch.setattr(fan_module, "_walls", counting)
    monkeypatch.setattr(invariants, "_walls", counting)
    fan = construct_product(construct_projective_space(2),
                            construct_projective_space(1))
    assert validate(fan).ok
    assert len(faces(fan, fan.dim - 1)) == 9
    assert len(wall_curves(fan)) == 9
    assert builds == [fan]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_wall_table_under_relabelling_and_gl_n_z(drawn_fan, relabelled,
                                                 data):
    fan = drawn_fan(data)
    moved, label = relabelled(fan, data)
    for f in (fan, moved):
        walls = f.cached(fan_module._walls)
        rays = sorted(fan_module._rays_of(wall) for wall in walls)
        assert faces(f, f.dim - 1) == rays
        assert [w.wall for w in wall_curves(f)] == rays
        for wall, sides in walls.items():
            assert len(sides) == 4
            assert all(fan_module._mask_of(c[:p] + c[p + 1:]) == wall
                       for c, p in ((f.max_cones[sides[0]], sides[1]),
                                    (f.max_cones[sides[2]], sides[3])))
    assert set(moved.cached(fan_module._walls)) == {
        fan_module._mask_of(label[i] for i in fan_module._rays_of(wall))
        for wall in fan.cached(fan_module._walls)}


def _bareiss_inverses(fan):
    """The cone table as one lattice.adjugate per maximal cone: det, and
    the columns of sign(det) * adj, or None when det is 0, in max_cones
    order."""
    table = []
    for c in fan.max_cones:
        det, adj = lattice.adjugate([fan.rays[i] for i in c])
        sign = -1 if det < 0 else 1
        table.append((det, None if adj is None else
                      tuple(tuple(sign * x for x in column)
                            for column in zip(*adj))))
    return tuple(table)


def _assert_walk_matches_bareiss(fan):
    walked = fan.cached(fan_module._cone_adjugates)
    assert type(walked) is tuple and len(walked) == len(fan.max_cones)
    assert walked == _bareiss_inverses(fan)


def test_adjugate_walk_matches_bareiss_on_the_corpus(all_corpus_fans):
    for fan in all_corpus_fans:
        _assert_walk_matches_bareiss(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_adjugate_walk_under_relabelling_and_gl_n_z(drawn_fan, transformed,
                                                    data):
    fan = drawn_fan(data)
    _assert_walk_matches_bareiss(fan)
    _assert_walk_matches_bareiss(transformed(fan, data))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_adjugate_walk_on_arbitrary_rays(drawn_fan, data):
    # The cones of a drawn fan over small random rays: non-unimodular and
    # singular cones, so crossings into det 0 and walks cut into pieces
    # that need a seed each.
    fan = drawn_fan(data)
    rays = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * fan.dim),
                              min_size=len(fan.rays),
                              max_size=len(fan.rays)))
    _assert_walk_matches_bareiss(make_fan(fan.dim, rays, fan.max_cones))


# Corpus fans with an ordered opposite-ray pair (u, v) that carries two
# wall relations, so that v has more than one expression across the walls:
# at two walls, v is a different combination of the rays of the cone on
# the other side. The walk keys its relations by v, so the tests count
# those rays. Name -> (the number of such rays, of all rays).
SEVERAL_EXPRESSION_RAYS = {"blowup_projective_3_codim_3": (3, 5),
                           "blowup_projective_4_codim_4": (4, 6),
                           "hirzebruch_2_non_fano": (2, 4)}


def _unchecked_corpus_fan(name):
    """A fresh Fan of the corpus file name.fan, not validated, so a faulty
    cone table shows as a failed assertion rather than a parse error."""
    path = corpus_directory() / f"{name}.fan"
    return parse_fan_unchecked(path.read_text(encoding="utf-8"))


def _rays_with_several_expressions(fan):
    """The rays v of a smooth fan that some wall has on one side with two
    different expressions in the rays of the cones on the other sides,
    read off one lattice.adjugate per cone."""
    table = _bareiss_inverses(fan)
    expressions = {}
    for sides in fan.cached(fan_module._walls).values():
        for c, (d, q) in ((sides[0], sides[2:]), (sides[2], sides[:2])):
            cone = fan.max_cones[c]
            v = fan.max_cones[d][q]
            w = [sum(x * y for x, y in zip(fan.rays[v], col))
                 for col in table[c][1]]
            expressions.setdefault(v, set()).add(
                frozenset((r, x) for r, x in zip(cone, w) if x))
    return sorted(v for v, found in expressions.items() if len(found) > 1)


def _assert_several_expressions(fan, name):
    several, total = SEVERAL_EXPRESSION_RAYS[name]
    assert len(fan.rays) == total
    assert len(_rays_with_several_expressions(fan)) == several


@pytest.mark.parametrize("name", sorted(SEVERAL_EXPRESSION_RAYS))
def test_adjugate_walk_on_ray_pairs_with_two_relations(name):
    # The walk reads a crossing off a relation found at an earlier one only
    # when that relation's rays all lie in the cone it crosses from.
    fan = _unchecked_corpus_fan(name)
    _assert_several_expressions(fan, name)
    _assert_walk_matches_bareiss(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_adjugate_walk_on_images_of_ray_pairs_with_two_relations(
        transformed, data):
    name = data.draw(st.sampled_from(sorted(SEVERAL_EXPRESSION_RAYS)))
    moved = transformed(_unchecked_corpus_fan(name), data)
    _assert_several_expressions(moved, name)
    _assert_walk_matches_bareiss(moved)


def _walk_counts(monkeypatch, fan):
    """(seeds, full products v * N) of the walk on fan, after checking
    that its table is one lattice.adjugate per cone."""
    seeds = []
    products = []
    adjugate = lattice.adjugate
    coordinates = fan_module._coordinates

    def counting_seeds(rows):
        seeds.append(rows)
        return adjugate(rows)

    def counting_products(target, cols):
        products.append(target)
        return coordinates(target, cols)

    expected = _bareiss_inverses(fan)
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "adjugate", counting_seeds)
        patch.setattr(fan_module, "_coordinates", counting_products)
        assert fan.cached(fan_module._cone_adjugates) == expected
    return len(seeds), len(products)


def _power(fan, k):
    product = fan
    for _ in range(k - 1):
        product = construct_product(product, fan)
    return product


def test_adjugate_walk_finds_each_wall_relation_once_per_ray(monkeypatch):
    # Only a crossing whose new ray v has no relation yet in the rays of
    # the cone it leaves computes v * N in full. On P^14 every crossing
    # leaves the seed cone and brings in the same ray, so one product
    # serves all 14. Each of the 63 crossings of (P^1)^6 brings in the
    # negative -x of a seed ray x, so it needs one product for each of
    # those 6 rays, with the relation x + (-x) = 0.
    lines = _power(construct_projective_space(1), 6)
    assert len(lines.max_cones) == 64
    assert _walk_counts(monkeypatch, lines) == (1, 6)
    for fan, products in ((construct_projective_space(14), 1),
                          (_power(construct_projective_space(2), 5), 5),
                          (_power(construct_projective_space(3), 3), 3)):
        assert _walk_counts(monkeypatch, fan) == (1, products)


def test_adjugate_walk_seeds_once_per_component(monkeypatch):
    lines = _power(construct_projective_space(1), 4)
    assert _walk_counts(monkeypatch, lines)[0] == 1
    # Rays (-1, 0), (0, -1), (0, 1), (1, 0): the seed cone (0, 3) is
    # singular, so the walk starts again from (1, 3) and reaches (2, 3).
    singular_seed = make_fan(2, [(-1, 0), (0, -1), (0, 1), (1, 0)],
                             [(0, 3), (1, 3), (2, 3)])
    assert _walk_counts(monkeypatch, singular_seed)[0] == 2
    table = singular_seed.cached(fan_module._cone_adjugates)
    assert table[singular_seed.max_cones.index((0, 3))] == (0, None)
    # The walk from the unimodular seed (0, 1, 2) does not cross into the
    # cone (0, 2, 3) of determinant 2, which gets its own adjugate. A new
    # Fan, whose table no other test has cached.
    weighted = make_fan(3, WEIGHTED.rays, WEIGHTED.max_cones)
    assert _walk_counts(monkeypatch, weighted)[0] == 2
    table = weighted.cached(fan_module._cone_adjugates)
    assert table[weighted.max_cones.index((0, 2, 3))][0] == 2


def _one_pass_reach(fan):
    """The cones that one pass over the wall table, in its insertion
    order, reaches from cone 0 on a smooth fan, where every crossing is a
    unit one: at each wall with one side reached, the other side."""
    reached = {0}
    for sides in fan.cached(fan_module._walls).values():
        sides = set(sides[::2])
        if len(sides & reached) == 1:
            reached |= sides
    return reached


# A blown-up plane under GL(2, Z): one pass over its wall table leaves 3 of
# its 11 cones unreached, so the breadth-first walk takes over from the
# cones the pass reached.
ONE_PASS_SHORT = make_fan(
    2, [(-8, -5), (-7, -5), (-5, -3), (-4, -3), (-3, -2), (-2, -1), (-1, -1),
        (1, 0), (1, 1), (2, 1), (3, 1)],
    [(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 6), (5, 8), (6, 7), (7, 10),
     (8, 9), (9, 10)])


def test_adjugate_walk_takes_over_where_one_pass_stops(monkeypatch):
    fan = make_fan(2, ONE_PASS_SHORT.rays, ONE_PASS_SHORT.max_cones)
    assert validate(ONE_PASS_SHORT).ok
    assert len(_one_pass_reach(fan)) == 8
    assert _walk_counts(monkeypatch, fan)[0] == 1
    assert fan.cached(fan_module._h_counts) == (1, 9, 1) == \
        _h_by_column_slots(fan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_adjugate_walk_on_blown_up_planes_under_gl_2_z(transformed, data):
    # Star subdivisions of P^2 and P^1 x P^1 under GL(2, Z): about one in
    # five of these draws leaves cones that one pass over the wall table
    # does not reach.
    fan = data.draw(st.sampled_from((
        construct_projective_space(2),
        construct_product(construct_projective_space(1),
                          construct_projective_space(1)))))
    for _ in range(data.draw(st.integers(5, 12))):
        fan = star_subdivision(fan, data.draw(st.sampled_from(fan.max_cones)))
    fan = transformed(fan, data)
    _assert_walk_matches_bareiss(fan)
    assert fan.cached(fan_module._h_counts) == _h_by_column_slots(fan)


def test_adjugate_walk_hands_over_the_columns_a_unit_crossing_keeps(
        all_corpus_fans):
    # Every cone but a seed is reached across a wall from a cone c. On a
    # smooth fan that crossing is a unit one, |w_k| = |det c| = 1, and each
    # column of c with w_j = 0 passes to d as the same tuple: so some
    # neighbour c of d shares all of those columns with d.
    handed = 0
    for fan in all_corpus_fans:
        table = fan.cached(fan_module._cone_adjugates)
        walls = fan.cached(fan_module._walls)
        for index, d in enumerate(fan.max_cones[1:], start=1):
            cols_d = table[index][1]
            shares = []
            for q, v in enumerate(d):
                sides = walls[fan_module._mask_of(d) ^ (1 << v)]
                c, k = sides[:2] if sides[2] == index else sides[2:]
                det_c, cols_c = table[c]
                c = fan.max_cones[c]
                w = [sum(x * y for x, y in zip(fan.rays[v], col))
                     for col in cols_c]
                assert abs(w[k]) == abs(det_c) == 1
                kept = [(c[j], col) for j, (col, wj)
                        in enumerate(zip(cols_c, w)) if j != k and wj == 0]
                if all(cols_d[d.index(i)] is col for i, col in kept):
                    shares.append(len(kept))
            assert shares, d
            handed += max(shares)
    assert handed > 0


def _h_by_column_slots(fan):
    """h_0..h_n read off one lattice.adjugate per maximal cone, the sign of
    every column slot scanned on its own: h_i counts the cones whose N has
    i columns with a negative last nonzero entry. Raises SingularBasis
    when some cone's rays are dependent."""
    h = [0] * (fan.dim + 1)
    for _, cols in _bareiss_inverses(fan):
        if cols is None:
            raise SingularBasis("a cone's rays are dependent")
        h[sum(next(x for x in reversed(col) if x) < 0 for col in cols)] += 1
    return tuple(h)


def test_h_counts_match_a_scan_of_every_column_on_the_corpus(
        all_corpus_fans):
    for fan in all_corpus_fans:
        assert fan.cached(fan_module._h_counts) == _h_by_column_slots(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_h_counts_under_relabelling_and_gl_n_z(drawn_fan, transformed,
                                               data):
    fan = drawn_fan(data)
    for f in (fan, transformed(fan, data)):
        assert f.cached(fan_module._h_counts) == _h_by_column_slots(f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_h_counts_on_arbitrary_rays(drawn_fan, data):
    # Over small random rays some cones are singular, and the h counts
    # must raise exactly then.
    fan = drawn_fan(data)
    rays = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * fan.dim),
                              min_size=len(fan.rays),
                              max_size=len(fan.rays)))
    fan = make_fan(fan.dim, rays, fan.max_cones)
    try:
        expected = _h_by_column_slots(fan)
    except SingularBasis:
        with pytest.raises(SingularBasis):
            fan_module._h_counts(fan)
    else:
        assert fan_module._h_counts(fan) == expected


# The wound surfaces and their products with P^1, with h_0, the covering
# degree.
WOUND_FANS = {
    "doubly_wound": (_wound(WOUND_RAYS), 2),
    "triply_wound": (_wound(TRIPLY_WOUND_RAYS), 3),
    "doubly_wound_x_P1": (construct_product(
        _wound(WOUND_RAYS), construct_projective_space(1)), 2),
    "triply_wound_x_P1": (construct_product(
        _wound(TRIPLY_WOUND_RAYS), construct_projective_space(1)), 3),
}


@pytest.mark.parametrize("name", sorted(WOUND_FANS))
def test_h_counts_match_a_scan_of_every_column_on_wound_fans(name):
    fan, degree = WOUND_FANS[name]
    h = fan.cached(fan_module._h_counts)
    assert h == _h_by_column_slots(fan)
    assert h[0] == degree


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_h_counts_on_gl_3_z_images_of_wound_products(transformed, data):
    fan, degree = WOUND_FANS[data.draw(st.sampled_from(
        ["doubly_wound_x_P1", "triply_wound_x_P1"]))]
    moved = transformed(fan, data)
    h = moved.cached(fan_module._h_counts)
    assert h == _h_by_column_slots(moved)
    assert h[0] == degree


def _assert_wall_coordinates(fan):
    """At each wall, the ray v opposite u, in the coordinates of the cone
    of u: numerator -det at u and det * c_i at each wall ray x_i, with the
    c_i of the wall curve u + v = sum(c_i * x_i). Checked from both sides."""
    relations = {w.wall: w.relation for w in wall_curves(fan)}
    for mask, sides in fan.cached(fan_module._walls).items():
        wall = fan_module._rays_of(mask)
        for u, pos_u, v, pos_v in (sides, sides[2:] + sides[:2]):
            numerators, det = fan_module._cone_coordinates(
                fan, u, fan.rays[fan.max_cones[v][pos_v]])
            assert numerators[pos_u] == -det
            rest = numerators[:pos_u] + numerators[pos_u + 1:]
            assert all(x % det == 0 for x in rest)
            # The class vector carries -c_i at the wall rays.
            assert [x // det for x in rest] == \
                [-relations[wall][i] for i in wall]


def test_wall_coordinates_give_the_wall_curves_on_the_corpus(corpus_fans):
    polytopes = {path.stem: require_valid(parse_polytope_unchecked(
        path.read_text(encoding="utf-8")))
        for path in sorted(corpus_directory().glob("*.poly"))}
    fans = {**corpus_fans, **polytopes}
    assert len(fans) == 57
    for fan in fans.values():
        _assert_wall_coordinates(fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_wall_coordinates_under_relabelling_and_gl_n_z(drawn_fan,
                                                       transformed, data):
    _assert_wall_coordinates(transformed(drawn_fan(data), data))


def test_faces_counts_and_bounds():
    p2 = construct_projective_space(2)
    assert faces(p2, 0) == [()]
    assert len(faces(p2, 1)) == 3
    assert len(faces(p2, 2)) == 3
    with pytest.raises(DimensionOutOfRange):
        faces(p2, 3)
    with pytest.raises(DimensionOutOfRange):
        faces(p2, -1)


def test_faces_are_the_subsets_of_the_maximal_cones(corpus_fans):
    for name, fan in corpus_fans.items():
        for j in range(fan.dim + 1):
            subsets = {face for c in fan.max_cones
                       for face in combinations(c, j)}
            assert faces(fan, j) == sorted(subsets), (name, j)
            assert all(is_cone(fan, face) for face in subsets)


def test_is_cone():
    p2 = construct_projective_space(2)
    assert is_cone(p2, ())
    assert is_cone(p2, (0,))
    assert is_cone(p2, (0, 1))
    assert not is_cone(p2, (0, 1, 2))
    assert is_cone(p2, (1, 0))
    assert not is_cone(p2, (0, 0))
    assert not is_cone(p2, (0, 3))
    assert not is_cone(p2, (0, 1, 2, 0))
    assert not is_cone(p2, (-1,))
    assert not is_cone(p2, (0, -1))


def test_star_subdivision_of_plane_cone():
    p2 = construct_projective_space(2)
    sub = star_subdivision(p2, p2.max_cones[0])
    assert validate(sub).ok
    assert len(sub.rays) == 4
    assert len(sub.max_cones) == 4
    new_ray = tuple(a + b for a, b in zip(p2.rays[p2.max_cones[0][0]],
                                          p2.rays[p2.max_cones[0][1]]))
    assert new_ray in sub.rays


def test_star_subdivision_rejects_bad_input():
    p2 = construct_projective_space(2)
    with pytest.raises(NotACone):
        star_subdivision(p2, (0, 1, 2))
    with pytest.raises(ConeTooSmall):
        star_subdivision(p2, (0,))


def test_invariant_subvariety_of_projective_space():
    p4 = construct_projective_space(4)
    sub = invariant_subvariety_fan(p4, p4.max_cones[0][:2])
    assert sub.fan == construct_projective_space(2)
    assert len(sub.back_map) == len(sub.fan.rays)


def test_invariant_subvariety_rejects_full_cone():
    p2 = construct_projective_space(2)
    with pytest.raises(DimensionOutOfRange):
        invariant_subvariety_fan(p2, p2.max_cones[0])
    with pytest.raises(NotACone):
        invariant_subvariety_fan(p2, (0, 1, 2))


def test_invariant_subvariety_rejects_dependent_rays():
    # Not a fan validate accepts: the cone on e1, -e1, e2 is not strictly
    # convex, and the rays of its face sigma = {e1, -e1} span a line.
    fan = make_fan(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],
                   [(0, 1, 2), (0, 1, 3)])
    sigma = (fan.rays.index((1, 0, 0)), fan.rays.index((-1, 0, 0)))
    with pytest.raises(DependentSpan):
        invariant_subvariety_fan(fan, sigma)


def _reference_quotient(fan, sigma):
    """invariant_subvariety_fan rebuilt with one lattice.adjugate: det
    times the coordinates outside sigma, in the basis of the first maximal
    cone containing sigma, made primitive. Returns that det too."""
    sigma_set = set(sigma)
    containing = [c for c in fan.max_cones if sigma_set <= set(c)]
    cone = containing[0]
    det, adj = lattice.adjugate([fan.rays[i] for i in cone])
    outside = [p for p, i in enumerate(cone) if i not in sigma_set]
    projected = {}
    for u in sorted({u for c in containing for u in c} - sigma_set):
        projected[u] = lattice.make_primitive(
            [sum(x * row[p] for x, row in zip(fan.rays[u], adj))
             for p in outside])
    order = sorted(projected, key=projected.get)
    newpos = {u: i for i, u in enumerate(order)}
    cones = sorted(tuple(sorted(newpos[u] for u in c if u not in sigma_set))
                   for c in containing)
    return (tuple(projected[u] for u in order), tuple(cones), tuple(order),
            det)


def test_invariant_subvariety_fan_matches_an_adjugate_reference(corpus_fans):
    # The quotient's rays carry the sign of the first containing cone's
    # det, so the corpus must reach cones with det -1 as well as +1.
    dets = []
    for name, fan in corpus_fans.items():
        for k in (1, 2):
            if k >= fan.dim:
                continue
            for sigma in faces(fan, k):
                sub = invariant_subvariety_fan(fan, sigma)
                rays, cones, back_map, det = _reference_quotient(fan, sigma)
                assert sub.fan.rays == rays, (name, sigma)
                assert sub.fan.max_cones == cones, (name, sigma)
                assert sub.back_map == back_map, (name, sigma)
                dets.append(det)
    assert set(dets) == {-1, 1}


def test_invariant_subvarieties_of_corpus_fans_validate(corpus_fans):
    checked = 0
    for name, fan in corpus_fans.items():
        if len(fan.rays) > 10:
            continue
        for k in range(1, fan.dim):
            for sigma in faces(fan, k):
                sub = invariant_subvariety_fan(fan, sigma).fan
                assert sub.dim == fan.dim - k, (name, sigma)
                assert validate(sub).ok, (name, sigma)
                checked += 1
    assert checked > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_invariant_subvariety_under_relabelling_and_gl_n_z(drawn_fan,
                                                           relabelled, data):
    # relabelled draws the same move as transformed and also returns where
    # each ray goes, so the image of sigma is known.
    fan = drawn_fan(data)
    moved, label = relabelled(fan, data)
    k = data.draw(st.integers(1, fan.dim - 1))
    sigma = data.draw(st.sampled_from(faces(fan, k)))
    sub = invariant_subvariety_fan(fan, sigma)
    moved_sub = invariant_subvariety_fan(moved, [label[i] for i in sigma])
    assert validate(moved_sub.fan).ok
    assert f_vector(moved_sub.fan) == f_vector(sub.fan)
    assert picard_number(moved_sub.fan) == picard_number(sub.fan)
    assert sorted(moved_sub.back_map) == sorted(label[u] for u in sub.back_map)
