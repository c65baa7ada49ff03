"""File formats, face-fan construction, and report rendering."""

from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.cli import main
from toricfano.errors import (
    FanSyntaxError,
    NonSimplicialFacet,
    OriginNotInterior,
    ValidationError,
)
from toricfano.fan import (
    construct_product,
    construct_projective_space,
    make_fan,
    require_valid,
    validate,
)
from toricfano.fvector import f_vector
from toricfano.invariants import mukai_check
from toricfano.io import (
    _polytope_facets,
    parse_fan,
    parse_fan_unchecked,
    parse_polytope_unchecked,
    render_report,
    serialize_fan,
)
from toricfano.oracle import corpus_directory, oracle_facets

PLANE = """\
# the plane
FAN 2 3 3
1 0
0 1
-1 -1

0 1
1 2
0 2
"""


def test_parse_fan_with_comments_and_blanks():
    fan = parse_fan(PLANE)
    assert fan == construct_projective_space(2)


def test_round_trip_on_corpus(corpus_fans):
    for fan in corpus_fans.values():
        assert parse_fan(serialize_fan(fan)) == fan


def test_syntax_error_positions():
    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked("FAN 2 3 3\n1 0\n0 1\n-1 -1\n0 1 2\n1 2\n0 2\n")
    assert err.value.line == 5 and "2 integers" in err.value.reason

    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked("FAN 2 1 0\nx 0\n")
    assert err.value.line == 2

    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked("FAN 2 3 1\n1 0\n0 1\n-1 -1\n0 7\n")
    assert "out of range" in err.value.reason

    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked("FAN 2 3 1\n1 0\n0 1\n-1 -1\n1 1\n")
    assert "repeated" in err.value.reason

    with pytest.raises(FanSyntaxError):
        parse_fan_unchecked("")

    with pytest.raises(FanSyntaxError):
        parse_fan_unchecked("POLY 2 3\n1 0\n0 1\n-1 -1\n")


def test_trailing_content_rejected():
    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked(PLANE + "7 7\n")
    assert "trailing" in err.value.reason


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
def test_only_ascii_integers_are_read(token, tmp_path, capsys):
    # int() reads `1_0` as 10 and the Arabic-Indic digit one as 1.
    text = PLANE.replace("1 0\n", f"{token} 0\n", 1)
    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked(text)
    assert err.value.line == 3 and repr(token) in err.value.reason
    path = tmp_path / "token.fan"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_overlong_integer_names_the_digit_limit(tmp_path, capsys):
    digits = "9" * 100_000
    path = tmp_path / "huge.fan"
    path.write_text(PLANE.replace("1 0\n", f"{digits} 0\n", 1))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert "100000 digits" in err and str(sys.get_int_max_str_digits()) in err


SPACE = "FAN 3 4 4\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
SIMPLEX = "POLY 3 4\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"


@pytest.mark.parametrize("text, parse, line, token, what", [
    (SPACE.replace("0 1 0\n", "1 x 1_0\n", 1), parse_fan_unchecked,
     3, "x", "ray"),
    (SPACE.replace("0 1 3\n", "0 \u0661 z\n", 1), parse_fan_unchecked,
     7, "\u0661", "cone"),
    (SIMPLEX.replace("0 0 1\n", "++1 - 1\n", 1), parse_polytope_unchecked,
     4, "++1", "vertex"),
], ids=["ray", "cone", "vertex"])
def test_a_row_names_its_first_bad_token(text, parse, line, token, what):
    with pytest.raises(FanSyntaxError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.reason == \
        f"expected an integer, got {token!r} ({what})"


def test_the_digit_limit_comes_before_a_later_bad_token():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(FanSyntaxError) as err:
            parse_fan_unchecked(SPACE.replace("0 1 0\n",
                                              f"1 {'9' * 5000} x\n", 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.line == 3
    assert err.value.reason == \
        "integer has 5000 digits, above the limit of 4300 (ray)"


def test_the_first_index_out_of_range_is_named():
    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked(SPACE.replace("0 2 3\n", "5 -1 9\n", 1))
    assert err.value.line == 8
    assert err.value.reason == "ray index 5 out of range 0..3"
    rays = [(1, 0), (0, 1), (-1, -1)]
    for cones, message in (([(0, 1), (5, -1), (-2, 7)], "ray index 5"),
                           ([(0, 1), (-1, 5), (9, 0)], "ray index -1"),
                           ([(0, 9), (1, 1)], "ray index 9"),
                           ([(1, 1), (0, 9)], "maximal cone .* repeats")):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_fan(2, rays, cones)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(token=st.text("0123456789+-_\u0665x", min_size=1, max_size=6))
def test_a_block_takes_a_token_exactly_when_it_is_an_ascii_integer(token):
    # The block reader checks a block's tokens at once; a token in its
    # middle row is taken exactly when it matches the grammar.
    text = f"FAN 2 3 3\n1 0\n0 {token}\n-1 -1\n0 1\n1 2\n0 2\n"
    if re.fullmatch(r"[+-]?[0-9]+", token):
        assert (0, int(token)) in parse_fan_unchecked(text).rays
    else:
        with pytest.raises(FanSyntaxError) as err:
            parse_fan_unchecked(text)
        assert err.value.line == 3
        assert err.value.reason == \
            f"expected an integer, got {token!r} (ray)"


# Characters that str.splitlines() treats as line ends but a file read
# with universal newlines does not: VT, FF, FS, GS, RS, NEL, U+2028, U+2029.
_NON_BREAKS = {"VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "GS": "\x1d",
               "RS": "\x1e", "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}


@pytest.mark.parametrize("sep", _NON_BREAKS.values(), ids=_NON_BREAKS)
@pytest.mark.parametrize("text, parse", [
    # Without the comment's tail, one cone (vertex) line is missing.
    ("FAN 2 3 3\n1 0\n0 1\n-1 -1\n0 1\n1 2 # old:{sep}0 2\n",
     parse_fan_unchecked),
    ("POLY 2 3\n1 0\n0 1 # old:{sep}-1 -1\n", parse_polytope_unchecked),
    # `1 -1` on one line is a row of the wrong length.
    ("FAN 1 2 2\n1{sep}-1\n0\n1\n", parse_fan_unchecked),
    ("POLY 1 2\n1{sep}-1\n", parse_polytope_unchecked),
], ids=["fan-comment", "poly-comment", "fan-row", "poly-row"])
def test_lines_end_only_at_cr_and_lf(text, parse, sep, tmp_path, capsys):
    text = text.format(sep=sep)
    with pytest.raises(FanSyntaxError):
        parse(text)
    suffix = ".fan" if text.startswith("FAN") else ".poly"
    path = tmp_path / f"separated{suffix}"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_cr_lf_and_cr_end_lines(newline):
    assert parse_fan(PLANE.replace("\n", newline)) == \
        construct_projective_space(2)
    assert require_valid(parse_polytope_unchecked(
        newline.join(["POLY 2 3", "1 0", "0 1 # a comment", "-1 -1"]))) == \
        construct_projective_space(2)


def test_rejected_token_is_echoed_shortened():
    token = "x" * 100_000
    with pytest.raises(FanSyntaxError) as err:
        parse_fan_unchecked(PLANE.replace("1 0\n", f"{token} 0\n", 1))
    assert len(err.value.reason) < 100


def test_parse_fan_validates():
    text = "FAN 2 3 3\n2 0\n0 1\n-1 -1\n0 1\n1 2\n0 2\n"
    with pytest.raises(ValidationError) as err:
        parse_fan(text)
    assert "primitivity" in str(err.value)
    assert parse_fan_unchecked(text) is not None


def test_polytope_triangle_and_square():
    triangle = require_valid(
        parse_polytope_unchecked("POLY 2 3\n1 0\n0 1\n-1 -1\n"))
    assert triangle == construct_projective_space(2)
    square = require_valid(
        parse_polytope_unchecked("POLY 2 4\n1 0\n0 1\n-1 0\n0 -1\n"))
    p1 = construct_projective_space(1)
    assert square == construct_product(p1, p1)


def test_polytope_octahedron():
    text = "POLY 3 6\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n"
    fan = require_valid(parse_polytope_unchecked(text))
    p1 = construct_projective_space(1)
    assert fan == construct_product(construct_product(p1, p1), p1)


def test_polytope_origin_must_be_interior():
    shifted = "POLY 2 4\n0 0\n1 0\n1 1\n0 1\n"
    with pytest.raises(OriginNotInterior):
        require_valid(parse_polytope_unchecked(shifted))
    flat = "POLY 2 3\n1 0\n2 0\n3 0\n"
    with pytest.raises(OriginNotInterior):
        require_valid(parse_polytope_unchecked(flat))


def test_polytope_rejects_non_simplicial_facets():
    cube = "POLY 3 8\n" + "\n".join(
        f"{x} {y} {z}" for x in (1, -1) for y in (1, -1)
        for z in (1, -1)) + "\n"
    with pytest.raises(NonSimplicialFacet):
        require_valid(parse_polytope_unchecked(cube))


def _poly_text(vertices) -> str:
    return f"POLY {len(vertices[0])} {len(vertices)}\n" + \
        "".join(" ".join(map(str, v)) + "\n" for v in vertices)


def _vertices(text: str) -> list[tuple[int, ...]]:
    return [tuple(map(int, line.split())) for line in text.splitlines()[1:]]


def _product(fans):
    out = fans[0]
    for fan in fans[1:]:
        out = construct_product(out, fan)
    return out


P1 = construct_projective_space(1)
# The face fan of the hexagon; the rays of a product of copies are the
# vertices of the free sum of hexagons.
HEXAGON = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
BAD_POLYTOPE = (NonSimplicialFacet, OriginNotInterior)


def _facets_or_error(find, vertices, n):
    try:
        return find(vertices, n)
    except BAD_POLYTOPE as err:
        return type(err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_facet_walk_matches_oracle(transformed, data):
    kind = data.draw(st.sampled_from(("points", "cross", "hexagons")))
    if kind == "points":
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(n + 1, n + 7))
        vertices = data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=m, max_size=m))
    else:
        fan = _product([P1] * data.draw(st.integers(2, 6))
                       if kind == "cross"
                       else [HEXAGON] * data.draw(st.integers(1, 2)))
        n = fan.dim
        vertices = data.draw(st.permutations(transformed(fan, data).rays))
    expected = _facets_or_error(oracle_facets, vertices, n)
    got = _facets_or_error(_polytope_facets, vertices, n)
    if isinstance(expected, list):
        assert got == expected
    else:
        # On a polytope with both faults either error may come first.
        assert kind == "points" and got in BAD_POLYTOPE


def test_facet_walk_matches_oracle_on_corpus_polytopes():
    for path in sorted(corpus_directory().glob("*.poly")):
        vertices = _vertices(path.read_text(encoding="utf-8"))
        n = len(vertices[0])
        assert _polytope_facets(vertices, n) == oracle_facets(vertices, n)


@pytest.mark.parametrize("vertices, error", [
    # a square pyramid: the base facet has four vertices
    ([(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (0, 0, 1)],
     NonSimplicialFacet),
    # a duplicated hull vertex
    ([(1, 0), (0, 1), (-1, 0), (0, -1), (0, 1)], NonSimplicialFacet),
    # a point in the middle of an edge
    ([(2, 0), (0, 2), (-2, 0), (0, -2), (1, 1)], NonSimplicialFacet),
    # the origin on a facet (offset 0)
    ([(1, 0), (-1, 0), (0, 1)], OriginNotInterior),
    # dimension 1: a repeated end point, and a segment beside the origin
    ([(1,), (-1,), (1,)], NonSimplicialFacet),
    ([(1,), (2,)], OriginNotInterior),
])
def test_single_fault_polytopes(vertices, error):
    with pytest.raises(error):
        parse_polytope_unchecked(_poly_text(vertices))
    with pytest.raises(error):
        oracle_facets(vertices, len(vertices[0]))


def test_segment_is_p1():
    assert require_valid(parse_polytope_unchecked("POLY 1 2\n1\n-1\n")) == P1


def test_interior_vertex_fails_ray_coverage(tmp_path, capsys):
    triangle = [(3, -1), (-1, 3), (-1, -1)]
    extra = triangle + [(1, 0)]
    assert _polytope_facets(extra, 2) == _polytope_facets(triangle, 2)
    assert "ray_coverage" in \
        validate(parse_polytope_unchecked(_poly_text(extra))).failed_names
    path = tmp_path / "interior.poly"
    path.write_text(_poly_text(extra))
    assert main(["validate", str(path), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"name": "ray_coverage", "passed": False} in \
        [{k: c[k] for k in ("name", "passed")} for c in checks]


def test_cross_polytope_in_dimension_ten():
    # 1024 facets; an exhaustive scan would try C(20, 10) = 184756 subsets.
    vertices = [tuple(sign * int(i == j) for j in range(10))
                for i in range(10) for sign in (1, -1)]
    assert parse_polytope_unchecked(_poly_text(vertices)) == \
        _product([P1] * 10)


# (P^1)^10: 20 ray lines from line 2, then 1024 cone lines from line 22.
_TEN_LINES = serialize_fan(_product([P1] * 10)).split("\n")
_DEEP_ROW = _TEN_LINES[999].split()


def _deep_row(token: str | None) -> list[str]:
    """Cone line 1000 of (P^1)^10 with the token in place of its fifth
    index, or without that index when token is None."""
    row = list(_DEEP_ROW)
    if token is None:
        del row[4]
    else:
        row[4] = token
    return row


@pytest.mark.parametrize("row, reason", [
    (_deep_row("x"), "expected an integer, got 'x' (cone)"),
    (_deep_row("1_0"), "expected an integer, got '1_0' (cone)"),
    (_deep_row("\u0665"), "expected an integer, got '\u0665' (cone)"),
    (_deep_row("+-1"), "expected an integer, got '+-1' (cone)"),
    (_deep_row("1-"), "expected an integer, got '1-' (cone)"),
    (_deep_row("+"), "expected an integer, got '+' (cone)"),
    (_deep_row("9" * 5000),
     "integer has 5000 digits, above the limit of 4300 (cone)"),
    (_deep_row("20"), "ray index 20 out of range 0..19"),
    (_deep_row("-1"), "ray index -1 out of range 0..19"),
    (_deep_row(_DEEP_ROW[3]), "repeated ray index in cone"),
    (_deep_row(None), "cone line needs 10 integers, got 9"),
], ids=["x", "underscore", "arabic-indic", "signs", "trailing-sign",
        "lone-sign", "5000-digits", "index-m", "index-minus-1", "repeat",
        "short-row"])
def test_a_deep_cone_line_is_named_as_a_row_read_names_it(row, reason):
    lines = list(_TEN_LINES)
    lines[999] = " ".join(row)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(FanSyntaxError) as err:
            parse_fan_unchecked("\n".join(lines))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (err.value.line, err.value.reason) == (1000, reason)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_face_fan_under_relabelling_and_gl_n_z(transformed, data):
    name = data.draw(st.sampled_from(
        ("poly_square", "poly_hexagon", "poly_octahedron")))
    text = (corpus_directory() / f"{name}.poly").read_text(encoding="utf-8")
    fan = require_valid(parse_polytope_unchecked(text))
    # The rays of a face fan are the vertices, so moving the fan moves them.
    vertices = data.draw(st.permutations(transformed(fan, data).rays))
    moved = require_valid(parse_polytope_unchecked(
        f"POLY {fan.dim} {len(vertices)}\n"
        + "".join(" ".join(map(str, v)) + "\n" for v in vertices)))
    assert f_vector(moved) == f_vector(fan)
    assert mukai_check(moved).equality_case == mukai_check(fan).equality_case


def _input_order_face_fan(vertices, n):
    """The reference face fan: the hull inserts the vertices in input
    order, and make_fan puts the result in canonical form."""
    return make_fan(n, vertices, _polytope_facets(vertices, n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_sorted_face_fan_equals_make_fan_on_input_order(transformed, data):
    kind = data.draw(st.sampled_from(("cross", "hexagons", "corpus")))
    if kind == "corpus":
        path = data.draw(st.sampled_from(
            sorted(corpus_directory().glob("*.poly"))))
        vertices = _vertices(path.read_text(encoding="utf-8"))
        fan = _input_order_face_fan(vertices, len(vertices[0]))
    else:
        fan = _product([P1] * data.draw(st.integers(1, 6))
                       if kind == "cross"
                       else [HEXAGON] * data.draw(st.integers(1, 2)))
    vertices = data.draw(st.permutations(transformed(fan, data).rays))
    got = parse_polytope_unchecked(_poly_text(vertices))
    assert got == _input_order_face_fan(vertices, fan.dim)
    assert list(got.rays) == sorted(vertices)


CUBE = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
# The origin lies outside this quadrilateral, beyond its edge on x = 1.
OUTSIDE = [(1, 0), (2, 1), (1, 2), (3, 3)]


@pytest.mark.parametrize("vertices, error, named", [
    (CUBE, NonSimplicialFacet, [(1, 1, 1), (1, 1, -1), (1, -1, 1),
                                (1, -1, -1)]),
    (OUTSIDE, OriginNotInterior, [(1, 0), (1, 2)]),
], ids=["cube", "origin-outside"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_errors_name_vertices_by_their_input_line(vertices, error, named,
                                                  data):
    shuffled = data.draw(st.permutations(vertices))
    with pytest.raises(error) as got:
        parse_polytope_unchecked(_poly_text(shuffled))
    # The reference: the hull on the input order, whose indices are the
    # input lines' own.
    with pytest.raises(error) as old:
        _polytope_facets(shuffled, len(vertices[0]))
    assert str(got.value) == str(old.value)
    indices = re.search(r"vertices \(([0-9, ]+)\)", str(got.value)).group(1)
    assert sorted(shuffled[int(i)] for i in indices.split(", ")) == \
        sorted(named)


def test_render_report_is_deterministic():
    data = {"beta": [1, 2], "alpha": {"y": False, "x": None},
            "gamma": [{"b": 2, "a": 1}]}
    text = render_report(data, "text")
    assert text == render_report(dict(reversed(list(data.items()))), "text")
    structured = render_report(data, "json")
    assert structured == render_report(data, "json")
    parsed = json.loads(structured)
    assert parsed["alpha"]["x"] is None
    assert list(parsed) == sorted(parsed)


def test_render_text_layout():
    data = {"name": "plane", "fano": True, "f_vector": [1, 3, 3]}
    assert render_report(data, "text") == \
        "f_vector: [1, 3, 3]\nfano: yes\nname: plane\n"
    with pytest.raises(ValueError):
        render_report({}, "yaml")
