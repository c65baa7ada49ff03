"""File formats, face-fan construction, and report rendering."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.errors import (
    FanSyntaxError,
    NonSimplicialFacet,
    OriginNotInterior,
    ValidationError,
)
from toricfano.fan import construct_product, construct_projective_space
from toricfano.fvector import f_vector
from toricfano.invariants import mukai_check
from toricfano.io import (
    parse_fan,
    parse_fan_unchecked,
    parse_polytope_as_face_fan,
    render_report,
    serialize_fan,
)
from toricfano.oracle import corpus_directory

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


def test_parse_fan_validates():
    text = "FAN 2 3 3\n2 0\n0 1\n-1 -1\n0 1\n1 2\n0 2\n"
    with pytest.raises(ValidationError) as err:
        parse_fan(text)
    assert "primitivity" in str(err.value)
    assert parse_fan_unchecked(text) is not None


def test_polytope_triangle_and_square():
    triangle = parse_polytope_as_face_fan("POLY 2 3\n1 0\n0 1\n-1 -1\n")
    assert triangle == construct_projective_space(2)
    square = parse_polytope_as_face_fan("POLY 2 4\n1 0\n0 1\n-1 0\n0 -1\n")
    p1 = construct_projective_space(1)
    assert square == construct_product(p1, p1)


def test_polytope_octahedron():
    text = "POLY 3 6\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n"
    fan = parse_polytope_as_face_fan(text)
    p1 = construct_projective_space(1)
    assert fan == construct_product(construct_product(p1, p1), p1)


def test_polytope_origin_must_be_interior():
    shifted = "POLY 2 4\n0 0\n1 0\n1 1\n0 1\n"
    with pytest.raises(OriginNotInterior):
        parse_polytope_as_face_fan(shifted)
    flat = "POLY 2 3\n1 0\n2 0\n3 0\n"
    with pytest.raises(OriginNotInterior):
        parse_polytope_as_face_fan(flat)


def test_polytope_rejects_non_simplicial_facets():
    cube = "POLY 3 8\n" + "\n".join(
        f"{x} {y} {z}" for x in (1, -1) for y in (1, -1)
        for z in (1, -1)) + "\n"
    with pytest.raises(NonSimplicialFacet):
        parse_polytope_as_face_fan(cube)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_face_fan_under_relabelling_and_gl_n_z(transformed, data):
    name = data.draw(st.sampled_from(
        ("poly_square", "poly_hexagon", "poly_octahedron")))
    text = (corpus_directory() / f"{name}.poly").read_text(encoding="utf-8")
    fan = parse_polytope_as_face_fan(text)
    # The rays of a face fan are the vertices, so moving the fan moves them.
    vertices = data.draw(st.permutations(transformed(fan, data).rays))
    moved = parse_polytope_as_face_fan(
        f"POLY {fan.dim} {len(vertices)}\n"
        + "".join(" ".join(map(str, v)) + "\n" for v in vertices))
    assert f_vector(moved) == f_vector(fan)
    assert mukai_check(moved).equality_case == mukai_check(fan).equality_case


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
