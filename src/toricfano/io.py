"""Line-oriented text formats for fans and polytope vertex lists, the
face-fan construction, and deterministic report rendering.

The face fan of a `.poly` polytope has one cone per facet. The facets are
found by gift wrapping: one facet from the hyperplane x_1 = max x_1, then
across each ridge to the facet on its other side, with the directions of
all of a facet's ridges read off one adjugate of its vertex matrix. A
facet with more than n vertices raises NonSimplicialFacet, and one that
does not keep the origin strictly inside raises OriginNotInterior; on a
polytope with both faults, the facet the walk reaches first decides
which.

The `.fan` grammar: a header line `FAN <n> <m> <c>`, then m ray lines of n
integers each, then c cone lines of n ray indices each. The `.poly` grammar:
`POLY <n> <m>` followed by m vertex lines. Blank lines and `#` comments are
ignored everywhere. Integers are ASCII `[+-]?[0-9]+`, within int()'s digit
limit; any other token is a syntax error.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from typing import Sequence

from . import lattice
from .errors import (
    FanSyntaxError,
    NonSimplicialFacet,
    OriginNotInterior,
)
from .fan import Fan, make_fan, require_valid


def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) for every line that is not blank or
    comment-only."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ascii_int(token: str) -> int:
    """An ASCII integer token, also for the command line; int() alone would
    take `1_0` and non-ASCII digits. The ValueError echoes a shortened
    token, or names int()'s digit limit when only that is broken."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"expected an integer, got {reprlib.repr(token)}")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"integer has {len(token.lstrip('+-'))} digits, "
                         f"above the limit of {sys.get_int_max_str_digits()}")


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return _ascii_int(token)
    except ValueError as err:
        raise FanSyntaxError(line, f"{err} ({what})") from None


def _parse_header(lines: list[tuple[int, list[str]]], tag: str,
                  count_fields: int) -> tuple[int, list[int]]:
    if not lines:
        raise FanSyntaxError(1, "empty input")
    line, tokens = lines[0]
    if tokens[0] != tag:
        raise FanSyntaxError(line, f"header must start with {tag}")
    if len(tokens) != 1 + count_fields:
        raise FanSyntaxError(line, f"header needs {count_fields} integers "
                                   f"after {tag}")
    values = [_parse_int(t, line, "the header") for t in tokens[1:]]
    if values[0] < 1:
        raise FanSyntaxError(line, "dimension must be positive")
    if any(v < 0 for v in values[1:]):
        raise FanSyntaxError(line, "counts must be nonnegative")
    return line, values


def _take_rows(lines: list[tuple[int, list[str]]], start: int, count: int,
               arity: int, what: str) -> list[tuple[int, list[int]]]:
    rows = []
    for i in range(count):
        if start + i >= len(lines):
            last = lines[-1][0] if lines else 1
            raise FanSyntaxError(last + 1, f"expected {count} {what} lines, "
                                           f"found {i}")
        line, tokens = lines[start + i]
        if len(tokens) != arity:
            raise FanSyntaxError(line, f"{what} line needs {arity} integers, "
                                       f"got {len(tokens)}")
        rows.append((line, [_parse_int(t, line, what) for t in tokens]))
    return rows


def parse_fan_unchecked(text: str) -> Fan:
    """Parse the `.fan` grammar without running mathematical validation."""
    lines = _significant_lines(text)
    header, (n, m, c) = _parse_header(lines, "FAN", 3)
    ray_rows = _take_rows(lines, 1, m, n, "ray")
    cone_rows = _take_rows(lines, 1 + m, c, n, "cone")
    if len(lines) > 1 + m + c:
        raise FanSyntaxError(lines[1 + m + c][0], "trailing content")
    if m == 0 or c == 0:
        raise FanSyntaxError(header, "a fan needs at least one ray and one "
                                     "maximal cone")
    rays = [tuple(row) for _, row in ray_rows]
    cones = []
    for line, row in cone_rows:
        for idx in row:
            if not 0 <= idx < m:
                raise FanSyntaxError(line, f"ray index {idx} out of range "
                                           f"0..{m - 1}")
        if len(set(row)) != n:
            raise FanSyntaxError(line, "repeated ray index in cone")
        cones.append(tuple(row))
    return make_fan(n, rays, cones)


def parse_fan(text: str) -> Fan:
    """Parse and validate; raises ValidationError naming any failed check."""
    return require_valid(parse_fan_unchecked(text))


def serialize_fan(fan: Fan) -> str:
    """Canonical `.fan` text; parse_fan of the result reproduces the fan."""
    out = [f"FAN {fan.dim} {len(fan.rays)} {len(fan.max_cones)}"]
    out.extend(" ".join(str(x) for x in ray) for ray in fan.rays)
    out.extend(" ".join(str(i) for i in cone) for cone in fan.max_cones)
    return "\n".join(out) + "\n"


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _checked_facet(vertices: Sequence[tuple[int, ...]], normal: Sequence[int],
                   offset: int, n: int) -> tuple[int, ...]:
    """Indices of the vertices on the facet hyperplane normal . x = offset;
    raises when the facet is non-simplicial or fails to keep the origin
    strictly inside."""
    on_plane = tuple(i for i, v in enumerate(vertices)
                     if _dot(normal, v) == offset)
    if len(on_plane) > n:
        raise NonSimplicialFacet(
            f"facet through vertices {on_plane} has {len(on_plane)} "
            f"vertices in dimension {n}")
    if offset <= 0:
        raise OriginNotInterior(
            f"facet through vertices {on_plane} does not separate the "
            "origin strictly from the outside")
    return on_plane


def _tilt(vertices: Sequence[tuple[int, ...]], normal: Sequence[int],
          offset: int, c: Sequence[int],
          base: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Turn the supporting hyperplane normal . x = offset about its meet
    with c . x = c . base, away from c, until it hits a vertex; returns
    the new outward normal and offset.

    The hyperplanes through that meet have normals -e * normal - s * c.
    With s_p = offset - normal . p > 0 and e_p = c . (p - base), the one
    through vertex p keeps vertex q inside iff e_p / s_p <= e_q / s_q, so
    the vertex with the least e_p / s_p gives the next supporting
    hyperplane (compared by cross-multiplication, all in integers).
    """
    c_base = _dot(c, base)
    best_e, best_s = 0, 0
    for v in vertices:
        s = offset - _dot(normal, v)
        if s > 0:
            e = _dot(c, v) - c_base
            if not best_s or e * best_s < best_e * s:
                best_e, best_s = e, s
    tilted = lattice.make_primitive([-best_e * x - best_s * y
                                     for x, y in zip(normal, c)])
    return tilted, _dot(tilted, base)


def _facet_walk(vertices: Sequence[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Facet vertex-index sets of conv(vertices) by gift wrapping: find one
    facet, then cross each of its ridges to the facet on the other side
    (Chand & Kapur 1970). A simplicial polytope has exactly two facets on
    each ridge, so the cost is about ridges * vertices, plus one adjugate
    per facet for its ridge directions. Raises when a facet is
    non-simplicial or fails to keep the origin strictly inside.
    """
    values = [v[0] for v in vertices]
    if n == 1:
        # The facets of a segment are its end points.
        return sorted({_checked_facet(vertices, (1,), max(values), n),
                       _checked_facet(vertices, (-1,), -min(values), n)})
    origin = vertices[0]
    spread = [tuple(v[j] - origin[j] for j in range(n)) for v in vertices[1:]]
    if lattice.matrix_rank(spread) < n:
        raise OriginNotInterior(
            "the vertices lie in a proper affine subspace")

    def through(indices: Sequence[int], normal: Sequence[int]) -> list:
        """Difference rows of the given vertices, plus the normal. Their
        integer kernel holds the directions orthogonal to both, about which
        the hyperplane can turn and keep those vertices on it."""
        base = vertices[indices[0]]
        return [tuple(vertices[i][j] - base[j] for j in range(n))
                for i in indices[1:]] + [tuple(normal)]

    # First facet: tilt the supporting hyperplane x_1 = max x_1 about the
    # affine hull of its vertices until that hull has dimension n - 1.
    normal: tuple[int, ...] = (1,) + (0,) * (n - 1)
    offset = max(values)
    while True:
        on_plane = tuple(i for i, v in enumerate(vertices)
                         if _dot(normal, v) == offset)
        kernel = lattice.integer_kernel(through(on_plane, normal))
        if not kernel:
            break
        normal, offset = _tilt(vertices, normal, offset, kernel[0],
                               vertices[on_plane[0]])
    first = _checked_facet(vertices, normal, offset, n)
    planes = {first: (normal, offset)}
    queue = [first]
    done: set[tuple[int, ...]] = set()
    while queue:
        facet = queue.pop()
        normal, offset = planes[facet]
        open_ridges = []
        for p in range(n):
            ridge = facet[:p] + facet[p + 1:]
            if ridge not in done:
                done.add(ridge)
                open_ridges.append((p, ridge))
        if not open_ridges:
            continue
        # With the facet's vertices as the rows of A, column p of adj A is
        # orthogonal to every vertex but the p-th, where it takes the value
        # det A. Scaled by sign(det A), it is a positive multiple of the
        # ridge direction orthogonal to the normal, pointing towards the
        # omitted vertex, plus a multiple of the normal: both give the same
        # meet with the facet hyperplane, hence the same tilt.
        det, adj = lattice.adjugate([vertices[i] for i in facet])
        sign = 1 if det > 0 else -1
        for p, ridge in open_ridges:
            c = tuple(sign * row[p] for row in adj)
            tilted, tilted_offset = _tilt(vertices, normal, offset, c,
                                          vertices[ridge[0]])
            neighbour = _checked_facet(vertices, tilted, tilted_offset, n)
            if neighbour not in planes:
                planes[neighbour] = (tilted, tilted_offset)
                queue.append(neighbour)
    return sorted(planes)


def parse_polytope_unchecked(text: str) -> Fan:
    """Parse the `.poly` grammar and return the face fan of the convex hull
    of the vertices, without running mathematical validation."""
    lines = _significant_lines(text)
    _, (n, m) = _parse_header(lines, "POLY", 2)
    vertex_rows = _take_rows(lines, 1, m, n, "vertex")
    if len(lines) > 1 + m:
        raise FanSyntaxError(lines[1 + m][0], "trailing content")
    vertices = [tuple(row) for _, row in vertex_rows]
    if m < n + 1:
        raise OriginNotInterior(
            f"{m} vertices cannot enclose the origin in dimension {n}")
    return make_fan(n, vertices, _facet_walk(vertices, n))


# ---------------------------------------------------------------------------
# report rendering


def _is_flat(value) -> bool:
    return isinstance(value, list) and \
        not any(isinstance(x, (dict, list)) for x in value)


def _text_lines(value, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        pairs = [(f"{key}:", value[key]) for key in sorted(value)]
    elif isinstance(value, list):
        pairs = [("-", item) for item in value]
    else:
        return [f"{pad}{_scalar(value)}"]
    out = []
    for label, item in pairs:
        if isinstance(item, (dict, list)) and item and not _is_flat(item):
            out.append(f"{pad}{label}")
            out.extend(_text_lines(item, indent + 1))
        else:
            out.append(f"{pad}{label} {_scalar(item)}")
    return out


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    if isinstance(value, dict):
        return "{}"
    return str(value)


def render_report(data, fmt: str) -> str:
    """Deterministic rendering of a report tree of dicts, lists, and
    scalars; fmt is `text` or `json`."""
    if fmt == "text":
        return "\n".join(_text_lines(data, 0)) + "\n"
    if fmt == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
