"""Line-oriented text formats for fans and polytope vertex lists, the
face-fan construction, and deterministic report rendering.

The face fan of a `.poly` polytope has one cone per facet. The vertices
are sorted once, lexicographically, and the facets are those of the cone
over the points (v, 1), from lattice.cone_facets, which inserts the sorted
vertices in that order: a facet's vertices are its tight set, a sorted
tuple of indices into the sorted rows, which are the canonical rays, so
the face fan is a Fan as it stands, without make_fan's checks and remap.
A facet's inner normal (a, b) keeps the origin strictly inside when
b > 0. A facet with more than n vertices raises NonSimplicialFacet, and
one that does not keep the origin strictly inside raises
OriginNotInterior; the facets are checked in the order of their normals,
which does not depend on the order of the vertices, so on a polytope with
both faults the first facet in that order decides which, and the error
names the facet's vertices by their index in the input. Vertices that
span no more than a proper affine subspace raise OriginNotInterior.

The `.fan` grammar: a header line `FAN <n> <m> <c>`, then m ray lines of n
integers each, then c cone lines of n ray indices each. The `.poly` grammar:
`POLY <n> <m>` followed by m vertex lines. Blank lines and `#` comments are
ignored everywhere. Integers are ASCII `[+-]?[0-9]+`, within int()'s digit
limit; any other token is a syntax error.

Each block of rows (rays, cones, vertices) is read in a few C-level calls:
the arity of every row, one token check over the block, one map(int), and
for cones one min and one max over all indices and one set per row. A
block that fails any of these is read or checked again row by row, so the
error names the same line and the same first bad token as a row-by-row
reader would. The checked rays and cones of a `.fan` file go straight to
the canonical form that make_fan ends in, without make_fan's own checks.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from itertools import chain
from operator import itemgetter
from typing import Sequence

from . import lattice
from .errors import (
    FanSyntaxError,
    NonSimplicialFacet,
    OriginNotInterior,
    SingularBasis,
)
from .fan import Fan, _canonical_fan, _rays_of, require_valid


_LINE_BREAK = re.compile(r"\r\n?|\n")


def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) for every line that is not blank or
    comment-only. Lines end only at CR LF, CR or LF, the breaks that
    universal newlines read; str.splitlines() also breaks at NEL, U+2028,
    VT, FF and others, which would turn the rest of a comment into data."""
    out = []
    for number, raw in enumerate(_LINE_BREAK.split(text), start=1):
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
               arity: int, what: str) -> list[int]:
    """The count rows of arity integers from lines[start], flattened, read
    as one block: the arity of every row, one token check over the joined
    block, and one map(int). int() takes exactly `[+-]?[0-9]+` once the
    tokens are ASCII and free of `_`. A block that fails any of these, or
    int()'s digit limit, is read again row by row, so the error names the
    same line and first bad token as a row-by-row read would."""
    rows = list(map(itemgetter(1), lines[start:start + count]))
    if len(rows) == count and all(map(arity.__eq__, map(len, rows))):
        tokens = list(chain.from_iterable(rows))
        joined = "".join(tokens)
        if joined.isascii() and "_" not in joined:
            try:
                return list(map(int, tokens))
            except ValueError:
                pass
    return _rows_one_by_one(lines, start, count, arity, what)


def _rows_one_by_one(lines: list[tuple[int, list[str]]], start: int,
                     count: int, arity: int, what: str) -> list[int]:
    """_take_rows, one row at a time: a block that failed comes here, and
    its first bad row raises FanSyntaxError."""
    out = []
    for i in range(count):
        if start + i >= len(lines):
            raise FanSyntaxError(lines[-1][0] + 1, f"expected {count} "
                                 f"{what} lines, found {i}")
        line, tokens = lines[start + i]
        if len(tokens) != arity:
            raise FanSyntaxError(line, f"{what} line needs {arity} integers, "
                                       f"got {len(tokens)}")
        out.extend([_parse_int(t, line, what) for t in tokens])
    return out


def _tuples(flat: list[int], arity: int) -> list[tuple[int, ...]]:
    """flat cut into consecutive tuples of arity entries."""
    return list(zip(*[iter(flat)] * arity))


def parse_fan_unchecked(text: str) -> Fan:
    """Parse the `.fan` grammar without running mathematical validation."""
    lines = _significant_lines(text)
    header, (n, m, c) = _parse_header(lines, "FAN", 3)
    rays = _tuples(_take_rows(lines, 1, m, n, "ray"), n)
    indices = _take_rows(lines, 1 + m, c, n, "cone")
    if len(lines) > 1 + m + c:
        raise FanSyntaxError(lines[1 + m + c][0], "trailing content")
    if m == 0 or c == 0:
        raise FanSyntaxError(header, "a fan needs at least one ray and one "
                                     "maximal cone")
    cones = _tuples(indices, n)
    # One min and one max over the block for the index range, one set per
    # row for repeats; a block that fails is checked again row by row, so
    # the error names the first bad line.
    if min(indices) < 0 or max(indices) >= m or \
            not all(map(n.__eq__, map(len, map(set, cones)))):
        for (line, _), row in zip(lines[1 + m:], cones):
            if min(row) < 0 or max(row) >= m:
                idx = next(i for i in row if not 0 <= i < m)
                raise FanSyntaxError(line, f"ray index {idx} out of range "
                                           f"0..{m - 1}")
            if len(set(row)) != n:
                raise FanSyntaxError(line, "repeated ray index in cone")
    return _canonical_fan(n, rays, cones)


def parse_fan(text: str) -> Fan:
    """Parse and validate; raises ValidationError naming any failed check."""
    return require_valid(parse_fan_unchecked(text))


def serialize_fan(fan: Fan) -> str:
    """Canonical `.fan` text; parse_fan of the result reproduces the fan."""
    out = [f"FAN {fan.dim} {len(fan.rays)} {len(fan.max_cones)}"]
    out.extend(" ".join(str(x) for x in ray) for ray in fan.rays)
    out.extend(" ".join(str(i) for i in cone) for cone in fan.max_cones)
    return "\n".join(out) + "\n"


def _named(mask: int, names: Sequence[int] | None) -> tuple[int, ...]:
    """The vertices of a tight mask as an error names them: names[i] for
    bit i, sorted, or the bits themselves when names is None."""
    on_plane = _rays_of(mask)
    if names is None:
        return on_plane
    return tuple(sorted(map(names.__getitem__, on_plane)))


def _polytope_facets(vertices: Sequence[tuple[int, ...]], n: int,
                     names: Sequence[int] | None = None
                     ) -> list[tuple[int, ...]]:
    """Facet vertex-index sets of conv(vertices), sorted: the tight sets of
    the facets of the cone over the points (v, 1), each a sorted tuple of
    indices into vertices. The hull inserts the vertices in the order
    given. The facets are checked in the order of their normals, which
    does not depend on that order; one with more than n vertices raises
    NonSimplicialFacet, and one whose inner normal (a, b) has b <= 0 fails
    to keep the origin strictly inside and raises OriginNotInterior. The
    error names vertex i as names[i], its input index when the caller has
    reordered the vertices, and as i when names is None."""
    try:
        facets = lattice.cone_facets([v + (1,) for v in vertices])
    except SingularBasis:
        raise OriginNotInterior(
            "the vertices lie in a proper affine subspace") from None
    out = []
    for normal, mask in facets:
        size = mask.bit_count()
        if size > n:
            raise NonSimplicialFacet(
                f"facet through vertices {_named(mask, names)} has {size} "
                f"vertices in dimension {n}")
        if normal[-1] <= 0:
            raise OriginNotInterior(
                f"facet through vertices {_named(mask, names)} does not "
                "separate the origin strictly from the outside")
        out.append(_rays_of(mask))
    return sorted(out)


def parse_polytope_unchecked(text: str) -> Fan:
    """Parse the `.poly` grammar and return the face fan of the convex hull
    of the vertices, without running mathematical validation.

    The vertices are sorted once, and the hull inserts them in that order.
    Its facets are then sorted tuples of indices into the sorted rows, the
    canonical form that make_fan ends in, so the Fan is built from them
    directly."""
    lines = _significant_lines(text)
    _, (n, m) = _parse_header(lines, "POLY", 2)
    vertices = _tuples(_take_rows(lines, 1, m, n, "vertex"), n)
    if len(lines) > 1 + m:
        raise FanSyntaxError(lines[1 + m][0], "trailing content")
    if m < n + 1:
        raise OriginNotInterior(
            f"{m} vertices cannot enclose the origin in dimension {n}")
    order = sorted(range(m), key=vertices.__getitem__)
    rows = tuple([vertices[i] for i in order])
    return Fan(n, rows, tuple(_polytope_facets(rows, n, order)))


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
