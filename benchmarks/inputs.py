"""Seeded inputs for the benchmark.

Every input is built here from scratch, without calling into `toricfano`,
and written as a `.fan` or `.poly` file. Each file gets a seeded relabelling
of its rays (vertices) and a seeded `GL(n, Z)` change of coordinates, so the
arithmetic the program does depends on the seed while every invariant the
benchmark checks does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# Elementary matrices per transform. Each adds +-1 times a row no other step
# changes to another row, so every transform of an input adds about the same
# amount of arithmetic, whatever the seed. Chained steps would compound:
# coordinates would grow with the number of steps, and the cost of the large
# ladder rungs would depend on which rows the seed picks.
ELEMENTARY_STEPS = 3
# Which rows a step joins still changes the work: a step across two factors
# of a product fills more coordinates than one inside a factor, and the
# facet scan of three hexagons took 3.1 s to 4.2 s by that alone. So each
# input is moved by the densest of this many seeded candidates, which for
# almost every seed fills the same number of coordinates.
CANDIDATES = 8

HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


@dataclass(frozen=True)
class FanData:
    """Rays and maximal cones (index tuples into the rays)."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PolyData:
    """Vertices of a polytope with the origin strictly inside."""

    dim: int
    vertices: tuple[tuple[int, ...], ...]


def projective_product(parts: tuple[int, ...]) -> FanData:
    """The fan of P^a1 x ... x P^ak: per factor the rays e_1..e_a and
    -(e_1 + ... + e_a) in its own coordinate block; a maximal cone omits
    exactly one ray of each factor."""
    dim = sum(parts)
    rays: list[tuple[int, ...]] = []
    blocks: list[list[int]] = []
    offset = 0
    for a in parts:
        block = []
        for i in range(a + 1):
            ray = [0] * dim
            if i < a:
                ray[offset + i] = 1
            else:
                for j in range(a):
                    ray[offset + j] = -1
            block.append(len(rays))
            rays.append(tuple(ray))
        blocks.append(block)
        offset += a
    cones = [tuple(i for block, skip in zip(blocks, omit)
                   for i in block if i != skip)
             for omit in product(*blocks)]
    return FanData(dim, tuple(rays), tuple(cones))


def cross_polytope(dim: int) -> PolyData:
    """conv(+-e_i); its face fan is the fan of (P^1)^dim."""
    vertices = []
    for i in range(dim):
        for sign in (1, -1):
            v = [0] * dim
            v[i] = sign
            vertices.append(tuple(v))
    return PolyData(dim, tuple(vertices))


def hexagon_free_sum(copies: int) -> PolyData:
    """The free sum of `copies` hexagons, each in its own coordinate plane;
    its face fan is the product of `copies` del Pezzo surfaces of degree 6."""
    dim = 2 * copies
    vertices = []
    for c in range(copies):
        for x, y in HEXAGON:
            v = [0] * dim
            v[2 * c] = x
            v[2 * c + 1] = y
            vertices.append(tuple(v))
    return PolyData(dim, tuple(vertices))


def _elementary_product(dim: int, rng: random.Random) -> list[list[int]]:
    """A product of min(ELEMENTARY_STEPS, dim // 2) elementary matrices
    I + s * E_ij with s = +-1, the rows i distinct and no row j among them,
    so the factors commute."""
    rows = rng.sample(range(dim), dim)
    steps = min(ELEMENTARY_STEPS, dim // 2)
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j in zip(rows[:steps], rows[steps:2 * steps]):
        g[i][j] = rng.choice((1, -1))
    return g


def unimodular(dim: int, rng: random.Random,
               vectors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Of CANDIDATES seeded elementary products, the one that leaves the
    most nonzero coordinates in `vectors` (the first of equals); in
    dimension 1, a sign."""
    if dim < 2:
        return [[rng.choice((1, -1))]]
    candidates = [_elementary_product(dim, rng) for _ in range(CANDIDATES)]
    return max(candidates, key=lambda g: sum(
        x != 0 for v in vectors for x in apply(g, v)))


def apply(g: list[list[int]], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def transform_fan(fan: FanData, rng: random.Random) -> FanData:
    """Relabel the rays and change coordinates; cones follow the rays."""
    g = unimodular(fan.dim, rng, fan.rays)
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    newpos = {old: new for new, old in enumerate(order)}
    rays = tuple(apply(g, fan.rays[old]) for old in order)
    cones = [tuple(newpos[i] for i in cone) for cone in fan.cones]
    rng.shuffle(cones)
    return FanData(fan.dim, rays, tuple(cones))


def transform_poly(poly: PolyData, rng: random.Random) -> PolyData:
    g = unimodular(poly.dim, rng, poly.vertices)
    order = list(range(len(poly.vertices)))
    rng.shuffle(order)
    return PolyData(poly.dim,
                    tuple(apply(g, poly.vertices[i]) for i in order))


def fan_text(fan: FanData) -> str:
    out = [f"FAN {fan.dim} {len(fan.rays)} {len(fan.cones)}"]
    out += [" ".join(map(str, r)) for r in fan.rays]
    out += [" ".join(map(str, c)) for c in fan.cones]
    return "\n".join(out) + "\n"


def poly_text(poly: PolyData) -> str:
    out = [f"POLY {poly.dim} {len(poly.vertices)}"]
    out += [" ".join(map(str, v)) for v in poly.vertices]
    return "\n".join(out) + "\n"


def _rows(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append(body.split())
    return rows


def read_fan(text: str) -> FanData:
    """The `.fan` grammar, for the well-formed bundled corpus files only."""
    rows = _rows(text)
    n, m, c = (int(x) for x in rows[0][1:])
    rays = tuple(tuple(int(x) for x in r) for r in rows[1:1 + m])
    cones = tuple(tuple(int(x) for x in r) for r in rows[1 + m:1 + m + c])
    return FanData(n, rays, cones)


def read_poly(text: str) -> PolyData:
    rows = _rows(text)
    n, m = (int(x) for x in rows[0][1:])
    return PolyData(n, tuple(tuple(int(x) for x in r)
                             for r in rows[1:1 + m]))


def write_transformed(source: FanData | PolyData, path: Path,
                      rng: random.Random) -> None:
    """Write a seeded relabelling and coordinate change of `source`."""
    if isinstance(source, FanData):
        text = fan_text(transform_fan(source, rng))
    else:
        text = poly_text(transform_poly(source, rng))
    path.write_text(text, encoding="utf-8")
