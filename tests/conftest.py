"""Shared fixtures: the bundled corpus, parsed and validated once, and the
random fans, the random cones and the random relabelling plus GL(n, Z)
move used by the property tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import reject
from hypothesis import strategies as st

from toricfano.errors import SingularBasis
from toricfano.fan import (construct_product, make_fan, require_valid,
                           star_subdivision)
from toricfano.io import parse_fan, parse_polytope_unchecked
from toricfano.lattice import cone_facets
from toricfano.oracle import corpus_directory


@pytest.fixture(scope="session")
def corpus_fans():
    """name -> validated Fan for every bundled `.fan` file."""
    root = corpus_directory()
    fans = {}
    for path in sorted(root.glob("*.fan")):
        fans[path.stem] = parse_fan(path.read_text(encoding="utf-8"))
    assert fans, "bundled corpus is missing"
    return fans


@pytest.fixture(scope="session")
def all_corpus_fans(corpus_fans):
    """The 54 corpus `.fan` fans, then the validated face fans of the 3
    `.poly` files."""
    polys = [require_valid(parse_polytope_unchecked(
        path.read_text(encoding="utf-8")))
        for path in sorted(corpus_directory().glob("*.poly"))]
    fans = list(corpus_fans.values()) + polys
    assert len(fans) == 57
    return fans


@pytest.fixture(scope="session")
def corpus_fingerprints():
    """The bundled fingerprint index."""
    path = corpus_directory() / "fingerprints.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _relabelled(fan, data):
    """(moved, label): the fan under a random ray relabelling and a random
    GL(n, Z) change of coordinates, drawn as a product of elementary +-1
    matrices (a step with i == j negates a row, so the determinant may be
    -1), and label[i], the index in moved of the image of ray i."""
    n = fan.dim
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from((1, -1))), max_size=8))
    for i, j, sign in steps:
        if i == j:
            matrix[i] = [-x for x in matrix[i]]
        else:
            matrix[i] = [x + sign * y for x, y in zip(matrix[i], matrix[j])]
    order = data.draw(st.permutations(range(len(fan.rays))))
    position = {old: new for new, old in enumerate(order)}
    images = [tuple(sum(a * b for a, b in zip(row, ray)) for row in matrix)
              for ray in fan.rays]
    rays = [images[old] for old in order]
    cones = [[position[i] for i in c] for c in fan.max_cones]
    moved = make_fan(n, rays, cones)
    return moved, tuple(moved.rays.index(image) for image in images)


@pytest.fixture(scope="session")
def transformed():
    """(fan, Hypothesis data) -> the fan under a random ray relabelling and
    a random GL(n, Z) change of coordinates."""
    return lambda fan, data: _relabelled(fan, data)[0]


@pytest.fixture(scope="session")
def relabelled():
    """(fan, Hypothesis data) -> (moved, label) as transformed draws it,
    with label[i] the index in moved of the image of ray i."""
    return _relabelled


def _drawn_fan(corpus_fans, data):
    """A corpus fan with at most 16 rays, one random star subdivision of a
    corpus fan, or the product of two corpus fans with at most 12 rays in
    total (larger products make the oracle's subset scan slow)."""
    kind = data.draw(st.sampled_from(("corpus", "subdivision", "product")))
    if kind == "product":
        pairs = sorted((a, b) for a in corpus_fans for b in corpus_fans
                       if len(corpus_fans[a].rays)
                       + len(corpus_fans[b].rays) <= 12)
        a, b = data.draw(st.sampled_from(pairs))
        return construct_product(corpus_fans[a], corpus_fans[b])
    limit = 16 if kind == "corpus" else 15
    names = sorted(name for name, fan in corpus_fans.items()
                   if len(fan.rays) <= limit and fan.dim >= 2)
    fan = corpus_fans[data.draw(st.sampled_from(names))]
    if kind == "subdivision":
        cone = data.draw(st.sampled_from(fan.max_cones))
        sigma = data.draw(st.lists(st.sampled_from(cone), min_size=2,
                                   max_size=fan.dim, unique=True))
        fan = star_subdivision(fan, sigma)
    return fan


@pytest.fixture(scope="session")
def drawn_fan(corpus_fans):
    """Hypothesis data -> a corpus fan, a star subdivision of one, or a
    small product of two."""
    return lambda data: _drawn_fan(corpus_fans, data)


def _drawn_cone(data):
    """Integer vectors that span Q^d, 2 <= d <= 4, all on the positive side
    of one functional, so that their cone is pointed. Either d + 1 to d + 6
    vectors with entries in [-3, 3], or the cone over a (d - 1)-cube, whose
    facets are not simplicial for d = 4; then up to three vectors that
    duplicate, multiply or add earlier ones, and a shuffle."""
    d = data.draw(st.integers(2, 4))
    if data.draw(st.booleans()):
        drawn = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                                   min_size=d + 1, max_size=d + 6))
        functional = data.draw(st.tuples(*[st.integers(-2, 2)] * d))
        vectors = []
        for v in drawn:
            value = sum(a * b for a, b in zip(functional, v))
            if value:
                vectors.append(v if value > 0 else tuple(-x for x in v))
    else:
        vectors = [(1,)]
        for _ in range(d - 1):
            vectors = [(s,) + v for v in vectors for s in (1, -1)]
    try:
        cone_facets(vectors)
    except SingularBasis:
        reject()
    for _ in range(data.draw(st.integers(0, 3))):
        a = data.draw(st.sampled_from(vectors))
        b = data.draw(st.sampled_from(vectors))
        k = data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(("multiple", "sum")))
        vectors.append(tuple(k * x for x in a) if kind == "multiple"
                       else tuple(x + y for x, y in zip(a, b)))
    return data.draw(st.permutations(vectors))


@pytest.fixture(scope="session")
def drawn_cone():
    """Hypothesis data -> integer vectors that span Q^d and generate a
    pointed cone, with duplicate, parallel and redundant generators."""
    return _drawn_cone
