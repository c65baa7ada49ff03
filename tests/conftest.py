"""Shared fixtures: the bundled corpus, parsed and validated once, and the
random relabelling plus GL(n, Z) move used by the property tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import strategies as st

from toricfano.fan import make_fan
from toricfano.io import parse_fan
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
def corpus_fingerprints():
    """The bundled fingerprint index."""
    path = corpus_directory() / "fingerprints.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _transformed(fan, data):
    """The fan under a random ray relabelling and a random GL(n, Z) change
    of coordinates, drawn as a product of elementary +-1 matrices; a step
    with i == j negates a row, so the determinant may be -1."""
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
    rays = [tuple(sum(a * b for a, b in zip(row, fan.rays[old]))
                  for row in matrix) for old in order]
    cones = [[position[i] for i in c] for c in fan.max_cones]
    return make_fan(n, rays, cones)


@pytest.fixture(scope="session")
def transformed():
    """(fan, Hypothesis data) -> the fan under a random ray relabelling and
    a random GL(n, Z) change of coordinates."""
    return _transformed
