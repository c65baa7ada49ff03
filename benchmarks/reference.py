"""Answers the benchmark checks the program against.

None of this calls into `toricfano`. The corpus `.fan` answers come from the
oracle-made `fingerprints.json`. Every other fan is a product of projective
spaces and hexagon fans (del Pezzo surfaces of degree 6), whose invariants
follow in closed form from the factors. The bound tables are the paper's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

# The paper's two tables: the largest rho the face-count estimate admits,
# per (n, iota), for iota = [n/2] and for iota = [n/2] - 1.
FACE_COUNT_TABLE = {(4, 2): 2, (5, 2): 2, (6, 3): 2, (7, 3): 2,
                    (6, 2): 4, (7, 2): 4, (8, 3): 3, (9, 3): 3,
                    (10, 4): 2, (11, 4): 3, (12, 5): 2, (13, 5): 2}


def ratio_bound(n: int, iota: int) -> int:
    """The bound rho * (iota - 1) <= n gives rho <= floor(n / (iota - 1))."""
    return n // (iota - 1)


@dataclass(frozen=True)
class Factor:
    """One factor of a product fan: its dimension, rays, maximal cones,
    boundary f-vector, (order, degree) pairs of its primitive relations,
    wall degrees, and the projective-space dimension if it is one."""

    dim: int
    rays: int
    cones: int
    f: tuple[int, ...]
    relations: tuple[tuple[int, int], ...]
    wall_degrees: tuple[int, ...]
    projective: int | None


def projective(a: int) -> Factor:
    """P^a: one zero-sum collection of all a + 1 rays, every wall curve
    a line of anticanonical degree a + 1, the simplex-boundary f-vector."""
    return Factor(a, a + 1, a + 1, tuple(comb(a + 1, j) for j in range(a + 1)),
                  ((a + 1, a + 1),), (a + 1,) * comb(a + 1, 2), a)


# The hexagon fan: 9 non-adjacent ray pairs, the 6 pairs at distance two
# summing to the ray between them (degree 1) and the 3 opposite pairs
# summing to zero (degree 2); all six invariant curves are (-1)-curves.
HEXAGON = Factor(2, 6, 6, (1, 6, 6), ((2, 1),) * 6 + ((2, 2),) * 3,
                 (1,) * 6, None)


def product_fingerprint(factors: list[Factor]) -> dict:
    """Invariants of a product fan, in the keys of `fingerprints.json`.

    Primitive relations of a product are those of its factors. A wall of a
    product is a wall of one factor times a maximal cone of the others, with
    that factor's curve. The boundary complex is the join of the factors',
    so its f-polynomial is the product of theirs.
    """
    dim = sum(x.dim for x in factors)
    rays = sum(x.rays for x in factors)
    total_cones = 1
    for x in factors:
        total_cones *= x.cones
    f = [1]
    for x in factors:
        f = [sum(f[i] * x.f[j - i] for i in range(len(f))
                 if 0 <= j - i < len(x.f))
             for j in range(len(f) + len(x.f) - 1)]
    walls = sorted(d for x in factors
                   for d in x.wall_degrees * (total_cones // x.cones))
    rho = rays - dim
    iota = walls[0]
    lhs = rho * (iota - 1)
    dims = [x.projective for x in factors]
    if lhs != dim:
        verdict = "NotEqual"
    elif None not in dims and len(set(dims)) == 1:
        verdict = "ProductOfProjectiveSpaces"
    else:
        verdict = "EqualButUnrecognized"
    return {
        "dimension": dim,
        "ray_count": rays,
        "picard_rho": rho,
        "fano": True,
        "pseudo_index_iota": iota,
        "f_vector": f,
        "relation_summary": sorted([list(p) for x in factors
                                    for p in x.relations]),
        "wall_degrees": walls,
        "mukai_verdict": verdict,
    }


def mukai_answer(fp: dict) -> dict:
    """The `mukai` payload a Fano fan with fingerprint `fp` must produce;
    the factors of an equality case are then all iota - 1."""
    n = fp["dimension"]
    rho = fp["picard_rho"]
    iota = fp["pseudo_index_iota"]
    equal = fp["mukai_verdict"] == "ProductOfProjectiveSpaces"
    return {
        "dimension": n,
        "picard_rho": rho,
        "pseudo_index_iota": iota,
        "inequality_lhs": rho * (iota - 1),
        "inequality_holds": rho * (iota - 1) <= n,
        "equality_case": fp["mukai_verdict"],
        "factors": [iota - 1] * rho if equal else None,
    }


def load_fingerprints(root: Path) -> dict:
    path = root / "src" / "toricfano" / "corpus" / "fingerprints.json"
    return json.loads(path.read_text(encoding="utf-8"))


# The bundled `.poly` files and the factors of their face fans.
CORPUS_POLY_FACTORS = {
    "poly_square": [projective(1)] * 2,
    "poly_octahedron": [projective(1)] * 3,
    "poly_hexagon": [HEXAGON],
}


def batch_entry_mismatches(entry: dict, fp: dict) -> list[str]:
    """Where a `batch` report entry disagrees with a fingerprint."""
    out = []
    if entry.get("status") != "ok":
        return [f"status {entry.get('status')}: {entry.get('detail')}"]
    inv = entry["invariants"]
    got = {
        "dimension": inv["dimension"],
        "ray_count": inv["ray_count"],
        "picard_rho": inv["picard_rho"],
        "fano": inv["fano"],
        "pseudo_index_iota": inv["pseudo_index_iota"],
        "f_vector": inv["f_vector"],
        "relation_summary": sorted([r["order"], r["degree"]]
                                   for r in inv["relations"]),
        "wall_degrees": inv["wall_degrees"],
        "mukai_verdict": entry.get("mukai", {}).get("equality_case"),
    }
    for key, want in fp.items():
        if got[key] != want:
            out.append(f"{key}: got {got[key]!r}, want {want!r}")
    if fp["fano"]:
        want_mukai = mukai_answer(fp)
        if entry["mukai"] != want_mukai:
            out.append(f"mukai: got {entry['mukai']!r}, "
                       f"want {want_mukai!r}")
    return out
