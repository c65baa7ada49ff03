"""One row per call of the `toricfano` command: its exit code (0 pass, 1
check failed, 2 input error) and what its output must hold. Tier-1 runs the
rows through `cli.main` (tests/test_cli.py); `python tests/cli_cases.py`
runs them through the installed console script, one line per row, and
exits 1 after listing the failing ids."""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import tempfile
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

from toricfano.cli import main
from toricfano.fan import construct_product, construct_projective_space
from toricfano.io import parse_fan, parse_fan_unchecked, serialize_fan
from toricfano.oracle import corpus_directory


@dataclass(frozen=True)
class Case:
    """One call. `argv` is split on spaces. A word that names an input (a
    key of INPUTS) stands for that file, written to a fresh directory,
    `{tmp}`, as is `holds`; `{corpus}` is the bundled corpus directory.
    stdout must hold `out` and stderr `err`. `check(out, err, run)` may
    assert more, where `run(*argv)` makes another call the same way."""

    id: str
    code: int
    argv: str
    out: str = ""
    err: str = ""
    check: Callable | None = None
    holds: str = ""


def _text(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _cyclic(rays: list[str]) -> str:
    m = len(rays)
    return _text(f"FAN 2 {m} {m}",
                 rays + [f"{i} {(i + 1) % m}" for i in range(m)])


def _deep_token() -> str:
    """(P^1)^10, a bad token on its last cone line, 1045: the block read
    fails, the rows are read again one by one, and stderr names the line."""
    fan = reduce(construct_product, [construct_projective_space(1)] * 10)
    lines = serialize_fan(fan).splitlines()
    lines[-1] = "x " + lines[-1].split(" ", 1)[1]
    return "\n".join(lines) + "\n"


def _gl4_image() -> str:
    """A seeded GL(4, Z) image of blowup_projective_4_codim_4, rays
    shuffled: 4 of its 6 rays have more than one expression across the
    walls, so the cone walk may reuse a relation it found for the same new
    ray only when that relation's rays lie in the cone it leaves."""
    rng = random.Random(4)
    fan = parse_fan((CORPUS / "blowup_projective_4_codim_4.fan").read_text())
    g = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(12):
        i, j = rng.sample(range(4), 2)
        s = rng.choice((1, -1))
        g[i] = [x + s * y for x, y in zip(g[i], g[j])]
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return _text(
        f"FAN 4 {len(fan.rays)} {len(fan.max_cones)}",
        [" ".join(str(sum(a * b for a, b in zip(row, fan.rays[old])))
                  for row in g) for old in order]
        + [" ".join(str(where[i]) for i in c) for c in fan.max_cones])


def _corpus_ok(out, err, run):
    # iota is read off the primitive relations, and the wall degrees off the
    # wall curves: two computations that must agree on every Fano fan.
    report = json.loads(out)
    entries, summary = report["entries"], report["summary"]
    fano = [e["invariants"] for e in entries if e["invariants"]["fano"]]
    for e in fano:
        assert e["pseudo_index_iota"] == min(e["wall_degrees"]), e
    assert len(fano) == 56, f"{len(fano)} Fano entries of {len(entries)}"
    assert (summary["check_failures"], summary["parse_errors"],
            summary["passed"]) == (0, 0, summary["files"]), summary
    assert [e["path"] for e in entries] == sorted(e["path"] for e in entries)
    _same_as_serial(out, err, run)  # and the same on a second run


def _same_as_serial(out, err, run):
    assert out == run("batch", "{corpus}", "--format", "json")[1]


def _short_err(out, err, run):
    # The rejected argument is echoed shortened, not whole.
    assert "invalid" in err and len(err.encode()) < 300, err[:300]


def _same_as_corpus_file(out, err, run):
    code, want, _ = run("mukai", "{corpus}/blowup_projective_4_codim_4.fan")
    lines = [[line for line in report.splitlines()
              if not line.startswith("path:")] for report in (out, want)]
    assert code == 0 and lines[0] == lines[1], (code, out, want)


def _hexagon_counts(out, err, run):
    # Per hexagon: 9 relations of order 2, 6 of degree 1 and 3 of degree 2.
    report = json.loads(out)
    got = (report["picard_rho"], report["pseudo_index_iota"],
           sorted((r["order"], r["degree"]) for r in report["relations"]))
    assert got == (12, 1, [(2, 1)] * 18 + [(2, 2)] * 9), got


def _same_report_as_forward(out, err, run):
    # The reader sorts the vertices before the hull, so the report is the
    # same once path is dropped.
    _, forward, _ = run("invariants", "hexagons_3.poly", "--format", "json")
    forward, backward = json.loads(forward), json.loads(out)
    assert forward.pop("path") != backward.pop("path")
    assert forward == backward


CORPUS = corpus_directory()
LONG = "x" * 100_000
# The free sum of three hexagons: its face fan is the cube of the del Pezzo
# surface of degree 6, so rho is 12 and iota is 1.
_HEXAGONS = [" ".join(str(x if k == 2 * b else y if k == 2 * b + 1 else 0)
                      for k in range(6)) for b in range(3) for x, y in
             ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))]
# name -> the text of an input file, or a function that returns it.
INPUTS = {
    # F_3, whose primitive relation of least degree has degree -1.
    "f_3.fan": "FAN 2 4 4\n1 0\n0 1\n-1 3\n0 -1\n0 1\n1 2\n2 3\n0 3\n",
    "underscore.fan": "FAN 2 3 3\n1_0 0\n0 1\n-1 -1\n0 1\n1 2\n0 2\n",
    "cone_token.fan": "FAN 2 3 3\n1 0\n0 1\n-1 -1\n0 1\n1_0 2\n0 2\n",
    "vertex_token.poly": "POLY 2 3\n1 0\n0 ٥\n-1 -1\n",
    "deep.fan": _deep_token,
    "image.fan": _gl4_image,
    "determinant_2.fan": "FAN 2 3 3\n1 0\n1 2\n-1 -1\n0 1\n1 2\n0 2\n",
    # P(1, 1, 1, 2): the walk does not cross into the cone of determinant 2,
    # which gets its own adjugate, and the determinant keeps its sign.
    "weighted.fan": "FAN 3 4 4\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -2\n"
                    "0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
    "determinant_0.fan": "FAN 2 3 3\n1 0\n0 1\n-1 0\n0 1\n1 2\n0 2\n",
    # Smooth and facet-paired, but folded over.
    "folded.fan": "FAN 2 3 3\n1 0\n0 1\n1 1\n0 1\n0 2\n1 2\n",
    # Fifteen rays, every consecutive determinant 1, winding twice around
    # the origin: wall orientation holds, the covering degree is 2.
    "doubly_wound.fan": _cyclic(
        ["1 0", "-3 1", "-1 0", "-3 -1", "-2 -1", "-3 -2", "-1 -1",
         "-2 -3", "-1 -2", "-1 -3", "1 2", "0 1", "-1 1", "-3 2", "1 -1"]),
    # Times P^1: the covering degree is 2 * 1, the h_0 that the cone walk
    # counts as it crosses the walls.
    "wound_product.fan": lambda: serialize_fan(construct_product(
        parse_fan_unchecked(INPUTS["doubly_wound.fan"]),
        construct_projective_space(1))),
    # Fourteen rays, winding three times: the covering degree is 3.
    "triply_wound.fan": _cyclic(
        ["1 0", "0 1", "-1 -2", "1 1", "2 3", "-1 -1", "0 -1", "1 -1",
         "2 -1", "-3 2", "-2 1", "-3 1", "-1 0", "-2 -1"]),
    "cube.poly": _text("POLY 3 8", [f"{x} {y} {z}" for x in (1, -1)
                                    for y in (1, -1) for z in (1, -1)]),
    "collinear.poly": "POLY 2 3\n1 0\n2 0\n3 0\n",
    "interior.poly": "POLY 2 4\n3 -1\n-1 3\n-1 -1\n1 0\n",
    # The hull finds the 4096 facets by the bit-pattern adjacency test.
    "cross_12.poly": _text("POLY 12 24", [
        " ".join(str(s if k == i else 0) for k in range(12))
        for i in range(12) for s in (1, -1)]),
    "hexagons_3.poly": _text("POLY 6 18", _HEXAGONS),
    "hexagons_3_reversed.poly": _text("POLY 6 18", _HEXAGONS[::-1]),
}

CASES = [
    Case("batch-corpus-workers-2", 0,
         "batch {corpus} --workers 2 --format json", check=_same_as_serial),
    Case("batch-corpus", 0, "batch {corpus} --format json", check=_corpus_ok),
    Case("validate-projective-2", 0, "validate {corpus}/projective_2.fan"),
    Case("invariants-hexagon", 0, "invariants {corpus}/poly_hexagon.poly"),
    Case("mukai-product-2x2", 0, "mukai {corpus}/product_2x2.fan",
         "equality_case: ProductOfProjectiveSpaces\nfactors: [2, 2]\n"),
    Case("mukai-hirzebruch-2", 2, "mukai {corpus}/hirzebruch_2_non_fano.fan",
         err="not Fano"),
    Case("mukai-hirzebruch-3", 2, "mukai f_3.fan", err="not Fano"),
    Case("bounds-7-3", 0, "bounds 7 3", "face_count_bound: 2\n"
         "face_count_bound_suffices: yes\niota: 3\nmukai_bound: 3\n"),
    Case("bounds-14-2", 2, "bounds 14 2"),
    Case("bounds-4-4", 2, "bounds 4 4", err="regime"),
    # int() reads `1_3` as 13 and the Arabic-Indic digit five as 5.
    Case("bounds-1_3-5", 2, "bounds 1_3 5", err="invalid"),
    Case("bounds-13-arabic-five", 2, "bounds 13 ٥", err="invalid"),
    Case("bounds-1_3-arabic-five", 2, "bounds 1_3 ٥", err="invalid"),
    Case("bounds-long", 2, f"bounds {LONG} 5", check=_short_err),
    Case("batch-long", 2, f"batch . --workers {LONG}", check=_short_err),
    Case("validate-missing-file", 2, "validate {corpus}/no_such_file.fan",
         err="error:"),
    Case("validate-underscore-ray", 2, "validate underscore.fan"),
    # A bad token in a cone or vertex row: stderr names its line.
    Case("validate-cone-token", 2, "validate cone_token.fan", err="line 6:"),
    Case("validate-vertex-token", 2, "validate vertex_token.poly",
         err="line 3:"),
    Case("validate-deep-token", 2, "validate deep.fan", err="line 1045:"),
    Case("batch-arabic-workers", 2, "batch {corpus} --workers ٢",
         err="--workers"),
    Case("validate-gl4-image", 0, "validate image.fan"),
    # The verdict must match the corpus file's.
    Case("mukai-gl4-image", 0, "mukai image.fan", check=_same_as_corpus_file),
    Case("validate-determinant-2", 1, "validate determinant_2.fan"),
    Case("batch-determinant-2", 1, "batch {tmp}", holds="determinant_2.fan"),
    Case("validate-weighted", 1, "validate weighted.fan",
         "cone (0, 2, 3) has determinant 2"),
    Case("validate-determinant-0", 1, "validate determinant_0.fan",
         "cone (0, 2) has determinant 0\n    name: smoothness"),
    Case("batch-determinant-0", 1, "batch {tmp}", holds="determinant_0.fan"),
    Case("validate-folded", 1, "validate folded.fan", "covering_degree"),
    Case("batch-folded", 1, "batch {tmp}", holds="folded.fan"),
    Case("validate-doubly-wound", 1, "validate doubly_wound.fan",
         "a generic point lies in 2 maximal cones"),
    Case("batch-doubly-wound", 1, "batch {tmp}", holds="doubly_wound.fan"),
    Case("validate-doubly-wound-times-line", 1, "validate wound_product.fan",
         "a generic point lies in 2 maximal cones"),
    Case("validate-triply-wound", 1, "validate triply_wound.fan",
         "a generic point lies in 3 maximal cones"),
    Case("batch-triply-wound", 1, "batch {tmp}", holds="triply_wound.fan"),
    Case("mukai-cube", 2, "mukai cube.poly"),
    Case("validate-collinear", 2, "validate collinear.poly"),
    Case("validate-interior", 1, "validate interior.poly", "ray_coverage"),
    Case("validate-cross-12", 0, "validate cross_12.poly"),
    Case("invariants-hexagons-3", 0,
         "invariants hexagons_3.poly --format json", check=_hexagon_counts),
    Case("invariants-hexagons-3-reversed", 0,
         "invariants hexagons_3_reversed.poly --format json",
         check=_same_report_as_forward),
    Case("mukai-hexagons-3", 0, "mukai hexagons_3.poly",
         "equality_case: NotEqual"),
]


def run_case(case: Case, invoke) -> tuple[int, list[str]]:
    """(exit code, failures) of one row, where invoke(argv) -> (code,
    stdout, stderr). On every row, stderr must hold no traceback, and an
    input error must print no report."""
    with tempfile.TemporaryDirectory() as tmp:
        def run(*argv):
            for name in {case.holds, *argv} & INPUTS.keys():
                text = INPUTS[name]
                Path(tmp, name).write_bytes(
                    (text() if callable(text) else text).encode())
            return invoke([str(Path(tmp, w)) if w in INPUTS else
                           w.format(corpus=CORPUS, tmp=tmp) for w in argv])

        code, out, err = run(*case.argv.split(" "))
        failures = [failure for failure, seen in (
            (f"exit {code}, documented {case.code}", code != case.code),
            (f"stdout lacks {case.out!r}", case.out not in out),
            (f"stderr lacks {case.err!r}", case.err not in err),
            ("stderr holds a traceback", "Traceback" in err),
            ("an input error printed a report", code == 2 and out)) if seen]
        if case.check is not None:
            try:
                case.check(out, err, run)
            except Exception as error:  # reported with the row's id
                failures.append(f"{case.check.__name__}: {error!r}"[:500])
    return code, failures


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejected an argument
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def run_console_script(argv: list[str]) -> tuple[int, str, str]:
    done = subprocess.run(["toricfano", *argv], capture_output=True,
                          encoding="utf-8")
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    failed = []
    for case in CASES:
        code, failures = run_case(case, run_console_script)
        argv = case.argv.replace(LONG, f"<{len(LONG)} x>")
        print(f"toricfano {argv}: exit {code}, documented {case.code} "
              f"[{case.id}]")
        failed += [f"  {case.id}: {failure}" for failure in failures]
    print("\n".join(["failed:", *failed]) if failed
          else f"all {len(CASES)} cases pass")
    raise SystemExit(1 if failed else 0)
