"""Quick checks of the benchmark's own code: the references, the seeded
generator, the self-time arithmetic of the tracer and the speed scaling.

    python3 benchmarks/selfcheck.py

Exits 0 when every check passes. It runs no workload; it takes a second.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def determinant(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def check_references() -> None:
    """The closed forms agree with the oracle-made fingerprints on every
    corpus fan they cover."""
    fps = reference.load_fingerprints(ROOT)
    covered = 0
    for name, fp in fps.items():
        if name.startswith("projective_"):
            parts = [int(name.split("_")[1])]
        elif name.startswith("product_"):
            parts = [int(p) for p in name.split("_")[1].split("x")]
        else:
            continue
        got = reference.product_fingerprint(
            [reference.projective(a) for a in parts])
        check(got == fp, f"closed form differs from {name}: {got} vs {fp}")
        covered += 1
    check(covered == 44, f"{covered} product fingerprints, want 44")
    check(reference.product_fingerprint([reference.HEXAGON])
          == fps["del_pezzo_depth_3_0"],
          "hexagon factor differs from the degree-6 del Pezzo fingerprint")
    for name, fp in fps.items():
        if fp["fano"]:
            answer = reference.mukai_answer(fp)
            equal = answer["inequality_lhs"] == fp["dimension"]
            check(equal == (fp["mukai_verdict"] != "NotEqual"),
                  f"{name}: verdict {fp['mukai_verdict']} against lhs")
    dp6_cubed = reference.product_fingerprint([reference.HEXAGON] * 3)
    check(dp6_cubed["f_vector"] == [1, 18, 126, 432, 756, 648, 216],
          f"f-vector of dP6^3: {dp6_cubed['f_vector']}")
    check(reference.FACE_COUNT_TABLE.keys() == {
        (4, 2), (5, 2), (6, 3), (7, 3), (6, 2), (7, 2), (8, 3), (9, 3),
        (10, 4), (11, 4), (12, 5), (13, 5)}, "bound-table cells")


def check_generator(scratch: Path) -> None:
    """Seeds decide the files; transforms are unimodular relabellings that
    keep every maximal cone unimodular."""
    for dim in (1, 2, 5, 14):
        basis = tuple(tuple(int(i == j) for j in range(dim))
                      for i in range(dim))
        for seed in range(20):
            g = inputs.unimodular(dim, random.Random(seed), basis)
            check(abs(determinant(g)) == 1, f"det of transform, dim {dim}")
    hexagons = inputs.hexagon_free_sum(3)
    filled = {sum(x != 0 for v in inputs.transform_poly(
        hexagons, random.Random(seed)).vertices for x in v)
        for seed in range(10)}
    check(filled == {36}, f"coordinates filled by ten seeds: {filled}")
    fan = inputs.projective_product((2, 1, 1))
    moved = inputs.transform_fan(fan, random.Random(3))
    check(set(moved.rays) != set(fan.rays), "transform left the rays alone")
    for cone in moved.cones:
        check(abs(determinant([moved.rays[i] for i in cone])) == 1,
              f"cone {cone} not unimodular after the transform")
    check(len(moved.cones) == 3 * 2 * 2 and len(set(moved.cones)) == 12,
          "cones lost in the transform")
    for name in workloads.WORKLOADS:
        texts = []
        for seed in (5, 5, 6):
            directory = scratch / f"{name}-{seed}-{len(texts)}"
            directory.mkdir(parents=True)
            w = workloads.WORKLOADS[name](ROOT)
            w.generate(directory, seed)
            texts.append({p.name: p.read_bytes()
                          for p in sorted(directory.rglob("*")) if p.is_file()}
                         | {"ops": repr([(o.label, o.argv, o.library)
                                         for o in w.ops()])
                            .replace(str(directory), "DIR").encode()})
        check(texts[0] == texts[1], f"{name}: one seed, two input sets")
        check(texts[0] != texts[2], f"{name}: two seeds, one input set")


def check_self_times() -> None:
    """Self times of nested spans, under a clock that ticks once per read,
    add up to the duration of the outermost span, and scale with the
    operation's calibration factor."""
    ticks = count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("lattice", "solve_in_basis", lambda: None)
    mid = tracer.wrap("fan", "faces", lambda: [leaf(), leaf()])
    top = tracer.wrap("cli", "main", lambda: [mid(), leaf()])
    top()
    spans, _ = tracer.take()
    by_func = {s.func: s for s in spans if s.func != "solve_in_basis"}
    # Clock reads: main 0..9, faces 1..6, solves 2-3, 4-5 and 7-8.
    check([(s.func, s.start, s.end, s.self_s) for s in spans] == [
        ("solve_in_basis", 2.0, 3.0, 1.0), ("solve_in_basis", 4.0, 5.0, 1.0),
        ("faces", 1.0, 6.0, 3.0), ("solve_in_basis", 7.0, 8.0, 1.0),
        ("main", 0.0, 9.0, 3.0)], f"spans {spans}")
    check(sum(s.self_s for s in spans) == 9.0, "self times sum to the root")
    check(by_func["faces"].parent == by_func["main"].span_id
          and by_func["main"].parent == -1, "parent links")
    layers = tracing.layer_metrics(spans, Counter(), [10.0], [2.0])
    check(layers["cli.self_s"] == 6.0 and layers["fan.faces_s"] == 6.0
          and layers["lattice.solve_s"] == 6.0
          and layers["lattice.solve_calls"] == 3, f"layer metrics {layers}")
    check(layers["trace.pass_s"] == 20.0
          and layers["trace.unattributed_s"] == 2.0, "unattributed time")


def check_tracer_install() -> None:
    """Installing wraps every binding of a function once; uninstalling
    restores the originals."""
    sys.path.insert(0, str(ROOT / "src"))
    run.fresh_import()
    cli = sys.modules["toricfano.cli"]
    fan = sys.modules["toricfano.fan"]
    original = fan.validate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(cli.validate is fan.validate and fan.validate is not original,
              "cli.validate and fan.validate wrapped by one wrapper")
        check(sys.modules["toricfano"].validate is fan.validate,
              "package-level name wrapped")
        fan.validate(fan.construct_projective_space(2))
        names = [s.func for s in tracer.spans]
        check("validate" in names and "construct_projective_space" in names
              and "solve_in_basis" in names, f"spans of a call: {names}")
    finally:
        tracer.uninstall()
    check(fan.validate is original and cli.validate is original,
          "uninstall restores the originals")


def check_speed() -> None:
    """A timing is scaled by the mean speed of the samples near it, less
    the time the samples inside it took."""
    sampler = speed.Sampler()
    ref = speed.REFERENCE_S
    sampler.samples = [(0.0, ref), (0.5, ref / 2), (1.0, 2 * ref),
                       (5.0, ref)]
    # Samples at 0.5 and 1.0 fall inside 0.4..1.4; those at 0.5 and 1.0
    # are near it; the mean speed is (2 + 1/2) / 2.
    got = sampler.factor(0.4, 1.4)
    want = (1 - 2.5 * ref) * 1.25
    check(abs(got - want) < 1e-12, f"speed factor {got}, want {want}")


def check_declared_metrics() -> None:
    """The metrics computed match the names BENCHMARK.json declares."""
    sampler = speed.Sampler()
    sampler.samples = [(0.0, speed.REFERENCE_S)]
    r = run.Run(workloads.WORKLOADS["fan-ladder"](ROOT), sampler)
    r.serial = [[workloads.Outcome(rung, 0.0, 0.1, "")
                 for rung in workloads.LADDER]]
    r.traced = [([workloads.Outcome("p1x8", 0.0, 0.1, "")], [], Counter())]
    r.attempted = 1
    try:
        run.declared(run.per_layer(r), "per_layer")
        run.declared(run.end_to_end(r, [0.1]), "end_to_end")
    except SystemExit as err:
        FAILURES.append(str(err))
    check(run.tail(list(range(1, 21))) == [50, 10], "tail of 20 samples")
    check(run.tail(list(range(10))) is None, "no tail with 10 samples")


def main() -> int:
    scratch = ROOT / ".bench_work" / "selfcheck"
    import shutil
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_references()
        check_generator(scratch)
        check_self_times()
        check_tracer_install()
        check_speed()
        check_declared_metrics()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in FAILURES:
        print("FAIL", failure)
    print("selfcheck:", "ok" if not FAILURES else f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
