"""The four workloads: their seeded inputs, one pass over them, and the
checks of every answer against `reference`.

A pass is a list of operations run one after another in this process
(closed loop, one caller). An operation is one CLI invocation through
`toricfano.cli.main(argv)` or, in `bounds-tables`, one library call of
`closed_form_cross_check`; it fails when it raises, exits with the wrong
code, disagrees with the reference, or differs from the same operation's
first output in the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference


@dataclass
class Op:
    """One operation: what to run and the answer it must give."""

    label: str
    argv: list[str] | None = None          # a CLI invocation ...
    library: tuple | None = None           # ... or (name, args, kwargs)
    check: object = None                   # output text -> list of mismatches


@dataclass
class Outcome:
    label: str
    start: float  # time.perf_counter() before and after the call
    end: float
    output: str
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def cli_main():
    """The program's entry point, looked up on each call so that tracing,
    once installed, sees it."""
    return sys.modules["toricfano.cli"].main


def execute(op: Op) -> Outcome:
    """Run one operation, timed, and collect what it printed or returned."""
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                rc = cli_main()(op.argv)
            else:
                name, args, kwargs = op.library
                module, func = name.rsplit(".", 1)
                value = getattr(sys.modules[module], func)(*args, **kwargs)
                out.write(repr(value))
                rc = 0
    except SystemExit as stop:
        rc = stop.code
    except Exception as exc:  # counted as a failed operation, not fatal
        rc = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    end = time.perf_counter()
    if rc != 0 and not problems:
        problems.append(f"exit code {rc}, want 0: "
                        f"{err.getvalue().strip()[:200]}")
    return Outcome(op.label, start, end, out.getvalue(), problems)


def check_outcome(op: Op, outcome: Outcome) -> None:
    """Add the reference mismatches of an operation that ran cleanly."""
    if not outcome.problems and op.check is not None:
        outcome.problems.extend(op.check(outcome.output))


def _mukai_check(want: dict):
    def check(text: str) -> list[str]:
        got = json.loads(text)
        got.pop("path", None)
        return [] if got == want else [f"got {got}, want {want}"]
    return check


def _invariants_check(fp: dict):
    """Compare an `invariants` report with a closed-form fingerprint."""
    def check(text: str) -> list[str]:
        entry = {"status": "ok", "invariants": json.loads(text),
                 "mukai": reference.mukai_answer(fp)}
        return reference.batch_entry_mismatches(entry, fp)
    return check


class Workload:
    """Inputs are written by `generate`; `ops` lists one pass; `probe` lists
    untimed operations that check answers a pass does not print."""

    name = ""
    warm_up: list[Op] = []

    def __init__(self, root: Path):
        self.root = root

    def generate(self, directory: Path, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> list[Op]:
        return []

    def parallel_op(self) -> Op | None:
        """The same pass run by the CLI's own worker pool, if it has one."""
        return None


class CorpusBatch(Workload):
    """`batch` over the 54 bundled `.fan` files and the 3 `.poly` files."""

    name = "corpus-batch"

    def generate(self, directory: Path, seed: int) -> None:
        rng = random.Random(seed)
        corpus = self.root / "src" / "toricfano" / "corpus"
        self.dir = directory / "corpus"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fingerprints = reference.load_fingerprints(self.root)
        for name in sorted(reference.CORPUS_POLY_FACTORS):
            self.fingerprints[name] = reference.product_fingerprint(
                reference.CORPUS_POLY_FACTORS[name])
        for path in sorted(corpus.iterdir()):
            if path.suffix not in (".fan", ".poly"):
                continue
            text = path.read_text(encoding="utf-8")
            source = inputs.read_fan(text) if path.suffix == ".fan" \
                else inputs.read_poly(text)
            inputs.write_transformed(source, self.dir / path.name, rng)
        warm = directory / "warm_up.fan"
        inputs.write_transformed(inputs.projective_product((2,)), warm, rng)
        self.warm_up = [Op("warm-up", ["invariants", str(warm)]),
                        Op("warm-up", ["mukai", str(warm)])]

    def _check(self, text: str) -> list[str]:
        report = json.loads(text)
        problems = []
        names = [Path(e["path"]).stem for e in report["entries"]]
        if sorted(names) != sorted(self.fingerprints):
            problems.append(f"report covers {names}, want "
                            f"{sorted(self.fingerprints)}")
        for entry, name in zip(report["entries"], names):
            if name in self.fingerprints:
                problems += [f"{name}: {p}" for p in
                             reference.batch_entry_mismatches(
                                 entry, self.fingerprints[name])]
        return problems

    def batch(self, workers: int) -> Op:
        argv = ["batch", str(self.dir), "--format", "json"]
        if workers > 1:
            argv += ["--workers", str(workers)]
        return Op(f"batch-w{workers}", argv, check=self._check)

    def ops(self) -> list[Op]:
        return [self.batch(1)]

    def parallel_op(self) -> Op:
        return self.batch(2)


# The rungs of the fan ladder: name -> factor dimensions.
LADDER = {"p1x8": (1,) * 8, "p1x10": (1,) * 10, "p2x4": (2,) * 4,
          "p2x5": (2,) * 5, "p14": (14,)}


class FanLadder(Workload):
    """`mukai` on five large products of projective spaces."""

    name = "fan-ladder"

    def generate(self, directory: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.rungs = []
        for name, parts in LADDER.items():
            path = directory / f"{name}.fan"
            inputs.write_transformed(inputs.projective_product(parts), path,
                                     rng)
            fp = reference.product_fingerprint(
                [reference.projective(a) for a in parts])
            self.rungs.append((name, path, fp))
        warm = directory / "warm_up.fan"
        inputs.write_transformed(inputs.projective_product((2,)), warm, rng)
        self.warm_up = [Op("warm-up", ["mukai", str(warm)])]

    def ops(self) -> list[Op]:
        return [Op(name, ["mukai", str(path), "--format", "json"],
                   check=_mukai_check(reference.mukai_answer(fp)))
                for name, path, fp in self.rungs]

    def probe(self) -> list[Op]:
        # `mukai` prints no f-vector, relations or wall degrees; check them
        # once per run on the smallest rung.
        name, path, fp = min(self.rungs, key=lambda r: r[2]["ray_count"])
        return [Op(f"invariants-{name}",
                   ["invariants", str(path), "--format", "json"],
                   check=_invariants_check(fp))]


# The face-fan inputs: name -> (polytope, factors of its face fan).
POLYTOPES = {
    "cross7": (inputs.cross_polytope(7), [reference.projective(1)] * 7),
    "cross8": (inputs.cross_polytope(8), [reference.projective(1)] * 8),
    "hex2": (inputs.hexagon_free_sum(2), [reference.HEXAGON] * 2),
    "hex3": (inputs.hexagon_free_sum(3), [reference.HEXAGON] * 3),
}


class PolyFacefan(Workload):
    """`mukai` on `.poly` inputs, whose face fans are built by the facet
    scan."""

    name = "poly-facefan"

    def generate(self, directory: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.polys = []
        for name, (poly, factors) in POLYTOPES.items():
            path = directory / f"{name}.poly"
            inputs.write_transformed(poly, path, rng)
            self.polys.append((name, path,
                               reference.product_fingerprint(factors)))
        warm = directory / "warm_up.poly"
        inputs.write_transformed(inputs.cross_polytope(2), warm, rng)
        self.warm_up = [Op("warm-up", ["mukai", str(warm)])]

    def ops(self) -> list[Op]:
        return [Op(name, ["mukai", str(path), "--format", "json"],
                   check=_mukai_check(reference.mukai_answer(fp)))
                for name, path, fp in self.polys]

    def probe(self) -> list[Op]:
        name, path, fp = min(self.polys, key=lambda p: p[2]["ray_count"])
        return [Op(f"invariants-{name}",
                   ["invariants", str(path), "--format", "json"],
                   check=_invariants_check(fp))]


# f0 values per dimension in the cross-check: the seed draws F0_DRAWN of the
# F0_WINDOW values n + 1, n + 2, ... (the program's default is the first 12).
# Drawing from one fixed window keeps the work per pass about the same for
# every seed.
F0_WINDOW = 60
F0_DRAWN = 30


def _bounds_check(n: int, iota: int):
    want = {"n": n, "iota": iota,
            "face_count_bound": reference.FACE_COUNT_TABLE[n, iota],
            "mukai_bound": reference.ratio_bound(n, iota)}
    want["face_count_bound_suffices"] = \
        want["face_count_bound"] <= want["mukai_bound"]

    def check(text: str) -> list[str]:
        got = json.loads(text)
        return [] if got == want else [f"got {got}, want {want}"]
    return check


def _no_discrepancies(text: str) -> list[str]:
    return [] if text == "[]" else [f"discrepancies: {text[:300]}"]


class BoundsTables(Workload):
    """`bounds n iota` for every supported cell and the closed-form
    cross-check against the palindromy engine for n = 4..13."""

    name = "bounds-tables"

    def generate(self, directory: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.windows = {}
        for n in range(4, 14):
            window = range(n + 1, n + 1 + F0_WINDOW)
            self.windows[n] = sorted(rng.sample(window, F0_DRAWN))
        self.warm_up = [
            Op("warm-up", ["bounds", "4", "2"]),
            Op("warm-up", library=("toricfano.fvector.closed_form_cross_check",
                                   (4,), {"f0_values": [5]}))]

    def ops(self) -> list[Op]:
        cells = [Op(f"bounds-{n}-{iota}",
                    ["bounds", str(n), str(iota), "--format", "json"],
                    check=_bounds_check(n, iota))
                 for n, iota in sorted(reference.FACE_COUNT_TABLE)]
        checks = [Op(f"cross-check-{n}",
                     library=("toricfano.fvector.closed_form_cross_check",
                              (n,), {"f0_values": window}),
                     check=_no_discrepancies)
                  for n, window in self.windows.items()]
        return cells + checks


WORKLOADS = {w.name: w for w in (CorpusBatch, FanLadder, PolyFacefan,
                                 BoundsTables)}
