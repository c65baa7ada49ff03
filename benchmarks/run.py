"""Benchmark of the toricfano command line, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Set-up (a fresh import, the seeded inputs written under
`.bench_work/`, a warm-up call) is repeated SETUP_REPS times and its median
reported as `setup_s`. Then passes over the workload run back to back, in
this process, for about S seconds. With `--trace 0` the last line of stdout
holds the end-to-end metrics; with `--trace 1` the run spends half of S on
untraced passes and half on passes with every public function of the
traced layers wrapped (see tracing.py), and reports the per-layer metrics.
Timings are in reference seconds (see speed.py). The line before the last
holds the environment, sample counts, tail percentiles and raw wall-clock
times; both lines also go to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import LADDER, WORKLOADS, check_outcome, execute  # noqa: E402

SETUP_REPS = 5
# The share of a run's time for serial passes, when there are parallel ones.
SERIAL_SHARE = 0.6
# A timing's tail percentile is reported only with this many samples
# beyond it.
TAIL_SAMPLES = 10


def fresh_import() -> None:
    """Import the program from `src/` as a new process would."""
    for name in [n for n in sys.modules
                 if n == "toricfano" or n.startswith("toricfano.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for layer in tracing.LAYERS:
        importlib.import_module(f"toricfano.{layer}")
    module = sys.modules["toricfano"]
    if Path(module.__file__).resolve().parent != ROOT / "src" / "toricfano":
        raise SystemExit(f"toricfano imported from {module.__file__}, "
                         f"not from {ROOT / 'src'}")


def set_up(workload, directory: Path, seed: int) -> tuple[float, float]:
    """The start and end of one set-up."""
    start = time.perf_counter()
    fresh_import()
    directory.mkdir(parents=True, exist_ok=True)
    workload.generate(directory, seed)
    for op in workload.warm_up:
        outcome = execute(op)
        if outcome.problems:
            raise SystemExit(f"warm-up failed: {outcome.problems}")
    return start, time.perf_counter()


def tail(samples: list[float]) -> list | None:
    """[p, value]: the highest of the usual percentiles with at least
    TAIL_SAMPLES samples above it, by nearest rank; None if none has."""
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = -(-len(ordered) * p // 100)
        if len(ordered) - rank >= TAIL_SAMPLES:
            return [p, ordered[int(rank) - 1]]
    return None


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail(samples), "values": samples}


class Run:
    """Passes over one workload: their outcomes, checked as they come, and
    (for traced passes) their spans. Timings are worked out at the end,
    when every speed sample is in."""

    def __init__(self, workload, sampler: speed.Sampler):
        self.workload = workload
        self.sampler = sampler
        self.first_output: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.serial: list[list] = []     # outcomes of each untraced pass
        self.parallel: list = []         # outcome of each parallel pass
        self.traced: list[tuple] = []    # (outcomes, spans, counts)

    def record(self, op, outcome, same_as: str | None = None) -> None:
        """Check one outcome, outside the timed region. Its output must
        equal the first output of operation `same_as` (default: itself)."""
        check_outcome(op, outcome)
        first = self.first_output.setdefault(same_as or op.label,
                                             outcome.output)
        if first != outcome.output and not outcome.problems:
            outcome.problems.append("output differs from the first pass")
        self.attempted += 1
        self.failed += bool(outcome.problems)
        self.problems += [f"{op.label}: {p}" for p in outcome.problems]

    def one_pass(self, tracer: tracing.Tracer | None = None) -> None:
        ops = self.workload.ops()
        outcomes = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            outcomes.append(execute(op))
        if tracer is None:
            self.serial.append(outcomes)
        else:
            self.traced.append((outcomes, *tracer.take()))
        for op, outcome in zip(ops, outcomes):
            self.record(op, outcome)

    def parallel_pass(self) -> None:
        """The pass through the CLI's worker pool. The pool forks, so the
        sampler thread stops for it; a burst of samples just before and
        just after it gives its speed."""
        op = self.workload.parallel_op()
        self.sampler.stop()
        try:
            self.sampler.burst(speed.BURST)
            with speed.unpinned():
                outcome = execute(op)
            self.sampler.burst(speed.BURST)
        finally:
            self.sampler.start()
        self.parallel.append(outcome)
        # The parallel report must match the serial one byte for byte.
        self.record(op, outcome, same_as=self.workload.ops()[0].label)

    def passes(self, seconds: float, tracer=None) -> None:
        """Serial passes until another would end after `seconds`, at least
        one. A workload with a parallel pass gives the time after the first
        SERIAL_SHARE to parallel passes, so that no serial pass follows a
        parallel one and all of them start from the same state."""
        start = time.perf_counter()
        parallel = tracer is None and self.workload.parallel_op() is not None
        serial_end = start + seconds * (SERIAL_SHARE if parallel else 1)
        self._repeat(lambda: self.one_pass(tracer), serial_end)
        if parallel:
            self._repeat(self.parallel_pass, start + seconds)

    @staticmethod
    def _repeat(step, deadline: float) -> None:
        durations: list[float] = []
        while True:
            start = time.perf_counter()
            step()
            durations.append(time.perf_counter() - start)
            if time.perf_counter() + statistics.median(durations) > deadline:
                return

    def probe(self) -> None:
        for op in self.workload.probe():
            self.record(op, execute(op))

    def scaled(self, outcome) -> float:
        return outcome.seconds * self.sampler.factor(outcome.start,
                                                     outcome.end)

    def pass_s(self) -> list[float]:
        return [sum(map(self.scaled, p)) for p in self.serial]

    def parallel_s(self) -> list[float]:
        return [self.scaled(o) for o in self.parallel]

    def op_s(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for p in self.serial:
            for o in p:
                out.setdefault(o.label, []).append(self.scaled(o))
        return out

    def layers(self) -> dict[str, float]:
        """Per-layer metrics: the median of each over the traced passes."""
        per_pass = []
        for outcomes, spans, counts in self.traced:
            factors = [self.sampler.factor(o.start, o.end) for o in outcomes]
            per_pass.append(tracing.layer_metrics(
                spans, counts, [o.seconds for o in outcomes], factors))
        return {name: statistics.median(p[name] for p in per_pass)
                for name in per_pass[0]} | {"trace.passes": len(per_pass)}


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toricfano").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # else git would look in the parents
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(speed.ALL_CPUS),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


def declared(values: dict[str, float], kind: str) -> dict:
    """The metrics of `kind` that BENCHMARK.json declares, with its units;
    a metric computed but not declared, or declared but not computed, is
    an error in the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                         "are computed or declared, not both")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def end_to_end(run: Run, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(run.pass_s()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run) -> dict[str, float]:
    values = run.layers()
    untraced = statistics.median(run.pass_s())
    values["trace.overhead_ratio"] = values["trace.pass_s"] / untraced
    parallel = run.parallel_s()
    values["pass_w2_s"] = statistics.median(parallel) if parallel else 0.0
    values["cli.w2_speedup"] = untraced / values["pass_w2_s"] \
        if parallel else 0.0
    op_s = run.op_s() if run.workload.name == "fan-ladder" else {}
    for rung in LADDER:
        values[f"verdict_s.{rung}"] = statistics.median(op_s[rung]) \
            if rung in op_s else 0.0
    values["error_rate"] = run.failed / run.attempted
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toricfano" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT)
    speed.pin()
    sampler = speed.Sampler()
    run = Run(workload, sampler)
    sampler.start()
    try:
        setups = [set_up(workload, work, args.seed) for _ in range(SETUP_REPS)]
        if args.trace:
            run.passes(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run.passes(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            run.passes(args.seconds)
        run.probe()
        time.sleep(speed.PAD_S)  # speed samples after the last operation
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    setup = [(end - start) * sampler.factor(start, end)
             for start, end in setups]
    metrics = declared(per_layer(run), "per_layer") if args.trace \
        else declared(end_to_end(run, setup), "end_to_end")
    if args.trace:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt",
                       encoding="utf-8") as out:
            for number, (_, spans, _) in enumerate(run.traced):
                for span in spans:
                    out.write(json.dumps([number, *span]) + "\n")
    detail = {
        "environment": environment(args),
        "reference_s": speed.REFERENCE_S,
        "speed_samples": len(sampler.samples),
        "setup_s": summary(setup),
        "setup_wall_s": summary([end - start for start, end in setups]),
        "pass_s": summary(run.pass_s()),
        "pass_wall_s": summary([sum(o.seconds for o in p)
                                for p in run.serial]),
        "pass_w2_s": summary(run.parallel_s()) if run.parallel else None,
        "op_s": {label: summary(s) for label, s in run.op_s().items()},
        "problems": run.problems[:50],
    }
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
