"""Span tracing of the `toricfano` modules, installed from outside.

`install` replaces every binding of every public module-level function of
the traced layers with a wrapper that records a span: layer, function,
start, end, parent span and operation id. Bindings in every `toricfano`
module are replaced, so calls through imported names (`cli.validate`) are
seen as well as calls inside a module. No source file changes; `uninstall`
puts the originals back. Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from math import comb
from typing import Callable, NamedTuple

LAYERS = ("cli", "io", "fan", "primitive", "invariants", "fvector", "lattice")


class Span(NamedTuple):
    span_id: int
    parent: int  # -1 for a span no other span encloses
    op: int
    layer: str
    func: str
    start: float
    end: float
    self_s: float  # duration minus the durations of the child spans


def _facet_subsets(args, kwargs, result) -> dict:
    header = args[0].split("POLY", 1)[1].split()
    n, m = int(header[0]), int(header[1])
    return {"io.facet_subsets": comb(m, n), "io.facets": len(result.max_cones)}


def _candidates(args, kwargs, result) -> dict:
    fan = args[0]
    m = len(fan.rays)
    sizes = range(2, min(m, fan.dim + 1) + 1)
    return {"primitive.candidates": sum(comb(m, k) for k in sizes),
            "primitive.collections": len(result)}


# Work counts derived from a call's arguments and result, after it returns.
PROBES: dict[tuple[str, str], Callable] = {
    ("io", "parse_polytope_as_face_fan"): _facet_subsets,
    ("io", "render_report"):
        lambda a, k, r: {"io.report_bytes": len(r.encode("utf-8"))},
    ("fan", "validate"):
        lambda a, k, r: {"fan.cones_checked": len(a[0].max_cones)},
    ("primitive", "primitive_collections"): _candidates,
    ("invariants", "wall_curves"):
        lambda a, k, r: {"invariants.walls": len(r)},
    ("fvector", "f_vector"): lambda a, k, r: {"fvector.faces": sum(r.f)},
}


class Tracer:
    """Records spans and probe counts for the calls it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def call(self, layer: str, func: str, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append(Span(sid, parent, self.op, layer, func, start,
                                   end, duration - frame[1]))
        probe = PROBES.get((layer, func))
        if probe is not None:
            self.counts.update(probe(args, kwargs, result))
        return result

    def wrap(self, layer: str, func: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, func, fn, args, kwargs)
        return wrapper

    def install(self, package: str = "toricfano") -> None:
        """Wrap every public function of the traced layers in every module
        of `package` that binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start anew."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


# Per-layer timings: metric name -> (layer, functions) whose self times sum.
SELF_TIMES = {
    "lattice.solve_s": ("lattice", ("solve_in_basis",)),
    "lattice.kernel_s": ("lattice", ("integer_kernel",)),
    "io.parse_s": ("io", ("parse_fan_unchecked", "parse_fan")),
    "io.face_fan_s": ("io", ("parse_polytope_as_face_fan",)),
    "io.render_s": ("io", ("render_report", "emit_report")),
    "fan.validate_s": ("fan", ("validate",)),
    "fan.faces_s": ("fan", ("faces",)),
    "primitive.collections_s": ("primitive", ("primitive_collections",)),
    "primitive.relations_s": ("primitive", ("all_relations",
                                            "primitive_relation",
                                            "degrees_summary")),
    "invariants.walls_s": ("invariants", ("wall_curves",)),
    "invariants.is_fano_s": ("invariants", ("is_fano",)),
    "invariants.pseudo_index_s": ("invariants", ("pseudo_index",)),
    "invariants.product_s": ("invariants", ("product_of_projective_spaces",)),
    "invariants.mukai_s": ("invariants", ("mukai_check",)),
    "fvector.f_vector_s": ("fvector", ("f_vector",)),
    "fvector.cross_check_s": ("fvector", ("closed_form_cross_check",)),
    "fvector.engine_s": ("fvector", ("ds_tail_from_prefix",)),
    "fvector.bound_s": ("fvector", ("max_rho_bound", "corollary_bound_table",
                                    "psi_k")),
}

# Per-layer call counts: metric name -> (layer, function).
CALLS = {
    "lattice.solve_calls": ("lattice", "solve_in_basis"),
    "lattice.kernel_calls": ("lattice", "integer_kernel"),
    "lattice.det_calls": ("lattice", "determinant"),
    "lattice.rank_calls": ("lattice", "matrix_rank"),
    "fan.validate_calls": ("fan", "validate"),
    "primitive.collections_calls": ("primitive", "primitive_collections"),
    "primitive.relations_calls": ("primitive", "all_relations"),
    "invariants.wall_curves_calls": ("invariants", "wall_curves"),
    "invariants.is_fano_calls": ("invariants", "is_fano"),
    "fvector.engine_calls": ("fvector", "ds_tail_from_prefix"),
}

COUNTS = ("io.facet_subsets", "io.report_bytes", "fan.cones_checked",
          "primitive.candidates", "invariants.walls", "fvector.faces")


def layer_metrics(spans: list[Span], counts: Counter, op_s: list[float],
                  factors: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose operations took `op_s`
    wall-clock seconds; a span of operation i is scaled by `factors[i]`.

    Each layer's `self_s` sums the self times of its spans, so the layer
    totals and `trace.unattributed_s` (time of an operation inside no span:
    the benchmark's own call and output capture) add up to `trace.pass_s`.
    """
    self_by_func: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        self_by_func[s.layer, s.func] += s.self_s * factors[s.op]
        calls[s.layer, s.func] += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for (lay, _), v in self_by_func.items()
                                     if lay == layer)
    for metric, (layer, funcs) in SELF_TIMES.items():
        out[metric] = sum(self_by_func[layer, f] for f in funcs)
    for metric, key in CALLS.items():
        out[metric] = calls[key]
    for metric in COUNTS:
        out[metric] = counts[metric]
    subsets = counts["io.facet_subsets"]
    out["io.facet_hit_ratio"] = (counts["io.facets"] / subsets
                                 if subsets else 0.0)
    candidates = counts["primitive.candidates"]
    out["primitive.hit_ratio"] = (counts["primitive.collections"] / candidates
                                  if candidates else 0.0)
    out["trace.pass_s"] = sum(t * f for t, f in zip(op_s, factors))
    out["trace.unattributed_s"] = out["trace.pass_s"] - sum(
        out[f"{layer}.self_s"] for layer in LAYERS)
    return out
