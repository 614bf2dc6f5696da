"""Spans around calls into curvemedian's public functions.

A `Tracer` replaces every public function of the package's modules with a
wrapper that records one span per call: name (``layer.function``), start,
end, parent span and run id.  Spans stay in memory; the caller writes them
out when its run ends.  Nothing inside the program is changed: the wrappers
are installed from here by rebinding module attributes, so calls made
through ``from .graphs import geodesic_pipeline`` style imports are seen
too.

`layer_metrics` turns the spans of one traced operation into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "panel_io", "models", "graphs", "geometry", "stats", "classify", "benchmark")

# Called once per value, pair or grid point: a span there would cost more
# than the work it times.  geometry is measured by a computed count instead.
PER_ELEMENT = {"panel_io.fmt", "geometry.euclidean_distance", "models.get_target"}

# Functions whose peak Python heap is measured with tracemalloc (memory mode).
MEMORY = {"graphs.build_coverage_graph", "graphs.shortest_path_distances"}

# metric name -> the functions whose outermost spans it sums
FUNCTION_TIMES = {
    "graphs.complete_s": ("graphs.build_complete_graph",),
    "graphs.emst_s": ("graphs.compute_emst",),
    "graphs.radii_s": ("graphs.ball_radii",),
    "graphs.coverage_s": ("graphs.build_coverage_graph",),
    "graphs.apsp_s": ("graphs.shortest_path_distances",),
    "graphs.diagnostics_s": ("graphs.pipeline_diagnostics",),
    "stats.estimate_s": ("stats.intrinsic_estimate",),
    "stats.medoid_s": ("stats.pairwise_euclidean_matrix", "stats.euclidean_medoid"),
    "classify.extract_s": ("classify.extract_templates",),
    "classify.predict_s": ("classify.predict_labels",),
}
SELF_TIME_LAYERS = ("graphs", "classify", "benchmark")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _is_io(name: str, prefix: str) -> bool:
    return layer_of(name) == "panel_io" and name.split(".", 1)[1].startswith(prefix)


class Tracer:
    """Records spans while installed.

    memory: measure the tracemalloc peak of each call in `MEMORY`.
    keep:   qualified names whose return values are kept in `kept`.
    """

    def __init__(self, memory: bool = False, keep=()):
        self.memory = memory
        self.keep = set(keep)
        self.kept = defaultdict(list)
        self.spans = []
        self.run_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def install(self) -> None:
        modules = [importlib.import_module("curvemedian")]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"curvemedian.{layer}")
            modules.append(module)
            for name, obj in vars(module).items():
                qualname = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or qualname in PER_ELEMENT
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        measure = self.memory and qualname in MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": self._next_id,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "name": qualname,
            }
            self._next_id += 1
            self._stack.append(span["id"])
            if measure:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self.spans.append(span)
            _count(span, args, kwargs, result)
            if qualname in self.keep:
                self.kept[qualname].append(result)
            return result

        return traced


def _count(span, args, kwargs, result) -> None:
    """Counts recorded at the span's boundary."""
    name = span["name"]
    if name == "graphs.geodesic_pipeline":
        tree, graph, distances = result
        span["counts"] = {
            "n": len(distances),
            "tree_edges": len(tree.edges),
            "kept_edges": len(graph.edges),
        }
    elif _is_io(name, "read_") or _is_io(name, "write_"):
        path = args[0] if args else kwargs.get("path")
        if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
            span["bytes"] = os.path.getsize(path)


def _outermost(spans, pred):
    """Spans matching `pred` none of whose ancestors match it."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not pred(s):
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and not pred(parent):
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def _duration(span) -> float:
    return span["end"] - span["start"]


def covered_time(spans, pred) -> float:
    """Wall time covered by the outermost spans matching `pred`."""
    return sum((_duration(s) for s in _outermost(spans, pred)), 0.0)


def self_times(spans) -> dict:
    """Per layer: span durations minus the part their child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _duration(s)
    out = defaultdict(float)
    for s in spans:
        out[layer_of(s["name"])] += _duration(s) - child[s["id"]]
    return out


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer timings and I/O volume of one traced operation.

    `wall` is the operation's own wall time; for a CLI call it includes
    interpreter start and imports, which end up in ``cli.self_s``.
    """
    out = {
        metric: covered_time(spans, lambda s, names=names: s["name"] in names)
        for metric, names in FUNCTION_TIMES.items()
    }
    reads = _outermost(spans, lambda s: _is_io(s["name"], "read_"))
    writes = _outermost(spans, lambda s: _is_io(s["name"], "write_"))
    out["panel_io.read_s"] = sum((_duration(s) for s in reads), 0.0)
    out["panel_io.write_s"] = sum((_duration(s) for s in writes), 0.0)
    out["panel_io.bytes_read"] = sum(s.get("bytes", 0) for s in reads)
    out["panel_io.bytes_written"] = sum(s.get("bytes", 0) for s in writes)
    out["cli.self_s"] = wall - covered_time(spans, lambda s: layer_of(s["name"]) != "cli")
    selfs = self_times(spans)
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def pipeline_counts(spans) -> dict:
    """Deterministic work counts, summed over every geodesic_pipeline call.

    ball_tests is computed, not observed: each candidate chord (a pair that
    is not a tree edge) is tested against all n balls.
    """
    pairs = tree = kept = tests = 0
    for s in spans:
        c = s.get("counts")
        if c is None:
            continue
        n = c["n"]
        p = n * (n - 1) // 2
        pairs += p
        tree += c["tree_edges"]
        kept += c["kept_edges"]
        tests += (p - c["tree_edges"]) * n
    candidates = pairs - tree
    return {
        "graphs.pairs": pairs,
        "graphs.tree_edges": tree,
        "graphs.kept_edges": kept,
        "graphs.chord_keep_ratio": (kept - tree) / candidates if candidates else 0.0,
        "geometry.ball_tests": tests,
    }


def memory_peaks(spans) -> dict:
    """Largest tracemalloc peak, in MB, of the coverage and shortest-path calls."""
    peak = {name: 0 for name in MEMORY}
    for s in spans:
        if "peak_bytes" in s:
            peak[s["name"]] = max(peak[s["name"]], s["peak_bytes"])
    return {
        "graphs.coverage_peak_mb": peak["graphs.build_coverage_graph"] / 2**20,
        "graphs.apsp_peak_mb": peak["graphs.shortest_path_distances"] / 2**20,
    }
