"""The batch-small workload: one in-process stream through the library API.

    python3 perfbench/batch_stream.py SPEC.json OUTDIR

Needs ``src`` on PYTHONPATH.  SPEC.json (written by run.py) fixes the
inputs.  The worker times input generation as set-up, runs one traced
capture pass whose outputs the parent checks, then repeats the stream until
the time is up, alternating untraced and traced passes with --trace 1.
Every pass must reproduce the capture's outputs exactly.  Results go to
OUTDIR/result.json and OUTDIR/capture.npz.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import curvemedian as cm
import oploop
import tracing

METHODS = ("manifold", "mean", "medoid", "knn")


def make_inputs(spec):
    panels = [
        cm.generate_shift_sample(
            cm.ShiftConfig(
                target="tsin", n=n, m=spec["m"], shift_range=tuple(spec["shift_range"]), seed=seed
            )
        )
        for n, seed in zip(spec["panel_n"], spec["panel_seeds"])
    ]
    base = cm.load_benchmark_config(spec["config"])
    configs = [
        dataclasses.replace(base, seed=seed, **spec["class_overrides"])
        for seed in spec["class_seeds"]
    ]
    return panels, configs


def stream(panels, configs):
    estimates = []
    for panel in panels:
        result = cm.geodesic_pipeline(panel.values)
        estimates.append((result, cm.intrinsic_estimate(result.distances)))
    runs = [cm.run_benchmark(cfg, methods=METHODS) for cfg in configs]
    return estimates, runs


def _edges(graph) -> np.ndarray:
    return np.asarray(graph.edges, dtype=float).reshape(-1, 3)


def digest(estimates, runs) -> str:
    h = hashlib.sha256()
    for result, est in estimates:
        for arr in (result.distances, _edges(result.graph), _edges(result.tree)):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((est.index, est.objective)).encode())
    for run in runs:
        for method in METHODS:
            h.update(repr(run[method]["accuracy"]).encode())
            h.update(np.asarray(run[method]["confusion"].counts).tobytes())
    return h.hexdigest()


def save_capture(path, panels, estimates, runs) -> None:
    arrays = {}
    for k, (panel, (result, est)) in enumerate(zip(panels, estimates)):
        arrays[f"x{k}"] = panel.values
        arrays[f"grid{k}"] = panel.grid
        arrays[f"s{k}"] = panel.shifts
        arrays[f"d{k}"] = result.distances
        arrays[f"g{k}"] = _edges(result.graph)
        arrays[f"t{k}"] = _edges(result.tree)
    arrays["index"] = np.array([est.index for _, est in estimates])
    arrays["objective"] = np.array([est.objective for _, est in estimates])
    arrays["accuracy"] = np.array([[run[m]["accuracy"] for m in METHODS] for run in runs])
    arrays["confusion"] = np.array([[run[m]["confusion"].counts for m in METHODS] for run in runs])
    np.savez(path, **arrays)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out = Path(argv[1])
    trace = bool(spec["trace"])
    tracer = tracing.Tracer()
    result = {"setup_s": [], "ops": [], "errors": []}

    for rep in range(spec["setup_reps"]):
        tracer.run_id = f"setup-{rep}"
        if trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            panels, configs = make_inputs(spec)
        finally:
            result["setup_s"].append(time.perf_counter() - t0)
            tracer.uninstall()

    capture = tracing.Tracer(memory=trace)
    capture.run_id = "capture"
    capture.install()
    t0 = time.perf_counter()
    try:
        estimates, runs = stream(panels, configs)
    finally:
        result["capture_s"] = time.perf_counter() - t0
        capture.uninstall()
    reference = digest(estimates, runs)
    save_capture(out / "capture.npz", panels, estimates, runs)

    def one_pass(slot: int, traced: bool) -> float:
        tracer.run_id = f"op-{len(result['ops'])}"
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        outputs = None
        try:
            outputs = stream(panels, configs)
        except Exception:
            result["errors"].append(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        ok = outputs is not None and digest(*outputs) == reference
        result["ops"].append(
            {"run": tracer.run_id, "slot": slot, "wall": wall, "traced": traced, "ok": ok}
        )
        return wall

    def run_op(slot: int) -> float:
        # with tracing, alternate which pass of the pair runs first
        order = (False, True)[::-1 if slot % 2 else 1] if trace else (False,)
        return sum(one_pass(slot, traced) for traced in order)

    result["refs"] = oploop.repeat_for(run_op, spec["seconds"], spec["min_ops"], spec["hard_seconds"])
    result["spans"] = tracer.spans + capture.spans
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
