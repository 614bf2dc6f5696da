#!/usr/bin/env python3
"""Benchmark of the curvemedian geodesic pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each exists):

  cloud-dense     `curvemedian distances` on sim1 parabola clouds, p=2
  panel-template  `curvemedian template` on tsin shift panels, p=100
  batch-small     one process streaming small shift panels and the bundled
                  2-class benchmark through the library API

Inputs come from --seed alone.  Each run times input generation (set-up),
makes one traced capture call per input whose outputs are checked against
scipy oracles, then repeats the operation for --seconds.  Every repeat must
reproduce the capture's output bytes exactly.  With --trace 1 each repeat is
a pair of untraced and traced calls, in alternating order, and the result
carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
is the full report: every end-to-end and quality metric, sample counts,
failures and provenance.  Spans and the report are also written under
perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import oploop
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "benchmark_2class.json"
WORK = HERE / "work"

# Children run with one BLAS thread: never more than nproc, and steadier on
# a shared machine than one thread per core.
BLAS_THREADS = 1
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_OPS = 3
# No operation starts after HARD_SECONDS, and a child still running at
# KILL_SECONDS (both from process start) is killed, so a run ends inside 180 s.
HARD_SECONDS = 130.0
KILL_SECONDS = 165.0

SIZES = {
    "full": {
        "cloud_n": 240,
        "panel_n": 240,
        "inputs": 3,
        "batch_n": list(range(3, 52, 2)),
        "class_seeds": 3,
        "class_overrides": {},
        "setup_reps": 11,
    },
    "smoke": {
        "cloud_n": 30,
        "panel_n": 25,
        "inputs": 2,
        "batch_n": [3, 5, 7, 9],
        "class_seeds": 1,
        "class_overrides": {"n_train": 8, "n_test": 10},
        "setup_reps": 2,
    },
}

END_TO_END = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {
    "wall_s": "s",
    "failed_ratio": "ratio",
    "rank_err": "rank",
    "dhat_rel_err": "ratio",
    "median_hit_rate": "ratio",
    "accuracy": "ratio",
}
PER_LAYER = {
    **{name: "s" for name in tracing.FUNCTION_TIMES},
    "panel_io.read_s": "s",
    "panel_io.write_s": "s",
    "panel_io.bytes_read": "B",
    "panel_io.bytes_written": "B",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.SELF_TIME_LAYERS},
    "models.simulate_s": "s",
    "trace.overhead_s": "s",
    "graphs.coverage_peak_mb": "MB",
    "graphs.apsp_peak_mb": "MB",
    "graphs.pairs": "count",
    "graphs.tree_edges": "count",
    "graphs.kept_edges": "count",
    "graphs.chord_keep_ratio": "ratio",
    "geometry.ball_tests": "count",
}

T_START = time.perf_counter()


def program_seed(seed: int, k: int) -> int:
    """Seed of the k-th generated input of a run."""
    return 1000 * seed + k


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_child(argv, log_path):
    """Run one child process to its end: (wall s, peak RSS MB, exit code)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(1.0, T_START + KILL_SECONDS - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def digest_dir(path: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.is_file()
    }


def read_points(path) -> np.ndarray:
    """Data rows of a cloud or panel CSV (a panel's label column dropped)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    first = 1 if header[0] == "t" else 0
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(first, len(header)))


def read_grid(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(v) for v in fh.readline().rstrip("\n").split(",")[1:]])


def read_edges(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 3)


# ------------------------------------------------------------ CLI workloads


def cloud_inputs(cm, seed, size):
    inputs = []
    for k in range(size["inputs"]):
        cfg = cm.Sim1Config(n=size["cloud_n"], noise_sd=0.1, seed=program_seed(seed, k))
        path = WORK / "inputs" / f"cloud{k}.csv"
        cm.write_cloud(path, cm.generate_sim1(cfg))
        inputs.append({"args": ["distances", "--input", str(path)], "input": path})
    return inputs


def panel_inputs(cm, seed, size):
    inputs = []
    for k in range(size["inputs"]):
        cfg = cm.ShiftConfig(
            target="tsin", n=size["panel_n"], m=100, shift_range=(-2.0, 2.0), seed=program_seed(seed, k)
        )
        panel = cm.generate_shift_sample(cfg)
        path = WORK / "inputs" / f"panel{k}.csv"
        truth = WORK / "inputs" / f"panel{k}.truth.csv"
        cm.write_panel(path, panel)
        cm.write_shifts(truth, panel.shifts)
        inputs.append({"args": ["template", "--input", str(path)], "input": path, "truth": truth})
    return inputs


def check_distances(cm, inp, outdir, capture):
    """Oracle checks on the files `distances` wrote; no shift truth here."""
    fails = checks.geodesic_failures(
        read_points(inp["input"]),
        np.loadtxt(outdir / "distances.csv", delimiter=",", ndmin=2),
        read_edges(outdir / "graph.csv"),
        read_edges(outdir / "graph.emst.csv"),
    )
    return fails, None


def check_template(cm, inp, outdir, capture):
    """`template` writes no distances, so d_hat comes from the capture call."""
    d_hat, graph, tree = capture["d0"], capture["g0"], capture["t0"]
    estimate = json.loads((outdir / "estimate.json").read_text(encoding="utf-8"))
    fails = checks.geodesic_failures(read_points(inp["input"]), d_hat, graph, tree)
    fails += checks.template_failures(d_hat, estimate["index"], estimate["objective"])
    shifts = np.loadtxt(inp["truth"], delimiter=",", skiprows=1, usecols=1, ndmin=1)
    exact = cm.exact_geodesic_matrix("tsin", read_grid(inp["input"]), shifts)
    return fails, (d_hat, exact, estimate["index"], shifts)


CLI_WORKLOADS = {
    "cloud-dense": (cloud_inputs, check_distances),
    "panel-template": (panel_inputs, check_template),
}


def cli_argv(args):
    # the same entry point the installed `curvemedian` script calls
    return [sys.executable, "-c", "from curvemedian.cli import entrypoint; entrypoint()", *args]


def traced_argv(args, spans, run_id, capture=None, memory=False):
    argv = [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(spans), "--run-id", run_id]
    if capture is not None:
        argv += ["--capture", str(capture)]
    if memory:
        argv.append("--memory")
    return argv + ["--", *args]


def run_cli_workload(cm, workload, seed, seconds, trace, size) -> dict:
    make_inputs, check = CLI_WORKLOADS[workload]
    (WORK / "inputs").mkdir(parents=True)
    logs = WORK / "logs"
    logs.mkdir()
    tracer = tracing.Tracer()
    setup_s = []
    for rep in range(size["setup_reps"]):
        tracer.run_id = f"setup-{rep}"
        if trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            inputs = make_inputs(cm, seed, size)
        finally:
            setup_s.append(time.perf_counter() - t0)
            tracer.uninstall()
    spans = list(tracer.spans)
    ops = []

    def call(k, run_id, traced, capture=False, slot=None):
        outdir = WORK / (f"capture{k}" if capture else "out")
        shutil.rmtree(outdir, ignore_errors=True)
        args = inputs[k]["args"] + ["--outdir", str(outdir)]
        span_file = WORK / f"{run_id}.spans.json"
        if traced:
            argv = traced_argv(
                args, span_file, run_id,
                capture=WORK / f"capture{k}.npz" if capture else None,
                memory=capture and bool(trace),
            )
        else:
            argv = cli_argv(args)
        wall, rss, code = run_child(argv, logs / f"{run_id}.log")
        op = {"run": run_id, "input": k, "slot": slot, "wall": wall, "rss_mb": rss,
              "traced": traced, "ok": code == 0}
        if traced and span_file.is_file():
            spans.extend(json.loads(span_file.read_text(encoding="utf-8")))
            span_file.unlink()
        if code != 0:
            op["error"] = f"{run_id}: exit code {code}, see {logs / (run_id + '.log')}"
        elif not capture:
            op["ok"] = digest_dir(outdir) == references[k]
            if not op["ok"]:
                op["error"] = f"{run_id}: outputs differ from capture-{k}"
        ops.append(op)
        return op

    # One traced call per input: its outputs are the reference every later
    # call must reproduce, and it doubles as warm-up.
    references = []
    for k in range(len(inputs)):
        op = call(k, f"capture-{k}", traced=True, capture=True)
        references.append(digest_dir(WORK / f"capture{k}") if op["ok"] else None)

    def run_op(slot):
        k = slot % len(inputs)
        # with tracing, alternate which call of the pair runs first
        order = (False, True)[::-1 if slot % 2 else 1] if trace else (False,)
        return sum(call(k, f"op-{len(ops)}", traced=t, slot=slot)["wall"] for t in order)

    refs = oploop.repeat_for(run_op, seconds, MIN_OPS, HARD_SECONDS - (time.perf_counter() - T_START))

    failures, quality_items = [], []
    for k, inp in enumerate(inputs):
        if references[k] is None:
            continue
        npz = WORK / f"capture{k}.npz"
        try:
            capture = {}
            if npz.is_file():
                with np.load(npz) as arrays:
                    capture = dict(arrays)
            fails, item = check(cm, inp, WORK / f"capture{k}", capture)
        except Exception as exc:  # unreadable outputs fail the check like wrong ones
            fails, item = [f"check raised {exc!r}"], None
        if fails:
            failures += [f"input {k}: {msg}" for msg in fails]
            for op in ops:
                if op["input"] == k:
                    op["ok"] = False
        if item is not None:
            quality_items.append(item)
    quality = checks.shift_quality(quality_items) if quality_items else {}
    return {"setup_s": setup_s, "ops": ops, "refs": refs, "spans": spans, "failures": failures,
            "quality": quality}


# -------------------------------------------------------------- batch-small


def run_batch_workload(cm, workload, seed, seconds, trace, size) -> dict:
    base = cm.load_benchmark_config(CONFIG)
    spec = {
        "trace": trace,
        "seconds": seconds,
        "min_ops": MIN_OPS,
        "hard_seconds": HARD_SECONDS - (time.perf_counter() - T_START),
        "m": 100,
        "shift_range": [-2.0, 2.0],
        "panel_n": size["batch_n"],
        "panel_seeds": [program_seed(seed, k) for k in range(len(size["batch_n"]))],
        "config": str(CONFIG),
        "class_seeds": [program_seed(seed, 500 + k) for k in range(size["class_seeds"])],
        "class_overrides": size["class_overrides"],
        "setup_reps": size["setup_reps"],
    }
    spec_path = WORK / "batch_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(HERE / "batch_stream.py"), str(spec_path), str(WORK)]
    wall, rss, code = run_child(argv, WORK / "batch.log")
    result_path = WORK / "result.json"
    if code != 0 or not result_path.is_file():
        return {"setup_s": [], "ops": [{"run": "batch", "wall": wall, "ok": False, "traced": False}],
                "refs": [], "spans": [], "failures": [f"batch worker: exit code {code}, see {WORK / 'batch.log'}"],
                "quality": {}}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    ops = [{"run": "capture", "wall": result["capture_s"], "traced": True, "ok": True}] + result["ops"]
    for op in ops:
        op["rss_mb"] = rss
    n_test = size["class_overrides"].get("n_test", base.n_test)
    try:
        with np.load(WORK / "capture.npz") as capture:
            failures, quality = check_batch(cm, capture, len(spec["panel_n"]), n_test)
    except Exception as exc:  # unreadable outputs fail the check like wrong ones
        failures, quality = [f"batch check raised {exc!r}"], {}
    if failures:
        for op in ops:
            op["ok"] = False
    failures += [f"batch worker: {err}" for err in result["errors"]]
    return {"setup_s": result["setup_s"], "ops": ops, "refs": result["refs"], "spans": result["spans"],
            "failures": failures, "quality": quality}


def check_batch(cm, capture, n_panels, n_test):
    """Oracle checks and quality over the batch worker's capture pass."""
    failures, items = [], []
    for k in range(n_panels):
        d_hat, index = capture[f"d{k}"], int(capture["index"][k])
        fails = checks.geodesic_failures(capture[f"x{k}"], d_hat, capture[f"g{k}"], capture[f"t{k}"])
        fails += checks.template_failures(d_hat, index, float(capture["objective"][k]))
        failures += [f"panel {k}: {msg}" for msg in fails]
        exact = cm.exact_geodesic_matrix("tsin", capture[f"grid{k}"], capture[f"s{k}"])
        items.append((d_hat, exact, index, capture[f"s{k}"]))
    for c, (accs, confusions) in enumerate(zip(capture["accuracy"], capture["confusion"])):
        for acc, counts in zip(accs, confusions):
            if np.any(counts.sum(axis=1) != n_test):
                failures.append(f"2-class run {c}: confusion rows do not sum to n_test={n_test}")
            if acc != np.trace(counts) / counts.sum():
                failures.append(f"2-class run {c}: accuracy {acc!r} disagrees with its confusion")
    quality = checks.shift_quality(items)
    quality["accuracy"] = float(np.mean(capture["accuracy"][:, 0]))  # manifold method
    return failures, quality


# ------------------------------------------------------------------ results


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def group_spans(spans) -> dict:
    runs = {}
    for s in spans:
        runs.setdefault(s["run"], []).append(s)
    return runs


def per_layer_metrics(run, timed_untraced, timed_traced) -> dict:
    runs = group_spans(run["spans"])
    per_op = [tracing.layer_metrics(runs.get(op["run"], []), op["wall"]) for op in timed_traced]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["models.simulate_s"] = statistics.median(
        tracing.covered_time(spans, lambda s: tracing.layer_of(s["name"]) == "models")
        for run_id, spans in runs.items()
        if run_id.startswith("setup-")
    )
    out["trace.overhead_s"] = statistics.median(op["wall"] for op in timed_traced) - statistics.median(
        op["wall"] for op in timed_untraced
    )
    capture_spans = [s for run_id, spans in runs.items() if run_id.startswith("capture") for s in spans]
    out.update(tracing.pipeline_counts(capture_spans))
    out.update(tracing.memory_peaks(capture_spans))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*CLI_WORKLOADS, "batch-small"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="input sizes; 'smoke' is for the self-test only")
    args = ap.parse_args(argv)

    missing = [str(p) for p in (SRC / "curvemedian" / "__init__.py", CONFIG) if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvemedian as cm

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    size = SIZES[args.scale]
    runner = run_batch_workload if args.workload == "batch-small" else run_cli_workload
    run = runner(cm, args.workload, args.seed, args.seconds, args.trace, size)

    ops = run["ops"]
    failed = sum(not op["ok"] for op in ops)
    timed = [op for op in ops if op["ok"] and op["run"].startswith("op-")]
    untraced = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    if not untraced or not run["setup_s"] or (args.trace and not traced):
        for msg in run["failures"] + [op["error"] for op in ops if "error" in op]:
            print(f"perfbench: {msg}", file=sys.stderr)
        print("perfbench: no operation succeeded; nothing to report", file=sys.stderr)
        return 1

    relative = oploop.relative_walls(untraced, run["refs"])
    end_to_end = {
        "wall_rel": statistics.median(relative),
        "wall_s": statistics.median(op["wall"] for op in untraced),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in untraced),
        "failed_ratio": failed / len(ops),
    }
    end_to_end.update({name: run["quality"].get(name) for name in checks.QUALITY})
    report = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "end_to_end": {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in {**END_TO_END, **REPORTED}.items()
        },
        "samples": {
            "wall_s": summarize([op["wall"] for op in untraced]),
            "wall_rel": summarize(relative),
            "reference_s": summarize(run["refs"]),
            "setup_s": summarize(run["setup_s"]),
        },
        "attempted": len(ops),
        "failed": failed,
        "failures": run["failures"] + [op["error"] for op in ops if "error" in op],
    }
    if args.trace:
        layers = per_layer_metrics(run, untraced, traced)
        report["per_layer"] = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        metrics = report["per_layer"]
    else:
        metrics = {name: report["end_to_end"][name] for name in END_TO_END}

    (WORK / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    with open(WORK / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in run["spans"]:
            fh.write(json.dumps(span) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
