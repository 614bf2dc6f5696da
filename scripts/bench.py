#!/usr/bin/env python3
"""Stage benchmark of the geodesic pipeline and the classifiers, written to a BENCH json file.

    python3 scripts/bench.py --out BENCH.json
    python3 scripts/bench.py --src parent=OLD/src --src change=src --out BENCH.json

Each input is a fresh interpreter running one `geodesic_pipeline` call, as
`curvemedian distances` does, with perfbench's one-BLAS-thread environment
and the package imported from the given source tree.  The call and its
stages each record wall seconds and minor page faults (the change in
`ru_minflt`): `compute_emst`, `ball_radii`, `build_coverage_graph`, within
it the midpoint prefilter `_midpoint_far` and the coverage kernel
`_covered`, and `shortest_path_distances`.  A stage the given tree's
pipeline does not call is left out of its record and summary.  The run
also records the number of candidate chords the kernel decides and how
many of them it rejects, the kept edge count, and sha256 digests of the
kept (i, j, weight) rows and of d_hat, so that two trees can be checked
for identical output.  A second, untimed
call under tracemalloc records the pipeline's peak Python heap in units of
one n x n float64 matrix (8 n^2 bytes), the unit of the memory guard in
`geometry._PEAK_MATRICES`.  Every run is repeated
with MALLOC_MMAP_THRESHOLD_=131072, which pins glibc's mmap threshold at its
default so that allocations of 128 KiB or more are not served from a heap
the earlier frees have grown.
Sources alternate within each repeat, so a drift in host speed falls on
all of them alike.

Inputs: sim1 clouds (noise sd 0.1) and tsin shift panels (m=100, shifts
U(-2, 2)), all drawn with seed 1000, the seed of perfbench's first
cloud-dense input at benchmark seed 1.

The classification input `classify-N` runs `run_benchmark` on
configs/benchmark_2class.json with N training and 2N test curves per class
(the file's own sizes at N=50), once at each of the seeds 1500-1502, the
class seeds of perfbench's batch-small workload at benchmark seed 1.  It
times `extract_templates` and `predict_labels` per method, summed over the
seeds, and records sha256 digests of every prediction and confusion matrix.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1000
STAGES = (
    "geodesic_pipeline", "compute_emst", "ball_radii", "build_coverage_graph", "_midpoint_far", "_covered",
    "shortest_path_distances",
)
ENVIRONMENTS = {"default": {}, "mmap_threshold_131072": {"MALLOC_MMAP_THRESHOLD_": "131072"}}
CLASS_SEEDS = (1500, 1501, 1502)
# the stage whose wall time the progress line shows, per input kind
HEAD = {"sim1": STAGES[0], "tsin": STAGES[0], "classify": "run_benchmark"}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(kind: str, n: int) -> dict:
    """One pipeline call on a fresh input, run inside the child interpreter."""
    import curvemedian as cm
    from curvemedian import graphs

    if kind == "sim1":
        pts = cm.generate_sim1(cm.Sim1Config(n=n, noise_sd=0.1, seed=SEED))
    else:
        cfg = cm.ShiftConfig(target="tsin", n=n, m=100, shift_range=(-2.0, 2.0), seed=SEED)
        pts = cm.generate_shift_sample(cfg).values
    record, outputs = {}, {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            faults, start = minflt(), time.perf_counter()
            out = outputs[name] = fn(*args, **kwargs)
            record[name] = {"wall_s": time.perf_counter() - start, "minflt": minflt() - faults}
            return out

        return wrapper

    # graphs imported the two geometry helpers by name, so wrapping them in
    # its namespace times the calls build_coverage_graph makes
    originals = {name: getattr(graphs, name) for name in STAGES[1:]}
    for name, fn in originals.items():
        setattr(graphs, name, timed(name, fn))
    result = timed(STAGES[0], graphs.geodesic_pipeline)(pts)
    covered = outputs["_covered"]
    record["candidate_chords"] = int(covered.size)
    record["kernel_rejected"] = int(covered.size - covered.sum())
    edges = np.array(result.graph.edges, dtype=float).reshape(-1, 3)
    record["kept_edges"] = len(edges)
    record["edges_sha256"] = hashlib.sha256(edges.tobytes()).hexdigest()
    record["d_hat_sha256"] = hashlib.sha256(result.distances.tobytes()).hexdigest()

    # unwrapped again, so that the untimed call overwrites no stage record
    for name, fn in originals.items():
        setattr(graphs, name, fn)
    tracemalloc.start()
    graphs.geodesic_pipeline(pts)
    record["tracemalloc_peak_matrices"] = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    tracemalloc.stop()
    return record


def measure_classify(n: int) -> dict:
    """`run_benchmark` at each class seed, run inside the child interpreter."""
    import dataclasses

    import curvemedian as cm
    from curvemedian import benchmark, classify

    record, predictions, confusions = {}, [], []

    def timed(stage, fn, method_of=None):
        """fn, timed into record[stage], or record[stage[method]] per method."""

        def wrapper(*args, **kwargs):
            faults, start = minflt(), time.perf_counter()
            out = fn(*args, **kwargs)
            key = stage if method_of is None else f"{stage}[{method_of(*args, **kwargs)}]"
            entry = record.setdefault(key, {"wall_s": 0.0, "minflt": 0})
            entry["wall_s"] += time.perf_counter() - start
            entry["minflt"] += minflt() - faults
            return out

        return wrapper

    predict_labels = classify.predict_labels

    def predicted(*args, **kwargs):
        predictions.append(predict_labels(*args, **kwargs))
        return predictions[-1]

    # benchmark imported extract_templates by name; evaluate looks
    # predict_labels up in the classify namespace
    benchmark.extract_templates = timed(
        "extract_templates", benchmark.extract_templates, lambda train, method, **_: method
    )
    classify.predict_labels = timed("predict_labels", predicted, lambda c, *_: getattr(c, "method", "knn"))
    base = cm.load_benchmark_config(ROOT / "configs" / "benchmark_2class.json")
    for seed in CLASS_SEEDS:
        cfg = dataclasses.replace(base, seed=seed, n_train=n, n_test=2 * n)
        for method, res in timed("run_benchmark", cm.run_benchmark)(cfg).items():
            confusions.append([method, res["confusion"].labels, res["confusion"].counts.tolist()])
    for name, value in (("predictions", predictions), ("confusions", confusions)):
        record[f"{name}_sha256"] = hashlib.sha256(json.dumps(value).encode()).hexdigest()
    return record


def run_child(src: Path, kind: str, n: int, extra_env: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **extra_env)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, str(n)],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{kind} n={n} from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list) -> dict:
    """Per stage: median wall seconds and median minor faults over the runs;
    the tracemalloc peak's median; every other record as its one value, or
    the sorted distinct values if the runs disagree."""
    out = {}
    for key, value in runs[0].items():
        if isinstance(value, dict):
            if all(key in r for r in runs):
                out[key] = {
                    "wall_s_median": statistics.median(r[key]["wall_s"] for r in runs),
                    "minflt_median": statistics.median(r[key]["minflt"] for r in runs),
                }
        elif key == "tracemalloc_peak_matrices":
            out["tracemalloc_peak_matrices_median"] = statistics.median(r[key] for r in runs)
        else:
            values = {r[key] for r in runs}
            out[key] = values.pop() if len(values) == 1 else sorted(values)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", metavar="[LABEL=]DIR",
                    help="directory holding the curvemedian package (repeatable; default: this repo's src)")
    ap.add_argument("--sim1", type=int, nargs="*", default=[240, 600, 1200], help="sim1 cloud sizes")
    ap.add_argument("--tsin", type=int, nargs="*", default=[400], help="tsin panel sizes")
    ap.add_argument("--classify", type=int, nargs="*", default=[50],
                    help="training curves per class of the 2-class benchmark (twice as many test curves)")
    ap.add_argument("--repeats", type=int, default=3, help="fresh processes per input, source and environment")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    # perfbench's children run with this environment; the import stays out
    # of the measured child, as perfbench/run.py pulls in its scipy checks
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import BLAS_THREADS, BLAS_VARS

    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sources = {}
    for spec in args.src or [str(ROOT / "src")]:
        label, _, path = spec.rpartition("=")
        sources[label or "current"] = Path(path).resolve()
    inputs = [("sim1", n) for n in args.sim1] + [("tsin", n) for n in args.tsin]
    inputs += [("classify", n) for n in args.classify]
    runs = {label: {f"{k}-{n}": {e: [] for e in ENVIRONMENTS} for k, n in inputs} for label in sources}
    for rep in range(args.repeats):
        for kind, n in inputs:
            for env_name, extra_env in ENVIRONMENTS.items():
                order = list(sources.items())[:: -1 if rep % 2 else 1]
                for label, src in order:
                    record = run_child(src, kind, n, extra_env)
                    runs[label][f"{kind}-{n}"][env_name].append(record)
                    head = record[HEAD[kind]]
                    print(f"{label:>8} {kind}-{n:<5} {env_name:<22} "
                          f"{head['wall_s']:8.3f} s {head['minflt']:>9} faults", flush=True)

    report = {
        "environment": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": BLAS_THREADS,
            "repeats": args.repeats,
            "seed": SEED,
            "class_seeds": list(CLASS_SEEDS),
        },
        "summary": {
            label: {name: {e: summarize(r) for e, r in by_env.items()} for name, by_env in by_input.items()}
            for label, by_input in runs.items()
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        kind, n = sys.argv[2], int(sys.argv[3])
        print(json.dumps(measure_classify(n) if kind == "classify" else measure(kind, n)))
        sys.exit(0)
    sys.exit(main())
