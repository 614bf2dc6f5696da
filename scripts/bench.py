#!/usr/bin/env python3
"""Stage benchmark of the geodesic pipeline and the classifiers, written to a BENCH json file.

    python3 scripts/bench.py --out BENCH.json
    python3 scripts/bench.py --src parent=OLD/src --src change=src --out BENCH.json
    python3 scripts/bench.py --cap default none 4 3 2 1.5 --quality --out BENCH.json

Each input is a fresh interpreter running one `geodesic_pipeline` call, as
`curvemedian distances` does, with perfbench's one-BLAS-thread environment
and the package imported from the given source tree.  The call and its
stages each record wall seconds, minor page faults (the change in
`ru_minflt`) and calls, each summed over the stage's calls:
`_pairwise_distances` (the n x n distance matrix, built once per call
and passed to the tree and coverage stages), `compute_emst`, `ball_radii`,
`build_coverage_graph`, within it the midpoint prefilter `_midpoint_far`
and the coverage kernel `_covered`, and `shortest_path_distances`.  A
stage the given tree's pipeline does not call is left out of its record
and summary: with a chord cap the prefilter is skipped.  The run
also records the number of candidate chords the kernel decides and how
many of them it rejects, the kept edge count, and sha256 digests of the
kept (i, j, weight) rows and of d_hat, so that two trees can be checked
for identical output.  Where they differ, `d_hat_max_rel_diff` says by
how much: for each source after the first and each pipeline input, the
largest |d - d0| / d0 over the entries of its d_hat d and the first
source's d0 (inf where d0 is 0 and d is not), from each source's first
run.  A second, untimed
call under tracemalloc records the pipeline's peak Python heap in units of
one n x n float64 matrix (8 n^2 bytes), the unit of the memory guard in
`geometry._PEAK_MATRICES`.  Every run is repeated
with MALLOC_MMAP_THRESHOLD_=131072, which pins glibc's mmap threshold at its
default so that allocations of 128 KiB or more are not served from a heap
the earlier frees have grown.
Sources alternate within each repeat, so a drift in host speed falls on
all of them alike.

Each input runs once per `--cap` value: `default` calls the pipeline
without a cap argument, as the CLI does without --cap; `none` (the
uncapped rule) and numbers pass `cap=`.  Inputs under a cap value are named
`INPUT cap=VALUE`; under `default` they keep their plain name.

`--quality` adds, per source and cap value, one fresh interpreter that
measures how well the estimate recovers known truth:
- criterion 2 of the acceptance tests on its seeded tsin shift panels: how
  often the graph estimate picks the median-shift curve exactly and within
  one shift rank, and the median relative error of d_hat against
  `exact_geodesic_matrix` over every pair of every panel;
- the sim1 endpoint distance d_hat[0, n-1] against the parabola's arc
  length: its relative error on the clean cloud, and its signed and
  absolute mean relative error at noise sd 0.05, 0.1 and 0.2 over seeds
  0..S-1 (n=300, S=30 by default);
- criterion 7's manifold-template accuracy on configs/benchmark_2class.json.

Inputs: sim1 clouds (noise sd 0.1) and tsin shift panels (m=100, shifts
U(-2, 2)), all drawn with seed 1000, the seed of perfbench's first
cloud-dense input at benchmark seed 1.

The CLI inputs run `curvemedian.cli` in a bare interpreter, one fresh
process per run: `cli-import` only imports it, `cli-distances-240` runs
`distances` on the sim1 n=240 cloud (noise sd 0.1, seed 1000),
`cli-template-240` runs `template` on the tsin n=240 panel (seed 1000) and
`cli-simulate-240` runs `simulate --model shift --n 240 --m 100 --seed 1000`,
which writes a panel and its shifts.  The two input files are written once
per bench run, by the first source.
Each run records the whole process (`process`: interpreter start to exit,
as perfbench times a CLI call), `import curvemedian.cli` (`import`) and the
command (`main`), each with its wall seconds and minor faults; the
curvemedian modules loaded at exit; and one `sha256[FILE]` per output
file.  `environment.dont_write_bytecode` says whether PYTHONDONTWRITEBYTECODE
was set: without it, later runs load cached bytecode instead of compiling.
`compile_s` gives, per source, the `compile()` seconds (best of 20, the
sources alternating) of each curvemedian module a CLI input loaded, and per
CLI input the sum over the modules it loaded.

The classification input `classify-N` runs `run_benchmark` on
configs/benchmark_2class.json with N training and 2N test curves per class
(the file's own sizes at N=50), once at each of the seeds 1500-1502, the
class seeds of perfbench's batch-small workload at benchmark seed 1.  It
times `extract_templates` and `predict_labels` per method, summed over the
seeds (a prediction under the method of the `extract_templates` call that
built its classifier, else `knn`), and records sha256 digests of every prediction and confusion matrix.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1000
STAGES = (
    "geodesic_pipeline", "_pairwise_distances", "compute_emst", "ball_radii", "build_coverage_graph",
    "_midpoint_far", "_covered", "shortest_path_distances",
)
ENVIRONMENTS = {"default": {}, "mmap_threshold_131072": {"MALLOC_MMAP_THRESHOLD_": "131072"}}
CLASS_SEEDS = (1500, 1501, 1502)
COMPILE_REPEATS = 20
# the stage whose wall time the progress line shows, per input kind
HEAD = {"sim1": STAGES[0], "tsin": STAGES[0], "classify": "run_benchmark", "cli": "process"}
# CLI input -> its command line, with INPUT standing for the input directory
# and OUTPUT for the output directory
CLI_RUNS = {
    "cli-import": None,
    "cli-distances-240": ["distances", "--input", "INPUT/sim1-240.csv", "--outdir", "OUTPUT"],
    "cli-template-240": ["template", "--input", "INPUT/tsin-240.csv", "--outdir", "OUTPUT"],
    "cli-simulate-240": ["simulate", "--model", "shift", "--n", "240", "--m", "100", "--seed", str(SEED),
                         "--out", "OUTPUT/shift"],
}
# The CLI child runs in a bare interpreter, not as bench.py, which imports
# numpy: that would take numpy's share out of the import time.  It reads
# argv [outdir, command...], records a digest of every file the command
# wrote into outdir and prints its record as its last line.
CLI_CHILD = """\
import resource, sys, time
def mark():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
def since(start):
    now = mark()
    return {"wall_s": now[0] - start[0], "minflt": now[1] - start[1]}
start = mark()
import curvemedian.cli
record = {"import": since(start)}
outdir, argv = sys.argv[1], sys.argv[2:]
if argv:
    start = mark()
    code = curvemedian.cli.main(argv)
    record["main"] = since(start)
    if code:
        sys.exit(f"exit code {code}")
import hashlib, json, os
record["modules"] = sorted(m for m in sys.modules if m.partition(".")[0] == "curvemedian")
for name in sorted(os.listdir(outdir)):
    with open(os.path.join(outdir, name), "rb") as fh:
        record[f"sha256[{name}]"] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(record))
"""
# noise sds of the sim1 endpoint errors in quality mode, and the arc length
# of y = 2 x^2 over [-1, 1], from the clean cloud's first to its last point
ENDPOINT_SDS = (0.05, 0.1, 0.2)
ARC_LENGTH = math.sqrt(17.0) + math.asinh(4.0) / 4.0


def minflt(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_minflt


def cap_kwargs(cap: str) -> dict:
    """Keyword arguments of the pipeline for a --cap value."""
    return {} if cap == "default" else {"cap": None if cap == "none" else float(cap)}


def criterion_2_instances(count: int):
    """The first `count` of the acceptance tests' criterion-2 instances, as
    (panel, index of the median-shift curve) pairs: odd n in 3..51, m=100
    on [-10, 10], shifts U(-2, 2), one generator seeded 20260819."""
    import curvemedian as cm

    rng = np.random.default_rng(20260819)
    instances = []
    for _ in range(count):
        n = int(rng.choice(np.arange(3, 52, 2)))
        shifts = rng.uniform(-2.0, 2.0, n)
        panel = cm.generate_shift_sample(cm.ShiftConfig(target="tsin", m=100, t_range=(-10.0, 10.0), shifts=shifts))
        instances.append((panel, int(np.argsort(shifts, kind="stable")[(n - 1) // 2])))
    return instances


def measure_quality(cap: str, panels: int, endpoint_n: int, endpoint_seeds: int) -> dict:
    """The quality measures of one cap value, run inside the child interpreter."""
    import curvemedian as cm

    kwargs = cap_kwargs(cap)
    exact = within_one = 0
    rel = []
    for panel, median_idx in criterion_2_instances(panels):
        d_hat = cm.geodesic_pipeline(panel.values, **kwargs).distances
        index = cm.intrinsic_estimate(d_hat).index
        ranks = np.argsort(np.argsort(panel.shifts, kind="stable"), kind="stable")
        exact += index == median_idx
        within_one += abs(int(ranks[index]) - int(ranks[median_idx])) <= 1
        truth = cm.exact_geodesic_matrix("tsin", panel.grid, panel.shifts)
        iu = np.triu_indices(len(d_hat), 1)
        rel.append(np.abs(d_hat[iu] - truth[iu]) / truth[iu])
    record = {
        "criterion_2_panels": panels,
        "criterion_2_exact": exact,
        "criterion_2_within_one": within_one,
        "tsin_dhat_rel_err_median": float(np.median(np.concatenate(rel))),
    }

    def endpoint_err(sd, seed):
        pts = cm.generate_sim1(cm.Sim1Config(n=endpoint_n, noise_sd=sd, seed=seed))
        return (float(cm.geodesic_pipeline(pts, **kwargs).distances[0, -1]) - ARC_LENGTH) / ARC_LENGTH

    record["sim1_endpoint"] = {"n": endpoint_n, "seeds": endpoint_seeds, "clean_rel_err": endpoint_err(0.0, 0)}
    for sd in ENDPOINT_SDS:
        errs = [endpoint_err(sd, seed) for seed in range(endpoint_seeds)]
        record["sim1_endpoint"][f"sd_{sd}"] = {
            "signed_rel_err_mean": statistics.fmean(errs),
            "abs_rel_err_mean": statistics.fmean(abs(e) for e in errs),
        }
    config = cm.load_benchmark_config(ROOT / "configs" / "benchmark_2class.json")
    train, test = cm.generate_benchmark(config)
    templates = cm.extract_templates(train, "manifold", **kwargs)
    record["criterion_7_accuracy"] = cm.evaluate(templates, test, truncate_at=config.truncate_at).accuracy()
    return record


def measure(kind: str, n: int, cap: str, d_hat_file: str = "") -> dict:
    """One pipeline call on a fresh input, run inside the child interpreter;
    its d_hat is saved to `d_hat_file` when one is given."""
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
            entry = record.setdefault(name, {"wall_s": 0.0, "minflt": 0, "calls": 0})
            entry["wall_s"] += time.perf_counter() - start
            entry["minflt"] += minflt() - faults
            entry["calls"] += 1
            return out

        return wrapper

    # graphs imported the geometry helpers by name, so wrapping them in its
    # namespace times the calls its stages make
    originals = {name: getattr(graphs, name) for name in STAGES[1:]}
    for name, fn in originals.items():
        setattr(graphs, name, timed(name, fn))
    result = timed(STAGES[0], graphs.geodesic_pipeline)(pts, **cap_kwargs(cap))
    covered = outputs["_covered"]
    record["candidate_chords"] = int(covered.size)
    record["kernel_rejected"] = int(covered.size - covered.sum())
    edges = np.array(result.graph.edges, dtype=float).reshape(-1, 3)
    record["kept_edges"] = len(edges)
    record["edges_sha256"] = hashlib.sha256(edges.tobytes()).hexdigest()
    record["d_hat_sha256"] = hashlib.sha256(result.distances.tobytes()).hexdigest()
    if d_hat_file:
        np.save(d_hat_file, result.distances)

    # unwrapped again, so that the untimed call overwrites no stage record
    for name, fn in originals.items():
        setattr(graphs, name, fn)
    tracemalloc.start()
    graphs.geodesic_pipeline(pts, **cap_kwargs(cap))
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

    extract_templates, predict_labels = benchmark.extract_templates, classify.predict_labels
    # id -> (classifier, method) of each classifier `extract_templates` built;
    # holding the classifier keeps its id from passing to a later one
    built = {}

    def extracted(train, method, **kwargs):
        classifier = extract_templates(train, method, **kwargs)
        built[id(classifier)] = classifier, method
        return classifier

    def predicted(*args, **kwargs):
        predictions.append(predict_labels(*args, **kwargs))
        return predictions[-1]

    # benchmark imported extract_templates by name; evaluate looks
    # predict_labels up in the classify namespace
    benchmark.extract_templates = timed("extract_templates", extracted, lambda train, method, **_: method)
    classify.predict_labels = timed("predict_labels", predicted, lambda c, *_: built.get(id(c), (c, "knn"))[1])
    base = cm.load_benchmark_config(ROOT / "configs" / "benchmark_2class.json")
    for seed in CLASS_SEEDS:
        cfg = dataclasses.replace(base, seed=seed, n_train=n, n_test=2 * n)
        for method, res in timed("run_benchmark", cm.run_benchmark)(cfg).items():
            confusions.append([method, res["confusion"].labels, res["confusion"].counts.tolist()])
    for name, value in (("predictions", predictions), ("confusions", confusions)):
        record[f"{name}_sha256"] = hashlib.sha256(json.dumps(value).encode()).hexdigest()
    return record


def run_child(src: Path, kind: str, n: int, extra_env: dict, *extra) -> dict:
    """The child's record."""
    env = dict(os.environ, PYTHONPATH=str(src), **extra_env)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, str(n), *map(str, extra)],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{kind} n={n} from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli_child(src: Path, inputs: Path, argv, extra_env: dict) -> dict:
    """One CLI run in a fresh bare interpreter, with the whole process timed
    as `process`."""
    env = dict(os.environ, PYTHONPATH=str(src), **extra_env)
    with tempfile.TemporaryDirectory() as outdir:
        argv = [arg.replace("INPUT", str(inputs)).replace("OUTPUT", outdir) for arg in argv or []]
        faults, start = minflt(resource.RUSAGE_CHILDREN), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, outdir, *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        process = {"wall_s": time.perf_counter() - start, "minflt": minflt(resource.RUSAGE_CHILDREN) - faults}
    if proc.returncode != 0:
        raise SystemExit(f"CLI {argv} from {src} failed:\n{proc.stderr}")
    return {"process": process, **json.loads(proc.stdout.splitlines()[-1])}


def compile_seconds(sources: dict, modules) -> dict:
    """Per source, the best-of-COMPILE_REPEATS compile() seconds of each module's file."""
    best = {label: dict.fromkeys(modules, math.inf) for label in sources}
    for _ in range(COMPILE_REPEATS):
        for label, src in sources.items():
            for module in modules:
                name = module.partition(".")[2]
                path = src / "curvemedian" / (f"{name}.py" if name else "__init__.py")
                text = path.read_text(encoding="utf-8")
                start = time.perf_counter()
                compile(text, str(path), "exec")
                best[label][module] = min(best[label][module], time.perf_counter() - start)
    return best


def max_rel_diff(d_hat: np.ndarray, reference: np.ndarray) -> float:
    """The largest |d_hat - reference| / reference, inf where only the reference is 0."""
    diff = np.abs(d_hat - reference)
    rel = np.divide(diff, reference, out=np.where(diff > 0, np.inf, 0.0), where=reference > 0)
    return float(rel.max(initial=0.0))


def summarize(runs: list) -> dict:
    """Per stage: median wall seconds and median minor faults over the runs,
    and its calls per pipeline call where counted; the tracemalloc peak's
    median; every other record as its one value.  A count or record the runs
    disagree on is given as the sorted distinct values."""

    def one(values):
        values = {tuple(v) if isinstance(v, list) else v for v in values}
        return values.pop() if len(values) == 1 else sorted(values)

    out = {}
    for key, value in runs[0].items():
        if isinstance(value, dict):
            if all(key in r for r in runs):
                out[key] = {
                    "wall_s_median": statistics.median(r[key]["wall_s"] for r in runs),
                    "minflt_median": statistics.median(r[key]["minflt"] for r in runs),
                }
                if "calls" in value:
                    out[key]["calls"] = one(r[key]["calls"] for r in runs)
        elif key == "tracemalloc_peak_matrices":
            out["tracemalloc_peak_matrices_median"] = statistics.median(r[key] for r in runs)
        else:
            out[key] = one(r[key] for r in runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", metavar="[LABEL=]DIR",
                    help="directory holding the curvemedian package (repeatable; default: this repo's src)")
    ap.add_argument("--sim1", type=int, nargs="*", default=[240, 600, 1200], help="sim1 cloud sizes")
    ap.add_argument("--tsin", type=int, nargs="*", default=[400], help="tsin panel sizes")
    ap.add_argument("--classify", type=int, nargs="*", default=[50],
                    help="training curves per class of the 2-class benchmark (twice as many test curves)")
    ap.add_argument("--cap", nargs="+", default=["default"], type=cap_value,
                    help="pipeline cap values to run each input under: default, none or a number >= 1")
    ap.add_argument("--quality", action="store_true", help="also record the quality measures per source and cap")
    ap.add_argument("--panels", type=int, default=100, help="criterion-2 panels of the quality measures")
    ap.add_argument("--endpoint-n", type=int, default=300, help="sim1 cloud size of the endpoint errors")
    ap.add_argument("--endpoint-seeds", type=int, default=30, help="sim1 seeds per noise sd of the endpoint errors")
    ap.add_argument("--repeats", type=int, default=3, help="fresh processes per input, source and environment")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    args = ap.parse_args()
    if min(args.repeats, args.panels, args.endpoint_seeds) < 1 or args.endpoint_n < 2:
        ap.error("--repeats, --panels and --endpoint-seeds must be at least 1, --endpoint-n at least 2")
    # perfbench's children run with this environment; the import stays out
    # of the measured child, as perfbench/run.py pulls in its scipy checks
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import BLAS_THREADS, BLAS_VARS

    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sources = {}
    for spec in args.src or [str(ROOT / "src")]:
        label, _, path = spec.rpartition("=")
        sources[label or "current"] = Path(path).resolve()
    inputs = [(k, n, cap) for cap in args.cap for k, ns in (("sim1", args.sim1), ("tsin", args.tsin)) for n in ns]
    inputs += [("classify", n, "default") for n in args.classify]
    inputs += [("cli", name, "default") for name in CLI_RUNS]  # a CLI input's name stands in for n
    cli_inputs = tempfile.TemporaryDirectory()
    d_hats = tempfile.TemporaryDirectory()

    def d_hat_file(label: str, name: str) -> Path:
        """Where a source's first run of a pipeline input saves its d_hat."""
        return Path(d_hats.name) / f"{label} {name}.npy"

    run_child(next(iter(sources.values())), "cli_inputs", 0, {}, cli_inputs.name)
    runs = {label: {} for label in sources}
    for rep in range(args.repeats):
        for kind, n, cap in inputs:
            name = n if kind == "cli" else f"{kind}-{n}" + ("" if cap == "default" else f" cap={cap}")
            for env_name, extra_env in ENVIRONMENTS.items():
                order = list(sources.items())[:: -1 if rep % 2 else 1]
                for label, src in order:
                    if kind == "cli":
                        record = run_cli_child(src, Path(cli_inputs.name), CLI_RUNS[name], extra_env)
                    elif kind == "classify":
                        record = run_child(src, kind, n, extra_env, cap)
                    else:
                        saved = d_hat_file(label, name) if rep == 0 and env_name == "default" else ""
                        record = run_child(src, kind, n, extra_env, cap, saved)
                    runs[label].setdefault(name, {e: [] for e in ENVIRONMENTS})[env_name].append(record)
                    head = record[HEAD[kind]]
                    print(f"{label:>8} {name:<16} {env_name:<22} "
                          f"{head['wall_s']:8.3f} s {head['minflt']:>9} faults", flush=True)
    cli_inputs.cleanup()
    reference, *others = sources
    d_hat_diff = {
        label: {
            name: max_rel_diff(np.load(d_hat_file(label, name)), np.load(d_hat_file(reference, name)))
            for name in runs[label]
            if d_hat_file(label, name).exists()
        }
        for label in others
    }
    d_hats.cleanup()
    # the modules each CLI input loaded, per source
    loaded = {label: {name: runs[label][name]["default"][0]["modules"] for name in CLI_RUNS} for label in sources}
    best = compile_seconds(sources, sorted({m for by_name in loaded.values() for mods in by_name.values() for m in mods}))
    compile_s = {
        label: {"modules": best[label], **{name: sum(map(best[label].get, mods)) for name, mods in by_name.items()}}
        for label, by_name in loaded.items()
    }
    quality = {}
    for cap in args.cap if args.quality else ():
        for label, src in sources.items():
            record = run_child(src, "quality", 0, {}, cap, args.panels, args.endpoint_n, args.endpoint_seeds)
            quality.setdefault(label, {})[cap] = record
            print(f"{label:>8} quality cap={cap:<8} criterion 2 {record['criterion_2_exact']}"
                  f"/{record['criterion_2_within_one']}/{args.panels}", flush=True)

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
            "caps": args.cap,
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "summary": {
            label: {name: {e: summarize(r) for e, r in by_env.items()} for name, by_env in by_input.items()}
            for label, by_input in runs.items()
        },
        "runs": runs,
        "d_hat_max_rel_diff": d_hat_diff,
        "compile_s": compile_s,
    }
    if args.quality:
        report["quality"] = quality
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def cap_value(text: str) -> str:
    """A --cap value, checked: default, none or a finite number >= 1."""
    if text not in ("default", "none") and not 1.0 <= float(text) < math.inf:
        raise ValueError(text)
    return text


def write_cli_inputs(directory: str) -> None:
    """The input files of the CLI runs, run inside the child interpreter."""
    import curvemedian as cm

    cm.write_cloud(Path(directory) / "sim1-240.csv", cm.generate_sim1(cm.Sim1Config(n=240, noise_sd=0.1, seed=SEED)))
    cfg = cm.ShiftConfig(target="tsin", n=240, m=100, shift_range=(-2.0, 2.0), seed=SEED)
    cm.write_panel(Path(directory) / "tsin-240.csv", cm.generate_shift_sample(cfg))


def child(kind: str, n: int, extra: list):
    if kind == "cli_inputs":
        return write_cli_inputs(extra[0])
    if kind == "classify":
        return measure_classify(n)
    if kind == "quality":
        return measure_quality(extra[0], *map(int, extra[1:]))
    return measure(kind, n, *extra)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]), sys.argv[4:])))
        sys.exit(0)
    sys.exit(main())
