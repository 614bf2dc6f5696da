"""Smoke tests of the scripts under scripts/: each runs in a scratch
directory, exits 0 and writes the files it documents."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, cwd, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_make_figure_data_writes_both_figures(tmp_path):
    proc = run_script("make_figure_data.py", tmp_path, "--n-points", "40", "--n-curves", "15")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "figure_data"
    for name in ("points.csv", "emst.csv", "graph.csv", "distances.csv", "diagnostics.json"):
        assert (out / "figure1" / name).is_file(), name
    for name in ("curves.csv", "mean.csv", "representative.csv", "selection.json"):
        assert (out / "figure2" / name).is_file(), name


def test_run_benchmark_writes_panels_confusions_and_summary(tmp_path):
    config = ROOT / "configs" / "benchmark_2class.json"
    proc = run_script("run_benchmark.py", tmp_path, "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "benchmark_out"
    names = ["train.csv", "test.csv", "summary.json"]
    names += [f"confusion_{method}.csv" for method in ("manifold", "mean", "medoid", "knn")]
    for name in names:
        assert (out / name).is_file(), name
    assert "accuracy" in proc.stdout


def test_bench_records_stages_and_digests_per_source(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(
        "bench.py", tmp_path, "--src", f"a={ROOT / 'src'}", "--src", f"b={ROOT / 'src'}",
        "--sim1", "30", "--tsin", "12", "--classify", "3", "--repeats", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["summary"]) == {"a", "b"}
    stages = (
        "geodesic_pipeline", "compute_emst", "ball_radii", "build_coverage_graph", "_midpoint_far", "_covered",
        "shortest_path_distances",
    )
    for name, n in (("sim1-30", 30), ("tsin-12", 12)):
        for env in ("default", "mmap_threshold_131072"):
            a, b = report["summary"]["a"][name][env], report["summary"]["b"][name][env]
            for stage in stages:
                assert a[stage]["wall_s_median"] > 0 and a[stage]["minflt_median"] >= 0
            # the kernel decides every kept edge, the n - 1 tree edges too
            assert n - 1 <= a["candidate_chords"] - a["kernel_rejected"] <= a["candidate_chords"]
            assert a["kept_edges"] == a["candidate_chords"] - a["kernel_rejected"]
            # the same tree gives the same graph and d_hat in every process
            for key in ("candidate_chords", "kernel_rejected", "edges_sha256", "d_hat_sha256"):
                assert a[key] == b[key]
            # the untimed tracemalloc pass: coverage alone holds a distance
            # matrix and its squares at once
            for side in (a, b):
                assert side["tracemalloc_peak_matrices_median"] > 1.0
            runs = report["runs"]["a"][name][env]
            assert all(r["tracemalloc_peak_matrices"] > 1.0 for r in runs)
    # the classification input: both stages per method, summed over the
    # three class seeds, and the same predictions from the same tree
    methods = ("manifold", "mean", "medoid", "knn")
    for env in ("default", "mmap_threshold_131072"):
        a, b = report["summary"]["a"]["classify-3"][env], report["summary"]["b"]["classify-3"][env]
        timed = ["run_benchmark", *(f"predict_labels[{m}]" for m in methods)]
        timed += [f"extract_templates[{m}]" for m in methods if m != "knn"]
        assert sorted(key for key, value in a.items() if isinstance(value, dict)) == sorted(timed)
        for stage in timed:
            assert a[stage]["wall_s_median"] > 0 and a[stage]["minflt_median"] >= 0
        for key in ("predictions_sha256", "confusions_sha256"):
            assert len(a[key]) == 64 and a[key] == b[key]
    assert report["environment"]["class_seeds"] == [1500, 1501, 1502]


def test_perfbench_traced_run_is_correct_and_times_every_stage(tmp_path):
    # a copy of the checkout keeps the benchmark's work directory out of the
    # tree; it runs the public stages the tracer wraps by name, so a renamed
    # or removed stage shows here as a zero time
    for part in ("perfbench", "src", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "batch-small", "--seed", "3",
         "--seconds", "0.5", "--trace", "1", "--scale", "smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for stage in ("emst", "radii", "coverage", "apsp"):
        assert metrics[f"graphs.{stage}_s"] > 0, stage
    for count in ("graphs.pairs", "graphs.tree_edges", "graphs.kept_edges", "geometry.ball_tests"):
        assert metrics[count] > 0, count
