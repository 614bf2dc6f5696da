"""Smoke tests of the scripts under scripts/: each runs in a scratch
directory, exits 0 and writes the files it documents."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from curvemedian import cross_sectional_mean, read_panel

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
    # the two curves are one-row panels on the panel's grid
    curves = read_panel(out / "figure2" / "curves.csv")
    index = json.loads((out / "figure2" / "selection.json").read_text(encoding="utf-8"))["index"]
    mean, representative = (read_panel(out / "figure2" / name) for name in ("mean.csv", "representative.csv"))
    for curve in (mean, representative):
        assert curve.n == 1 and curve.labels is None and curve.grid.tobytes() == curves.grid.tobytes()
    assert representative.values.tobytes() == curves.values[index].tobytes()
    assert mean.values.tobytes() == cross_sectional_mean(curves).tobytes()


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


def test_run_benchmark_refused_config_exits_2_and_writes_nothing(tmp_path):
    raw = json.loads((ROOT / "configs" / "benchmark_2class.json").read_text(encoding="utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**raw, "seed": -1}), encoding="utf-8")
    proc = run_script("run_benchmark.py", tmp_path, "--config", str(config), "--outdir", "out")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: seed must be a nonnegative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_bench_records_stages_and_digests_per_source(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(
        "bench.py", tmp_path, "--src", f"a={ROOT / 'src'}", "--src", f"b={ROOT / 'src'}",
        "--sim1", "30", "--tsin", "12", "--classify", "3", "--cap", "default", "none", "2", "--repeats", "1",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["summary"]) == {"a", "b"}
    stages = (
        "geodesic_pipeline", "_pairwise_distances", "compute_emst", "ball_radii", "build_coverage_graph",
        "_midpoint_far", "_covered", "shortest_path_distances",
    )
    assert report["environment"]["caps"] == ["default", "none", "2"]
    for name, n in [(f"{kind}-{n}{cap}", n) for kind, n in (("sim1", 30), ("tsin", 12)) for cap in ("", " cap=none")]:
        for env in ("default", "mmap_threshold_131072"):
            a, b = report["summary"]["a"][name][env], report["summary"]["b"][name][env]
            # the midpoint prefilter runs only under the uncapped rule
            for stage in stages:
                if stage == "_midpoint_far" and not name.endswith("cap=none"):
                    assert stage not in a
                    continue
                assert a[stage]["wall_s_median"] > 0 and a[stage]["minflt_median"] >= 0
                # one call each: the pipeline's one distance matrix too,
                # passed to both stages that read it
                assert a[stage]["calls"] == 1
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
            # the default cap is 2, and the cap only drops chords
            if not name.endswith("cap=none"):
                capped = report["summary"]["a"][f"{name} cap=2"][env]
                assert capped["edges_sha256"] == a["edges_sha256"]
                assert a["kept_edges"] <= report["summary"]["a"][f"{name} cap=none"][env]["kept_edges"]
    # and, against the first source, no difference on any pipeline input
    pipeline_inputs = [f"{kind}-{n}{cap}" for kind, n in (("sim1", 30), ("tsin", 12))
                       for cap in ("", " cap=none", " cap=2")]
    assert report["d_hat_max_rel_diff"] == {"b": dict.fromkeys(pipeline_inputs, 0.0)}
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
    # the CLI inputs: fresh interpreters, each loading only what its
    # command runs, and the same output files from the same tree
    assert isinstance(report["environment"]["dont_write_bytecode"], bool)
    distances_modules = [
        "curvemedian", "curvemedian.cli", "curvemedian.errors", "curvemedian.geometry",
        "curvemedian.graphs", "curvemedian.panel_io",
    ]
    outputs = {
        "cli-import": [],
        "cli-distances-240": ["diagnostics.json", "distances.csv", "graph.csv", "graph.emst.csv"],
        "cli-template-240": ["estimate.json", "template.csv"],
        "cli-simulate-240": ["shift.csv", "shift.truth.csv"],
    }
    for env in ("default", "mmap_threshold_131072"):
        for name, files in outputs.items():
            a, b = report["summary"]["a"][name][env], report["summary"]["b"][name][env]
            timed = ["process", "import"] + (["main"] if files else [])
            assert sorted(key for key, value in a.items() if isinstance(value, dict)) == sorted(timed)
            for stage in timed:
                assert a[stage]["wall_s_median"] > 0 and a[stage]["minflt_median"] >= 0
            assert a["process"]["wall_s_median"] > a["import"]["wall_s_median"]
            digests = sorted(key for key in a if key.startswith("sha256["))
            assert digests == [f"sha256[{f}]" for f in files]
            for key in digests:
                assert len(a[key]) == 64 and a[key] == b[key]
        assert report["summary"]["a"]["cli-import"][env]["modules"] == distances_modules
        assert report["summary"]["a"]["cli-distances-240"][env]["modules"] == distances_modules
        assert report["summary"]["a"]["cli-template-240"][env]["modules"] == sorted(
            distances_modules + ["curvemedian.stats"]
        )
        assert report["summary"]["a"]["cli-simulate-240"][env]["modules"] == sorted(
            distances_modules + ["curvemedian.models"]
        )


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_max_rel_diff_reads_relative_differences():
    max_rel_diff = _bench_module().max_rel_diff
    reference = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert max_rel_diff(reference, reference) == 0.0
    assert max_rel_diff(reference * (1 + 2.0**-52), reference) == 2.0**-52
    assert max_rel_diff(reference + 1.0, reference) == np.inf


def test_bench_builds_the_criterion_2_instances(shift_instances):
    ours = _bench_module().criterion_2_instances(len(shift_instances))
    for (panel, median_idx), (want, want_idx) in zip(ours, shift_instances, strict=True):
        assert median_idx == want_idx
        assert np.array_equal(panel.values, want.values) and np.array_equal(panel.shifts, want.shifts)


def test_bench_quality_mode_records_every_measure_per_cap(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(
        "bench.py", tmp_path, "--sim1", "--tsin", "--classify", "--cap", "default", "none", "1.5",
        "--quality", "--panels", "4", "--endpoint-n", "40", "--endpoint-seeds", "2", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    quality = json.loads(out.read_text(encoding="utf-8"))["quality"]["current"]
    assert sorted(quality) == ["1.5", "default", "none"]
    for record in quality.values():
        assert record["criterion_2_panels"] == 4
        assert 0 <= record["criterion_2_exact"] <= record["criterion_2_within_one"] <= 4
        assert 0.0 < record["tsin_dhat_rel_err_median"] < 1.0
        assert 0.0 <= record["criterion_7_accuracy"] <= 1.0
        endpoint = record["sim1_endpoint"]
        assert (endpoint["n"], endpoint["seeds"]) == (40, 2) and abs(endpoint["clean_rel_err"]) < 0.1
        for sd in ("sd_0.05", "sd_0.1", "sd_0.2"):
            assert endpoint[sd]["abs_rel_err_mean"] >= abs(endpoint[sd]["signed_rel_err_mean"])
    # a cap only removes edges, so it never shortens d_hat
    assert quality["1.5"]["sim1_endpoint"]["clean_rel_err"] >= quality["none"]["sim1_endpoint"]["clean_rel_err"]


def test_bench_refuses_a_bad_cap(tmp_path):
    for cap in ("0.5", "nan", "two"):
        proc = run_script("bench.py", tmp_path, "--cap", cap, "--out", str(tmp_path / "BENCH.json"))
        assert proc.returncode == 2 and "--cap" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()


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
