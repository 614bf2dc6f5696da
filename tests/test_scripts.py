"""Smoke tests of the scripts under scripts/: each runs in a scratch
directory, exits 0 and writes the files it documents."""

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
