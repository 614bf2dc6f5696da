"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Runs every workload in both modes and checks that the result line carries
every metric of BENCHMARK.json with its unit, that the report carries every
end-to-end metric, and that the counts repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORTED = ("wall_rel", "wall_s", "setup_s", "peak_rss_mb", "failed_ratio", "rank_err",
            "dhat_rel_err", "median_hit_rate", "accuracy")
COUNTS = ("graphs.pairs", "graphs.tree_edges", "graphs.kept_edges", "geometry.ball_tests")


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def assert_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert set(report["end_to_end"]) == set(REPORTED)
    assert all(v["unit"] for v in report["end_to_end"].values())
    assert report["end_to_end"]["failed_ratio"]["value"] == 0.0
    assert report["provenance"]["workload_seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(workload):
    first = bench(workload, trace=1)[1]
    assert first["correct"]
    assert_metrics(first["metrics"], SPEC["per_layer"])
    second = bench(workload, trace=1)[1]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_refuses_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
