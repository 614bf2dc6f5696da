"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints (and records for the terminal summary) a single
``criterion N: PASS/FAIL - detail`` line.  Criteria 1 and 2 share one
session-scoped batch of 100 seeded shift-model instances (the
``shift_instances`` fixture in conftest.py).
"""

import math
import time
from pathlib import Path

import numpy as np

from curvemedian import (
    CurvePanel,
    ShiftConfig,
    Sim1Config,
    UsageError,
    WeightedGraph,
    compute_emst,
    euclidean_medoid,
    generate_shift_sample,
    generate_sim1,
    geodesic_pipeline,
    intrinsic_estimate,
    intrinsic_median_exact,
    load_benchmark_config,
    pairwise_euclidean_matrix,
    read_matrix,
    run_benchmark,
    shortest_path_distances,
    write_confusion,
    write_panel,
)
from curvemedian.cli import main as cli_main

from acceptance_report import record
from oracles import bellman_ford, floyd_warshall, min_spanning_weight_exhaustive

REPO = Path(__file__).resolve().parent.parent


def test_criterion_1_exact_distance_median_recovery(shift_instances):
    total = len(shift_instances)
    t0 = time.perf_counter()
    hits = sum(
        intrinsic_median_exact(panel).index == median_idx
        for panel, median_idx in shift_instances
    )
    elapsed = time.perf_counter() - t0
    ok = hits == total and elapsed < 120.0
    record(1, ok, f"exact distances pick the median-shift curve {hits}/{total} ({elapsed:.1f}s)")
    assert hits == total
    assert elapsed < 120.0


def _rank_offset(shifts, index):
    """How many shift ranks the curve at ``index`` sits from the median rank."""
    rank = int(np.argsort(np.argsort(shifts, kind="stable"), kind="stable")[index])
    return abs(rank - (len(shifts) - 1) // 2)


def test_criterion_2_pipeline_median_recovery(shift_instances):
    """Graph-estimated distances recover the median-shift curve to one sample.

    An instance counts as recovered when the curve selected under ``d_hat``
    has a shift rank within one of the median rank.  At least 90 of the 100
    instances must be recovered, and the graph estimate must pick the exact
    median-shift curve at least as often as the Euclidean medoid does on the
    same instances, which is the paper's comparison with a classical method.

    One rank, not the exact index, is the unit because it is the sample's
    own resolution.  Under the exact geodesic distance the objective at the
    median beats each neighbour by exactly one inter-sample arc gap, about
    4/n**2 of the objective (0.15% at n=51).  Under the paper's uncapped
    rule (``cap=None``) the coverage graph shortens long geodesics across
    the folds of the curled tsin family (the short-circuit effect of graph
    geodesics), so ``d_hat`` runs a few percent short and can swap
    neighbours whose objectives differ by less than that: it picks the
    exact index on 68 of the 100.  The pipeline's default chord cap drops
    most of those fold-crossing chords.  The recorded line reports both the
    exact-index and the within-one counts under the default.
    """
    total = len(shift_instances)
    t0 = time.perf_counter()
    exact = within_one = medoid_exact = 0
    for panel, median_idx in shift_instances:
        result = geodesic_pipeline(panel.values)
        est = intrinsic_estimate(result.distances, alpha=1.0)
        exact += est.index == median_idx
        within_one += _rank_offset(panel.shifts, est.index) <= 1
        medoid_exact += euclidean_medoid(panel.values).index == median_idx
    elapsed = time.perf_counter() - t0
    ok = within_one >= 90 and exact >= medoid_exact and elapsed < 600.0
    record(
        2,
        ok,
        f"estimated distances pick the median-shift curve {exact}/{total}, "
        f"within one rank {within_one}/{total} (Euclidean medoid {medoid_exact}/{total}) "
        f"({elapsed:.1f}s)",
    )
    assert within_one >= 90
    assert exact >= medoid_exact
    assert elapsed < 600.0


def test_criterion_3_parabola_arc_length():
    analytic = math.sqrt(17.0) + math.asinh(4.0) / 4.0
    clean = generate_sim1(Sim1Config(n=300, noise_sd=0.0))
    result = geodesic_pipeline(clean)
    got = float(result.distances[0, -1])
    rel = abs(got - analytic) / analytic

    connected = 0
    for seed in range(20):
        noisy = generate_sim1(Sim1Config(n=300, seed=seed))
        try:
            res = geodesic_pipeline(noisy)
            connected += bool(np.isfinite(res.distances).all())
        except UsageError:
            pass
    ok = rel <= 0.05 and connected == 20
    record(
        3,
        ok,
        f"endpoint distance {got:.4f} vs {analytic:.4f} ({100 * rel:.2f}% off), "
        f"noisy runs connected {connected}/20",
    )
    assert rel <= 0.05
    assert connected == 20


def test_criterion_4_emst_weight_exact():
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        p = int(rng.choice([2, 3]))
        pts = rng.normal(0.0, 1.0, size=(n, p))
        tree = compute_emst(pairwise_euclidean_matrix(pts))
        got = math.fsum(w for _, _, w in tree.edges)
        want = min_spanning_weight_exhaustive(pts)
        hits += math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    record(4, hits == 50, f"tree weight equals the exhaustive minimum {hits}/50")
    assert hits == 50


def _random_connected_graph(rng):
    n = int(rng.integers(2, 51))
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((parent, i, float(rng.uniform(0.1, 2.0))))
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    return WeightedGraph(n, edges)


def _worst_rel(got, want):
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    np.fill_diagonal(rel, 0.0)
    return float(rel.max())


def test_criterion_5_shortest_paths_match_cubic_oracle():
    # floyd_warshall runs the production relaxation; Bellman-Ford takes an
    # independent route, so a wrong algorithm cannot agree with itself
    rng = np.random.default_rng(5)
    worst = worst_bf = 0.0
    hits = 0
    for _ in range(50):
        g = _random_connected_graph(rng)
        dm = shortest_path_distances(g)
        rel = _worst_rel(dm, floyd_warshall(g.n, g.edges))
        rel_bf = _worst_rel(dm, bellman_ford(g.n, g.edges))
        worst, worst_bf = max(worst, rel), max(worst_bf, rel_bf)
        hits += rel <= 1e-9 and rel_bf <= 1e-9
    record(
        5,
        hits == 50,
        f"matrix matches the cubic oracle on {hits}/50 graphs (worst rel {worst:.1e}; "
        f"Bellman-Ford worst rel {worst_bf:.1e})",
    )
    assert hits == 50


def test_criterion_6_metric_and_structural_invariants():
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        p = int(rng.integers(1, 6))
        pts = rng.normal(0.0, 1.0, size=(n, p))
        res = geodesic_pipeline(pts)
        dm = res.distances
        eps = 1e-9 * float(dm.max() if dm.size else 1.0)

        if not np.array_equal(dm, dm.T):
            violations += 1
        if not (np.diagonal(dm) == 0.0).all():
            violations += 1
        relaxed = (dm[:, :, None] + dm[None, :, :]).min(axis=1)
        if not (dm <= relaxed + eps).all():
            violations += 1
        euclid = pairwise_euclidean_matrix(pts)
        tree_paths = shortest_path_distances(WeightedGraph(res.tree.n, list(res.tree.edges)))
        if not ((euclid - eps <= dm) & (dm <= tree_paths + eps)).all():
            violations += 1
        if not {(i, j) for i, j, _ in res.tree.edges} <= {(i, j) for i, j, _ in res.graph.edges}:
            violations += 1
    record(6, violations == 0, f"{violations} invariant violations over 100 clouds")
    assert violations == 0


def test_criterion_7_benchmark_accuracy(tmp_path):
    cfg = load_benchmark_config(REPO / "configs" / "benchmark_2class.json")
    results = run_benchmark(cfg, methods=("manifold", "mean", "medoid", "knn"))
    manifold = results["manifold"]["accuracy"]
    mean = results["mean"]["accuracy"]

    cm = results["manifold"]["confusion"]
    out = tmp_path / "confusion.csv"
    write_confusion(out, cm)
    lines = out.read_text().splitlines()
    layout_ok = (
        lines[0] == "reference\\predicted," + ",".join(cm.labels)
        and len(lines) == 1 + len(cm.labels)
        and cm.counts.sum(axis=1).tolist() == [cfg.n_test] * len(cm.labels)
    )
    ok = manifold >= 0.9 and manifold >= mean and layout_ok
    record(
        7,
        ok,
        f"manifold {manifold:.3f} vs mean {mean:.3f} "
        f"(medoid {results['medoid']['accuracy']:.3f}, knn {results['knn']['accuracy']:.3f})",
    )
    assert manifold >= 0.9
    assert manifold >= mean
    assert layout_ok


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_twice(tmp_path, tag, argv_for):
    a, b = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
    for out in (a, b):
        assert cli_main(argv_for(str(out))) == 0
    left, right = _tree_bytes(a), _tree_bytes(b)
    assert left.keys() == right.keys() and len(left) > 0
    return all(left[k] == right[k] for k in left), len(left)


def test_criterion_8_seeded_cli_runs_bit_identical(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    a = generate_shift_sample(ShiftConfig(target="tsin", n=5, shifts=[-0.4, 0.0, 0.3, 0.8, 1.1]))
    b = generate_shift_sample(ShiftConfig(target="gaussian_bump", n=5, shifts=[-0.4, 0.0, 0.3, 0.8, 1.1]))
    labeled = CurvePanel(a.grid, np.vstack([a.values, b.values]), labels=["w"] * 5 + ["g"] * 5)
    write_panel(panel_path, labeled)

    flows = {
        "sim_shift": lambda out: ["simulate", "--model", "shift", "--n", "9", "--seed", "3", "--out", f"{out}/s"],
        "sim_par": lambda out: ["simulate", "--model", "sim1", "--n", "40", "--seed", "1", "--out", f"{out}/p"],
        "sim_warp": lambda out: ["simulate", "--model", "sim2", "--n", "6", "--seed", "11", "--out", f"{out}/w"],
        "distances": lambda out: ["distances", "--input", str(panel_path), "--outdir", out],
        "template": lambda out: ["template", "--input", str(panel_path), "--outdir", out],
        "classify": lambda out: [
            "classify", "--train", str(panel_path), "--test", str(panel_path),
            "--method", "manifold", "--outdir", out,
        ],
    }
    identical = 0
    files = 0
    for tag, argv_for in flows.items():
        same, count = _run_twice(tmp_path, tag, argv_for)
        identical += same
        files += count
    capsys.readouterr()
    ok = identical == len(flows)
    record(8, ok, f"{identical}/{len(flows)} seeded CLI flows byte-identical ({files} files compared)")
    assert identical == len(flows)
