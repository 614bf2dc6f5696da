#!/usr/bin/env python3
"""Produce plot-ready data for the two walkthrough examples.

figure1/: the noisy-parabola cloud with its spanning tree, coverage graph,
and estimated geodesic matrix -- enough to draw the graph construction.
figure2/: a shifted-curve panel with the cross-sectional mean and the
selected representative curve side by side, each a one-row panel on the
panel's grid.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from curvemedian import (
    CurvePanel,
    ShiftConfig,
    Sim1Config,
    cross_sectional_mean,
    generate_shift_sample,
    generate_sim1,
    geodesic_pipeline,
    intrinsic_estimate,
    pipeline_diagnostics,
    write_cloud,
    write_edges,
    write_json,
    write_matrix,
    write_panel,
)


def parabola_figure(outdir: Path, n: int, seed: int) -> None:
    cloud = generate_sim1(Sim1Config(n=n, seed=seed))
    result = geodesic_pipeline(cloud)
    write_cloud(outdir / "points.csv", cloud)
    write_edges(outdir / "emst.csv", result.tree)
    write_edges(outdir / "graph.csv", result.graph)
    write_matrix(outdir / "distances.csv", result.distances)
    write_json(outdir / "diagnostics.json", pipeline_diagnostics(cloud, result))


def shifted_curves_figure(outdir: Path, n: int, seed: int) -> None:
    panel = generate_shift_sample(ShiftConfig(n=n, seed=seed, shift_range=(-1.0, 1.0)))
    result = geodesic_pipeline(panel.values)
    est = intrinsic_estimate(result.distances)
    write_panel(outdir / "curves.csv", panel)
    write_panel(outdir / "mean.csv", CurvePanel(panel.grid, cross_sectional_mean(panel)))
    write_panel(outdir / "representative.csv", CurvePanel(panel.grid, panel.values[est.index]))
    write_json(
        outdir / "selection.json",
        {
            "index": est.index,
            "objective": est.objective,
            "true_shift_of_selected": float(panel.shifts[est.index]),
            "median_true_shift": float(np.sort(panel.shifts)[(panel.n - 1) // 2]),
        },
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figure_data")
    ap.add_argument("--n-points", type=int, default=300)
    ap.add_argument("--n-curves", type=int, default=31)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    fig1 = Path(args.outdir) / "figure1"
    fig2 = Path(args.outdir) / "figure2"
    fig1.mkdir(parents=True, exist_ok=True)
    fig2.mkdir(parents=True, exist_ok=True)

    parabola_figure(fig1, args.n_points, args.seed)
    shifted_curves_figure(fig2, args.n_curves, args.seed)
    print(f"wrote {fig1} and {fig2}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
