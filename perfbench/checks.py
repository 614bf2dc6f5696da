"""Output oracles and ground-truth quality measures.

The oracles use scipy, which is a harness dependency of the benchmark only:
the program itself never imports it.  Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree, shortest_path
from scipy.spatial.distance import pdist, squareform

# Relative tolerance for comparing sums of the same edge weights taken in a
# different order (Dijkstra paths, spanning-tree weight).
RTOL = 1e-12

# Quality measures a workload may report; the ones it has no truth for read null.
QUALITY = ("rank_err", "dhat_rel_err", "median_hit_rate", "accuracy")


def _csgraph(edges: np.ndarray, n: int):
    edges = np.asarray(edges, dtype=float).reshape(-1, 3)
    i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
    return csr_matrix((edges[:, 2], (i, j)), shape=(n, n))


def geodesic_failures(points, d_hat, graph_edges, tree_edges) -> list:
    """Check an estimated distance matrix against the graphs it came from.

    graph_edges and tree_edges are (E, 3) arrays of (i, j, weight).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d_hat = np.asarray(d_hat, dtype=float)
    if d_hat.shape != (n, n):
        return [f"d_hat has shape {d_hat.shape}, expected {(n, n)}"]
    fails = []
    if not np.isfinite(d_hat).all():
        fails.append("d_hat has non-finite entries")
    if not np.array_equal(d_hat, d_hat.T):
        fails.append("d_hat is not symmetric")
    if np.any(np.diag(d_hat) != 0.0):
        fails.append("d_hat has a nonzero diagonal")
    if fails:
        return fails
    scale = float(d_hat.max()) if n > 1 else 1.0
    atol = RTOL * scale

    sp = shortest_path(_csgraph(graph_edges, n), directed=False)
    if not np.allclose(d_hat, sp, rtol=RTOL, atol=atol):
        worst = float(np.nanmax(np.abs(d_hat - sp)))
        fails.append(f"d_hat differs from scipy shortest paths on the graph (max diff {worst:.3g})")

    euclid = squareform(pdist(pts))
    tree = np.asarray(tree_edges, dtype=float).reshape(-1, 3)
    mst_weight = float(minimum_spanning_tree(euclid).sum())
    tree_weight = math.fsum(tree[:, 2])
    if len(tree) != n - 1:
        fails.append(f"spanning tree has {len(tree)} edges, expected {n - 1}")
    if not math.isclose(tree_weight, mst_weight, rel_tol=RTOL):
        fails.append(f"spanning tree weight {tree_weight!r} != scipy MST weight {mst_weight!r}")

    tree_path = shortest_path(_csgraph(tree, n), directed=False)
    if np.any(d_hat < euclid * (1 - RTOL) - atol):
        fails.append("d_hat is below the Euclidean distance")
    if np.any(d_hat > tree_path * (1 + RTOL) + atol):
        fails.append("d_hat exceeds the spanning-tree path length")
    return fails


def template_failures(d_hat, index: int, objective: float) -> list:
    """The chosen index must be the argmin of the row sums, ties to the smallest."""
    sums = [math.fsum(row) for row in np.asarray(d_hat, dtype=float).tolist()]
    best = min(range(len(sums)), key=sums.__getitem__)
    fails = []
    if index != best:
        fails.append(f"template index {index} is not the row-sum argmin {best}")
    if objective != sums[index]:
        fails.append(f"objective {objective!r} != row sum {sums[index]!r}")
    return fails


def shift_quality(panels) -> dict:
    """Quality against the shift model's truth.

    panels: iterable of (d_hat, exact, index, shifts).  rank_err is the mean
    of |shift rank of the chosen curve - median rank|, median_hit_rate the
    share of panels where that is 0, dhat_rel_err the median relative error
    of d_hat over all off-diagonal pairs of all panels.
    """
    rank_errs, rel = [], []
    for d_hat, exact, index, shifts in panels:
        shifts = np.asarray(shifts, dtype=float)
        ranks = np.argsort(np.argsort(shifts, kind="stable"), kind="stable")
        rank_errs.append(abs(int(ranks[index]) - (len(shifts) - 1) // 2))
        iu = np.triu_indices(len(shifts), 1)
        rel.append(np.abs(d_hat[iu] - exact[iu]) / exact[iu])
    return {
        "rank_err": float(np.mean(rank_errs)),
        "median_hit_rate": float(np.mean([e == 0 for e in rank_errs])),
        "dhat_rel_err": float(np.median(np.concatenate(rel))),
    }
