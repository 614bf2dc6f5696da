"""Independent reference implementations used to cross-check the package.

Most oracles deliberately take a different algorithmic route than the code
under test: dense parameter sampling instead of interval arithmetic,
exhaustive labeled-tree enumeration instead of a greedy spanning tree, and
plain Riemann sums instead of adaptive quadrature.  `floyd_warshall` is the
exception: the package runs the same cubic relaxation, so it checks the
graph-to-matrix bookkeeping rather than the algorithm.  The independent
check of shortest paths and spanning-tree weights is scipy's csgraph, in
`test_graphs.py`.
"""

from itertools import product

import numpy as np


def mc_segment_covered(a, b, balls, tol, samples=10_000):
    """Dense-parameter membership check of a segment against a ball union."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.linspace(0.0, 1.0, samples)
    pts = a[None, :] + lam[:, None] * (b - a)[None, :]
    inside = np.zeros(samples, dtype=bool)
    for ball in balls:
        d2 = ((pts - np.asarray(ball.center)[None, :]) ** 2).sum(axis=1)
        inside |= d2 <= (ball.radius + tol) ** 2
    return bool(inside.all())


def floyd_warshall(n, edges):
    """All-pairs shortest paths by cubic relaxation on a dense matrix."""
    dm = np.full((n, n), np.inf)
    np.fill_diagonal(dm, 0.0)
    for i, j, w in edges:
        if w < dm[i, j]:
            dm[i, j] = dm[j, i] = w
    for k in range(n):
        np.minimum(dm, dm[:, k : k + 1] + dm[k : k + 1, :], out=dm)
    return dm


def _tree_weight_from_code(code, n, weights):
    """Weight of the labeled tree encoded by a Pruefer sequence."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    total = 0.0
    active = [True] * n
    for v in code:
        for u in range(n):
            if active[u] and degree[u] == 1:
                break
        total += weights[u][v]
        degree[u] -= 1
        degree[v] -= 1
        active[u] = False
    rest = [u for u in range(n) if active[u] and degree[u] == 1]
    total += weights[rest[0]][rest[1]]
    return total


def min_spanning_weight_exhaustive(points):
    """Minimum total weight over every labeled spanning tree (n^(n-2) trees)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    weights = np.sqrt((diff**2).sum(axis=2)).tolist()
    if n == 1:
        return 0.0
    if n == 2:
        return weights[0][1]
    best = np.inf
    for code in product(range(n), repeat=n - 2):
        w = _tree_weight_from_code(code, n, weights)
        if w < best:
            best = w
    return best


def riemann_shift_geodesic(derivative, grid, a1, a2, steps=1_000_000, chunk=20_000):
    """Midpoint-rule arc length of the shift path, evaluated in chunks."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = sorted((float(a1), float(a2)))
    if lo == hi:
        return 0.0
    h = (hi - lo) / steps
    total = 0.0
    mids = lo + (np.arange(steps) + 0.5) * h
    for start in range(0, steps, chunk):
        nodes = mids[start : start + chunk]
        d = derivative(grid[None, :] - nodes[:, None])
        total += float(np.sqrt((d * d).sum(axis=1)).sum())
    return total * h


def brute_force_argmin(distance_matrix, alpha):
    """Definitional scan of the summed-power objective."""
    dm = np.asarray(distance_matrix, dtype=float)
    best_idx, best_obj = -1, np.inf
    for i in range(dm.shape[0]):
        obj = float(sum(dm[i, j] ** alpha for j in range(dm.shape[1])))
        if obj < best_obj:
            best_idx, best_obj = i, obj
    return best_idx, best_obj
