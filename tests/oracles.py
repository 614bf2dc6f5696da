"""Independent reference implementations used to cross-check the package.

Most oracles deliberately take a different algorithmic route than the code
under test: dense parameter sampling and a per-ball, per-chord sweep in
plain Python over coordinates instead of vectorized interval arithmetic on
pairwise distances, per-source Bellman-Ford instead of Floyd-Warshall,
exhaustive labeled-tree enumeration and sorted Kruskal instead of Prim,
one query at a time in plain Python instead of a panel-wide distance
matrix, and plain Riemann sums instead of adaptive quadrature.
`floyd_warshall` is the exception: the package runs the same cubic
relaxation, so it checks the graph-to-matrix bookkeeping, and, in the
package's pivot order, that the blocks it skips change nothing.  scipy's csgraph
checks shortest paths and spanning-tree weights too, in `test_graphs.py`.
"""

import math
from itertools import product

import numpy as np


def mc_segment_covered(a, b, centres, radii, tol, samples=10_000):
    """Dense-parameter membership check of a segment against a ball union."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.linspace(0.0, 1.0, samples)
    pts = a[None, :] + lam[:, None] * (b - a)[None, :]
    inside = np.zeros(samples, dtype=bool)
    for centre, radius in zip(np.asarray(centres, dtype=float), radii):
        d2 = ((pts - centre[None, :]) ** 2).sum(axis=1)
        inside |= d2 <= (radius + tol) ** 2
    return bool(inside.all())


def exact_segment_covered(a, b, centres, radii, tol):
    """Exact coverage verdict of segment a->b against the balls of the given
    centres and radii, with the package's conventions.

    Plain Python floats: one quadratic per ball from direct coordinate
    differences (radius inflated by `tol`), then a sequential sweep over the
    intervals sorted by their lower end that forgives gaps up to `tol`.
    Unlike `mc_segment_covered` it can refute coverage as well as confirm it.
    Every input is first multiplied by one power of two, which is exact, so
    clouds at scales like 1e100 or 1e-100 neither overflow nor underflow.
    """
    centres = [[float(x) for x in c] for c in centres]
    radii = [float(r) for r in radii]
    values = [*a, *b, tol, *radii, *(x for c in centres for x in c)]
    scale = 2.0 ** -math.frexp(max(abs(float(x)) for x in values))[1]
    a = [float(x) * scale for x in a]
    u = [float(y) * scale - x for x, y in zip(a, b)]
    tol *= scale
    seg_sq = sum(t * t for t in u)
    intervals = []
    for centre, radius in zip(centres, radii):
        d = [x - c * scale for x, c in zip(a, centre)]
        c_term = sum(t * t for t in d) - (radius * scale + tol) ** 2
        if seg_sq == 0.0:
            if c_term <= 0.0:
                intervals.append((0.0, 1.0))
            continue
        half = sum(p * q for p, q in zip(u, d))
        disc = half * half - seg_sq * c_term
        if disc < 0.0:
            continue
        lo = (-half - math.sqrt(disc)) / seg_sq
        hi = (-half + math.sqrt(disc)) / seg_sq
        if hi >= 0.0 and lo <= 1.0:
            intervals.append((max(lo, 0.0), min(hi, 1.0)))
    gap = tol / math.sqrt(seg_sq) if seg_sq > 0.0 else 0.0
    reach = 0.0
    for lo, hi in sorted(intervals):
        if reach >= 1.0 - gap:
            break
        if lo > reach + gap:
            return False
        reach = max(reach, hi)
    return reach >= 1.0 - gap


def oracle_chords(pts, radii, tol):
    """The chords (i, j), i < j, of a cloud with a ball on every point that
    `exact_segment_covered` accepts."""
    n = len(pts)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if exact_segment_covered(pts[i], pts[j], pts, radii, tol)
    ]


def bellman_ford(n, edges):
    """All-pairs shortest paths by per-source Bellman-Ford on an edge list."""
    rows = []
    for source in range(n):
        dist = [math.inf] * n
        dist[source] = 0.0
        for _ in range(n - 1):
            changed = False
            for i, j, w in edges:
                i, j = int(i), int(j)
                if dist[i] + w < dist[j]:
                    dist[j], changed = dist[i] + w, True
                if dist[j] + w < dist[i]:
                    dist[i], changed = dist[j] + w, True
            if not changed:
                break
        rows.append(dist)
    return np.array(rows)


def floyd_warshall(n, edges, pivots=None):
    """All-pairs shortest paths by cubic relaxation on a dense matrix, through
    every vertex in turn, in the order `pivots` (vertex order by default)."""
    dm = np.full((n, n), np.inf)
    np.fill_diagonal(dm, 0.0)
    for i, j, w in edges:
        i, j = int(i), int(j)
        if w < dm[i, j]:
            dm[i, j] = dm[j, i] = w
    for k in range(n) if pivots is None else pivots:
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


def kruskal_tree(points):
    """Minimum spanning tree as [i, j, w] rows, i < j: every pair in plain
    Python, sorted by the strict (w, i, j) key, joined by union-find."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1).tolist()
    n = len(pts)
    pairs = sorted(
        (math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    tree = []
    for w, i, j in pairs:
        if find(i) != find(j):
            root[find(i)] = find(j)
            tree.append([i, j, w])
    return tree


def _squared_distance(a, b, cols):
    return sum((float(a[c]) - float(b[c])) ** 2 for c in cols)


def nearest_template_label(curves, labels, query, cols):
    """Label of the template with the smallest squared distance over the
    column indices `cols`; a tie goes to the earlier template."""
    d = [_squared_distance(curve, query, cols) for curve in curves]
    return labels[d.index(min(d))]


def knn_label(values, labels, query, k, cols):
    """Majority label of the k rows nearest to the query over `cols`, the
    smaller row first at equal distance; a vote tie goes to the label first
    in sorted order."""
    ranked = sorted(range(len(values)), key=lambda r: (_squared_distance(values[r], query, cols), r))
    votes = {}
    for r in ranked[:k]:
        votes[labels[r]] = votes.get(labels[r], 0) + 1
    return min(votes, key=lambda label: (-votes[label], label))


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
