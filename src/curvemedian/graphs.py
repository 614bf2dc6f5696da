"""Graph construction over point clouds and geodesic distance estimation.

Four stages: the Euclidean minimum spanning tree of the sample, ball radii
read off that tree (each the longest tree edge incident to its center), a
coverage graph that keeps every chord lying inside the union of those
balls, and all-pairs shortest paths on it.  The tree and coverage stages
read nothing of the sample but its pairwise Euclidean distances, and take
that matrix.  Shortest-path distances on the coverage graph estimate
geodesic distances along the shape the points were sampled from; the
pipeline caps chord length by default (`DEFAULT_CAP`).  They come from
Floyd-Warshall on dense weights, which from `_LEVEL_PLAN_MIN_VERTICES`
vertices on relabels them by breadth-first level and takes its pivots in
nested-dissection order, so that each pivot relaxes only the band of
levels it can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import UsageError, _float_array, _number
from .geometry import _REL_TOL, _cloud, _covered, _distance_matrix, _midpoint_far, _pairwise_distances

__all__ = [
    "WeightedGraph",
    "GeodesicResult",
    "compute_emst",
    "ball_radii",
    "build_coverage_graph",
    "shortest_path_distances",
    "geodesic_pipeline",
    "pipeline_diagnostics",
    "DEFAULT_CAP",
]

# the pipeline's chord-length cap, in units of the larger end radius
DEFAULT_CAP = 2.0


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph on vertices 0..n-1; `edges` is an (E, 3) float64
    array of (i, j, weight) rows, i < j for the graphs built here.

    Checked once, at construction: n must be a nonnegative integer below
    2**63, vertex indices integral and in [0, n), weights finite and
    nonnegative.  A float64 (E, 3) input is kept without a copy, behind a
    read-only view.  Graphs compare by identity.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        below = "vertex count must be a nonnegative integer below 2**63"
        n = _number(self.n, below, lambda k: 0 <= k < 2**63, integer=True)
        triples = "edges must be (i, j, weight) triples"
        edges = _float_array(self.edges, UsageError, triples, lambda e: e.shape[1:] == (3,) or e.size == 0)
        edges = edges.reshape(-1, 3)  # a new view even of an (E, 3) array, never a copy
        ij, w = edges[:, :2], edges[:, 2]
        bad = ((ij < 0) | (ij >= n) | (ij != np.floor(ij))).any(axis=1)
        if bad.any():
            i, j, _ = edges[int(np.argmax(bad))]
            raise UsageError(f"edge ({i:g}, {j:g}) is out of range for {n} vertices")
        bad = ~(np.isfinite(w) & (w >= 0.0))
        if bad.any():
            i, j, weight = edges[int(np.argmax(bad))]
            raise UsageError(f"edge ({i:g}, {j:g}) has weight {weight}; weights must be finite and nonnegative")
        edges.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)


class GeodesicResult(NamedTuple):
    tree: WeightedGraph
    graph: WeightedGraph
    distances: np.ndarray


def compute_emst(distances) -> WeightedGraph:
    """Euclidean minimum spanning tree of a cloud, from its (n, n) distance
    matrix, by dense O(n^2) Prim.

    Edges compare on the strict key (w, i, j), i < j, under which the tree
    is unique, so equal-weight inputs always yield the same tree; its edges
    come sorted by that key.  A single point gives an empty tree.

    Each vertex outside the tree keeps its lightest edge into it as
    (weight, parent).  Two candidate edges into u share u, so at equal
    weight the (i, j) key prefers the smaller parent: for p < q it orders
    edge {p, u} before {q, u} wherever u lies relative to p and q.  The
    full key is read only when the lightest weight is tied across vertices.
    """
    weights = _distance_matrix(distances)
    n = weights.shape[0]
    outside = np.ones(n, dtype=bool)
    best_w = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.intp)
    picked = np.zeros(n - 1, dtype=np.intp)
    v = 0
    for step in range(n - 1):
        outside[v], best_w[v] = False, np.inf
        w = weights[v]
        better = outside & ((w < best_w) | ((w == best_w) & (v < parent)))
        np.copyto(best_w, w, where=better)
        parent[better] = v
        v = int(best_w.argmin())
        tied = np.flatnonzero(best_w == best_w[v])
        if tied.size > 1:
            p = parent[tied]
            v = int(tied[np.lexsort((np.maximum(tied, p), np.minimum(tied, p)))[0]])
        picked[step] = v
    i, j = np.minimum(picked, parent[picked]), np.maximum(picked, parent[picked])
    w = weights[i, j]
    return WeightedGraph(n, np.column_stack((i, j, w))[np.lexsort((j, i, w))])


def _ends(graph: WeightedGraph):
    """The graph's edge ends as two vertex-index arrays."""
    return graph.edges[:, :2].T.astype(np.intp)


def ball_radii(tree: WeightedGraph) -> np.ndarray:
    """Per-vertex radius: the weight of the longest incident tree edge, 0 without one."""
    i, j = _ends(tree)
    w = tree.edges[:, 2]
    radii = np.zeros(tree.n)
    np.maximum.at(radii, i, w)
    np.maximum.at(radii, j, w)
    return radii


def _cap(cap) -> Optional[float]:
    """The chord-length cap as a float, or None; refused unless a finite real >= 1."""
    at_least_1 = "cap must be a finite number >= 1 or None"
    return None if cap is None else _number(cap, at_least_1, lambda c: 1.0 <= c < np.inf)


def build_coverage_graph(distances, radii, tol: Optional[float] = None, cap: Optional[float] = None) -> WeightedGraph:
    """Graph keeping every chord covered by the union of sample-centered balls,
    from the cloud's (n, n) Euclidean distance matrix.

    A pair (i, j) becomes an edge, weighted by its length, when the straight
    segment between the two points lies inside the union of all n balls
    (closed, radius inflated by `tol`: finite, nonnegative, by default 1e-9
    times the cloud diameter).  With radii from `ball_radii` every tree
    edge is kept: ball i holds the whole chord to each tree neighbour of i.
    The test reads only distances in units of the diameter, so translating
    or scaling the cloud keeps the same pairs.  With `cap` (finite, >= 1)
    the candidates are the chords with |x_i - x_j| <= cap * max(r_i, r_j)
    + tol, ties and every tree edge among them; without, one (min, +) pass
    rejects the chords whose midpoint clears every ball by more than the
    gap allowance.  The interval sweep decides the candidates left.
    """
    dist = _distance_matrix(distances)
    n = dist.shape[0]
    cap = _cap(cap)
    radii = _float_array(radii, UsageError, "radii must provide one value per point", lambda r: r.shape == (n,))
    if not (np.isfinite(radii).all() and (radii >= 0).all()):
        raise UsageError("radii must be finite and nonnegative")

    diameter = float(dist.max())
    finite = "tolerance must be a finite nonnegative number"
    tol = _REL_TOL * diameter if tol is None else _number(tol, finite, lambda t: 0.0 <= t < np.inf)
    unit = diameter if diameter > 0.0 else 1.0
    # in units of the diameter a radius or gap allowance past 2 holds every
    # chord; over a tiny diameter a radius may overflow to inf, which the
    # kernel caps at 2, and the allowance is clipped at 2, as an infinite
    # one times a zero-length chord would make NaN
    with np.errstate(over="ignore"):
        r = (radii + tol) / unit
    allowance = min(tol / unit, 2.0)
    if cap is None:
        sq = (dist / unit) ** 2
        candidate = ~_midpoint_far(sq, r, allowance)
    else:  # masked before the squares exist, which keeps them out of the peak
        # rounding is monotone, so cap * max(r_i, r_j) + tol is the larger of
        # the two ends' thresholds, bit for bit, and no n x n float is built
        reach = cap * radii + tol
        candidate = dist <= reach[:, None]
        candidate |= dist <= reach
        sq = (dist / unit) ** 2
    # the upper triangle's row-major nonzero entries come sorted by (i, j);
    # the n x n mask is freed before the kernel runs
    i, j = np.nonzero(np.triu(candidate, 1))
    del candidate
    kept = _covered(sq[i, j], sq, i, j, r, allowance)
    del sq  # freed before the edge array is built
    i, j = i[kept], j[kept]
    return WeightedGraph(n, np.column_stack((i, j, dist[i, j])))


# graphs of fewer vertices run Floyd-Warshall in vertex order on one full
# block: below this size the two searches of the level plan cost more than
# its blocks save (sim1 clouds and tsin panels of 64 to 80 points on a
# 2-vCPU x86-64 host)
_LEVEL_PLAN_MIN_VERTICES = 72


def _weight_matrix(graph: WeightedGraph, label: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense symmetric weights: the lightest of any duplicate edges, inf for
    a missing edge, zero on the diagonal; vertex v at row and column
    label[v], or v without labels."""
    i, j = _ends(graph)
    if label is not None:
        i, j = label[i], label[j]
    w = graph.edges[:, 2]
    dense = np.full((graph.n, graph.n), np.inf)
    np.minimum.at(dense, (i, j), w)
    np.minimum.at(dense, (j, i), w)
    np.fill_diagonal(dense, 0.0)
    return dense


def _hop_levels(n: int, i: np.ndarray, j: np.ndarray, root: int) -> list:
    """The vertices edges (i, j) reach from `root`, by breadth-first hop
    level: one index-ordered array per level, `root` alone the first."""
    seen = np.zeros(n, dtype=bool)
    front = np.zeros(n, dtype=bool)
    seen[root] = front[root] = True
    levels = []
    while front.any():
        levels.append(np.flatnonzero(front))
        reached = np.zeros(n, dtype=bool)
        reached[j[front[i]]] = True
        reached[i[front[j]]] = True
        front = reached & ~seen
        seen |= front
    return levels


def _disconnected(graph: WeightedGraph) -> UsageError:
    """The refusal of a disconnected graph, naming its components: each a
    sorted vertex list, ordered by smallest vertex."""
    i, j = _ends(graph)
    left = np.ones(graph.n, dtype=bool)
    components = []
    while left.any():
        members = np.sort(np.concatenate(_hop_levels(graph.n, i, j, int(left.argmax()))))
        left[members] = False
        components.append(members.tolist())
    return UsageError(f"graph is disconnected; components: {components}")


def _pivot_plan(graph: WeightedGraph):
    """(label, runs): Floyd-Warshall's relabelling and pivot schedule.

    Vertex v takes label[v] (None keeps the labels), and each run
    (k0, k1, lo, hi) pivots on labels k0..k1-1, in turn, over the square
    block of labels lo..hi-1.  Below `_LEVEL_PLAN_MIN_VERTICES` that is one
    run of every pivot over the whole matrix.  From there labels go by hop
    level from a pseudo-peripheral root (a breadth-first search from vertex
    0, then one from the smallest vertex of its last level), index order
    within a level.  Every edge then joins equal or adjacent levels, so each
    level separates those before it from those after.  Pivots go in
    nested-dissection post-order over the levels: a run of levels [a, b)
    with three or more takes [a, m), then [m + 1, b), then its split level
    m; a shorter run is a leaf, taken in label order.  The split is the
    smallest level in the run's middle third, [a + t, b - t) for
    t = (b - a) // 3, and of those tied the one nearest the run's middle
    (the lower of two): a small separator is a short run of pivots over the
    whole block, and the thirds keep the dissection's depth logarithmic.
    What follows holds for any split level.  Levels a - 1 and b are not
    yet pivots while run [a, b) is taken, so no pivot of it reaches a
    vertex outside levels a - 1 to b: its block.  Outside the block the
    pivot's row is inf, and a step there only adds inf, so relaxing the
    block alone gives dense Floyd-Warshall in the same pivot order, entry
    for entry.  A graph the first search does not span is refused here.
    """
    n = graph.n
    if n < _LEVEL_PLAN_MIN_VERTICES:
        return None, [(0, n, 0, n)]
    i, j = _ends(graph)
    first = _hop_levels(n, i, j, 0)
    if sum(map(len, first)) < n:
        raise _disconnected(graph)
    levels = _hop_levels(n, i, j, int(first[-1][0]))
    ends = np.cumsum([0] + [len(level) for level in levels]).tolist()
    runs = []

    def dissect(a, b):
        block = ends[max(a - 1, 0)], ends[min(b + 1, len(levels))]
        if b - a <= 2:
            runs.append((ends[a], ends[b], *block))
            return
        third = (b - a) // 3  # at least 1, so a < m < b - 1
        m = min(range(a + third, b - third), key=lambda k: (ends[k + 1] - ends[k], abs(2 * k - a - b), k))
        dissect(a, m)
        dissect(m + 1, b)
        runs.append((ends[m], ends[m + 1], *block))

    dissect(0, len(levels))
    label = np.empty(n, dtype=np.intp)
    label[np.concatenate(levels)] = np.arange(n)
    return label, runs


def _floyd_warshall(block: np.ndarray, k0: int, k1: int, scratch: np.ndarray) -> None:
    """Relaxes a square block in place through its vertices k0..k1-1 in turn,
    with the front of `scratch` as the buffer.

    On a symmetric block every step adds the same two terms for (i, j) and
    (j, i), so the block stays exactly symmetric.
    """
    size = block.shape[0]
    via = scratch.reshape(-1)[: size * size].reshape(size, size)
    for k in range(k0, k1):
        np.add(block[:, k : k + 1], block[k : k + 1, :], out=via)
        np.minimum(block, via, out=block)


def shortest_path_distances(graph: WeightedGraph) -> np.ndarray:
    """All-pairs shortest-path matrix by Floyd-Warshall on dense weights,
    each pivot relaxing only the block of vertices it can reach
    (`_pivot_plan`).

    Zero-weight edges (duplicate points) are legitimate; of duplicate edges
    the lightest counts.  A disconnected graph is refused, naming its
    components.  The result is exactly symmetric.  Two n x n matrices are
    alive at once: the weights, built relabelled and relaxed in place, and
    the buffer the result is relabelled back through.
    """
    label, runs = _pivot_plan(graph)
    dist = _weight_matrix(graph, label)
    scratch = np.empty_like(dist)
    for k0, k1, lo, hi in runs:
        _floyd_warshall(dist[lo:hi, lo:hi], k0 - lo, k1 - lo, scratch)
    # a reduction, where isfinite(dist) would allocate n x n; the level plan
    # has refused a disconnected graph before
    if dist.max(initial=0.0) == np.inf:
        raise _disconnected(graph)
    if label is not None:  # mode "clip" writes into `out` without a temporary
        np.take(dist, label, axis=0, out=scratch, mode="clip")
        np.take(scratch, label, axis=1, out=dist, mode="clip")
    return dist


def geodesic_pipeline(cloud, cap: Optional[float] = DEFAULT_CAP) -> GeodesicResult:
    """Full estimation chain: spanning tree, ball radii, coverage graph (chords
    capped by `cap`; None is the paper's rule; tolerance 1e-9 times the cloud
    diameter), then all-pairs shortest paths.

    The tree and coverage stages share one distance matrix, built here.  A
    single point gives an empty tree and graph and a 1x1 zero matrix.
    """
    pts = _cloud(cloud)
    cap = _cap(cap)
    dist = _pairwise_distances(pts)
    tree = compute_emst(dist)
    graph = build_coverage_graph(dist, ball_radii(tree), cap=cap)
    del dist  # freed before shortest paths
    return GeodesicResult(tree, graph, shortest_path_distances(graph))


def pipeline_diagnostics(cloud, result: GeodesicResult, cap=DEFAULT_CAP) -> dict:
    """Plain-dict health report for a pipeline run made with this `cap`."""
    pts = _cloud(cloud)
    n = pts.shape[0]
    diameter = float(_pairwise_distances(pts).max())
    max_radius = float(ball_radii(result.tree).max())
    n_tree = len(result.tree.edges)
    n_graph = len(result.graph.edges)
    return {
        "n": n,
        "dimension": int(pts.shape[1]),
        "tree_edges": n_tree,
        "graph_edges": n_graph,
        "complete_edges": n * (n - 1) // 2,
        "edge_ratio": (n_graph / n_tree) if n_tree else 1.0,
        "max_radius": max_radius,
        "diameter": diameter,
        "max_radius_over_diameter": (max_radius / diameter) if diameter > 0 else 0.0,
        "tol": _REL_TOL * diameter,
        "cap": _cap(cap),
    }
