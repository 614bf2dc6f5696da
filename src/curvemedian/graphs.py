"""Graph construction over point clouds and geodesic distance estimation.

Four stages: the Euclidean minimum spanning tree of the sample, ball radii
read off that tree (each the longest tree edge incident to its center), a
coverage graph that keeps every chord lying inside the union of those
balls, and all-pairs shortest paths on it.  The tree and coverage stages
read nothing of the sample but its pairwise Euclidean distances, and take
that matrix.  Shortest-path distances on the coverage graph estimate
geodesic distances along the shape the points were sampled from; the
pipeline caps chord length by default (`DEFAULT_CAP`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import UsageError
from .geometry import _REL_TOL, _cloud, _covered, _midpoint_far, _pairwise_distances, _tolerance

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

    Checked once, at construction: n must be a nonnegative integer, vertex
    indices integral and in [0, n), weights finite and nonnegative.  A
    float64 (E, 3) input is kept without a copy, behind a read-only view.
    Graphs compare by identity.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise UsageError(f"vertex count must be a nonnegative integer, got {n!r}")
        try:  # reshape makes a new view even of an (E, 3) array, never a copy
            edges = np.asarray(self.edges, dtype=float).reshape(len(self.edges), 3)
        except (TypeError, ValueError):
            raise UsageError("edges must be (i, j, weight) triples") from None
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
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", edges)


class GeodesicResult(NamedTuple):
    tree: WeightedGraph
    graph: WeightedGraph
    distances: np.ndarray


def _distance_matrix(distances) -> np.ndarray:
    """The stages' input as a float64 array, refused unless a nonempty square
    matrix of finite nonnegative entries, zero on the diagonal and exactly
    symmetric.  A float64 array comes back itself, not a copy."""
    try:
        dist = np.asarray(distances, dtype=float)
    except (TypeError, ValueError):
        raise UsageError("a distance matrix must be an (n, n) array of numbers") from None
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.size == 0:
        raise UsageError(f"a distance matrix must be nonempty and square, got shape {dist.shape}")
    # reductions, where isfinite(dist) would allocate n x n; NaN reaches both
    if not (np.isfinite(dist.max()) and dist.min() >= 0.0):
        raise UsageError("distance matrix entries must be finite and nonnegative")
    if dist.diagonal().any():
        raise UsageError("distance matrix has a nonzero diagonal")
    if not np.array_equal(dist, dist.T):
        raise UsageError("distance matrix is not symmetric")
    return dist


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


def ball_radii(tree: WeightedGraph) -> np.ndarray:
    """Per-vertex radius: the weight of the longest incident tree edge."""
    if tree.n < 2:
        raise UsageError("ball radii need at least two vertices")
    i, j = tree.edges[:, :2].T.astype(np.intp)
    w = tree.edges[:, 2]
    radii = np.zeros(tree.n)
    np.maximum.at(radii, i, w)
    np.maximum.at(radii, j, w)
    return radii


def _cap(cap) -> Optional[float]:
    """The chord-length cap as a float, or None; refused unless a finite real >= 1."""
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Real) or not 1.0 <= cap < np.inf):
        raise UsageError(f"cap must be a finite number >= 1 or None, got {cap!r}")
    return None if cap is None else float(cap)


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
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (n,):
        raise UsageError("radii must provide one value per point")
    if not (np.isfinite(radii).all() and (radii >= 0).all()):
        raise UsageError("radii must be finite and nonnegative")

    diameter = float(dist.max())
    tol = _REL_TOL * diameter if tol is None else _tolerance(tol)
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
        candidate = dist <= cap * np.maximum.outer(radii, radii) + tol
        sq = (dist / unit) ** 2
    # the upper triangle's row-major nonzero entries come sorted by (i, j);
    # the n x n mask is freed before the kernel runs
    i, j = np.nonzero(np.triu(candidate, 1))
    del candidate
    kept = _covered(sq[i, j], sq, i, j, r, allowance)
    del sq  # freed before the edge array is built
    i, j = i[kept], j[kept]
    return WeightedGraph(n, np.column_stack((i, j, dist[i, j])))


def _weight_matrix(graph: WeightedGraph) -> np.ndarray:
    """Dense symmetric weights: the lightest of any duplicate edges, inf for
    a missing edge, zero on the diagonal."""
    i, j = graph.edges[:, :2].T.astype(np.intp)
    w = graph.edges[:, 2]
    dense = np.full((graph.n, graph.n), np.inf)
    np.minimum.at(dense, (i, j), w)
    np.minimum.at(dense, (j, i), w)
    np.fill_diagonal(dense, 0.0)
    return dense


def _floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by in-place relaxation through each vertex.

    On a symmetric input every step adds the same two terms for (i, j) and
    (j, i), so the result stays exactly symmetric.
    """
    via = np.empty_like(dist)
    for k in range(dist.shape[0]):
        np.add(dist[:, k : k + 1], dist[k : k + 1, :], out=via)
        np.minimum(dist, via, out=dist)
    return dist


def _components(reach: np.ndarray):
    """Connected components read off a reachability matrix, each a sorted
    vertex list, ordered by smallest vertex."""
    first = reach.argmax(axis=1)
    return [np.flatnonzero(first == root).tolist() for root in np.unique(first)]


def shortest_path_distances(graph: WeightedGraph) -> np.ndarray:
    """All-pairs shortest-path matrix by Floyd-Warshall on dense weights.

    Zero-weight edges (duplicate points) are legitimate; of duplicate edges
    the lightest counts.  A disconnected graph is refused, naming its
    components.  The result is exactly symmetric.
    """
    dist = _floyd_warshall(_weight_matrix(graph))
    reach = np.isfinite(dist)
    if not reach.all():
        raise UsageError(f"graph is disconnected; components: {_components(reach)}")
    return dist


def geodesic_pipeline(cloud, cap: Optional[float] = DEFAULT_CAP) -> GeodesicResult:
    """Full estimation chain: spanning tree, ball radii, coverage graph (chords
    capped by `cap`; None is the paper's rule; tolerance 1e-9 times the cloud
    diameter), then all-pairs shortest paths.

    The tree and coverage stages share one distance matrix, built here.  A
    single point short-circuits to an empty tree and a 1x1 zero matrix.
    """
    pts = _cloud(cloud)
    cap = _cap(cap)
    if pts.shape[0] == 1:
        return GeodesicResult(WeightedGraph(1, []), WeightedGraph(1, []), np.zeros((1, 1)))
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
    max_radius = float(ball_radii(result.tree).max()) if n >= 2 else 0.0
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
