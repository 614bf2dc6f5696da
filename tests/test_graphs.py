import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemedian import (
    NumericError,
    ShiftConfig,
    Sim1Config,
    UsageError,
    WeightedGraph,
    ball_radii,
    build_coverage_graph,
    compute_emst,
    generate_shift_sample,
    generate_sim1,
    geodesic_pipeline,
    intrinsic_estimate,
    pairwise_euclidean_matrix,
    pipeline_diagnostics,
    shortest_path_distances,
)

from curvemedian import geometry, graphs
from oracles import (
    floyd_warshall,
    kruskal_tree,
    mc_segment_covered,
    min_spanning_weight_exhaustive,
    oracle_chords,
)


def _int_ends(graph):
    """The graph's edges as (i, j, weight) tuples with int indices."""
    return [(int(i), int(j), w) for i, j, w in graph.edges.tolist()]


def random_cloud(rng, n=None, p=None):
    n = n or int(rng.integers(2, 30))
    p = p or int(rng.integers(1, 5))
    return rng.normal(0.0, 1.0, size=(n, p))


# ----------------------------------------------------------- complete graph
# On a line every chord lies in the balls of the points it passes, so the
# coverage graph is the complete graph.

def test_complete_graph_collinear():
    g = geodesic_pipeline(np.array([[0.0], [1.0], [3.0]])).graph
    assert g.edges.tolist() == [[0, 1, 1.0], [0, 2, 3.0], [1, 2, 2.0]]


def test_complete_graph_single_point():
    g = build_coverage_graph(pairwise_euclidean_matrix(np.array([[5.0, 5.0]])), [0.0])
    assert g.n == 1 and g.edges.tolist() == []


def test_complete_graph_weights_match_independent_norms():
    # balls as wide as the cloud keep every chord
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    dist = pairwise_euclidean_matrix(pts)
    g = build_coverage_graph(dist, np.full(40, dist.max()))
    assert len(g.edges) == 40 * 39 // 2
    for i, j, w in _int_ends(g):
        assert w == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])), rel=1e-12)


def test_complete_graph_rejects_empty():
    with pytest.raises(UsageError):
        build_coverage_graph(np.empty((0, 0)), [])


# -------------------------------------------------------------------- EMST

def test_emst_collinear_drops_longest_edge():
    tree = compute_emst(pairwise_euclidean_matrix(np.array([[0.0], [1.0], [3.0]])))
    assert tree.edges.tolist() == [[0, 1, 1.0], [1, 2, 2.0]]


def test_emst_unit_square_ties_break_lexicographically():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tree = compute_emst(pairwise_euclidean_matrix(pts))
    assert [(i, j) for i, j, _ in tree.edges] == [(0, 1), (0, 3), (1, 2)]
    assert sum(w for _, _, w in tree.edges) == pytest.approx(3.0)
    assert min_spanning_weight_exhaustive(pts) == pytest.approx(3.0)


def test_emst_weight_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = random_cloud(rng, n=int(rng.integers(2, 7)), p=2)
        tree = compute_emst(pairwise_euclidean_matrix(pts))
        got = sum(w for _, _, w in tree.edges)
        assert got == pytest.approx(min_spanning_weight_exhaustive(pts), rel=1e-12)


def test_emst_empty_graph_rejected():
    with pytest.raises(UsageError):
        compute_emst(np.empty((0, 0)))


def test_emst_matches_sorted_kruskal_on_tied_clouds():
    # rounded coordinates force tied weights and duplicate points; under the
    # strict (w, i, j) key the tree is unique and comes out in key order
    rng = np.random.default_rng(47)
    for _ in range(20):
        pts = np.round(rng.normal(size=(int(rng.integers(2, 25)), 2)), 0)
        want = kruskal_tree(pts)
        assert compute_emst(pairwise_euclidean_matrix(pts)).edges.tolist() == want
        assert geodesic_pipeline(pts).tree.edges.tolist() == want


@given(
    st.integers(1, 3).flatmap(
        lambda p: st.lists(st.lists(st.integers(-3, 3), min_size=p, max_size=p), min_size=1, max_size=40)
    )
)
def test_emst_equals_kruskal_on_rounded_clouds_with_duplicates(coords):
    # half-integer coordinates: squared distances are exact, so equal
    # weights are true ties and only the (i, j) key can break them
    pts = np.array(coords, dtype=float) / 2.0
    assert compute_emst(pairwise_euclidean_matrix(pts)).edges.tolist() == kruskal_tree(pts)


def test_emst_duplicate_points_zero_weight_edges():
    tree = compute_emst(pairwise_euclidean_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])))
    weights = sorted(w for _, _, w in tree.edges)
    assert weights == [0.0, 1.0]


# -------------------------------------------------------------- ball radii

def test_ball_radii_collinear():
    tree = compute_emst(pairwise_euclidean_matrix(np.array([[0.0], [1.0], [3.0]])))
    assert ball_radii(tree).tolist() == [1.0, 2.0, 2.0]


def test_ball_radii_two_points():
    tree = compute_emst(pairwise_euclidean_matrix(np.array([[0.0], [5.0]])))
    assert ball_radii(tree).tolist() == [5.0, 5.0]


def test_ball_radii_vertex_without_tree_edge_is_zero():
    # a single point, and an isolated vertex of a forest
    assert ball_radii(WeightedGraph(1, [])).tolist() == [0.0]
    assert ball_radii(WeightedGraph(3, [(0, 1, 1.0)])).tolist() == [1.0, 1.0, 0.0]


def test_ball_radii_equal_max_incident_weight():
    rng = np.random.default_rng(5)
    pts = random_cloud(rng, n=20, p=3)
    tree = compute_emst(pairwise_euclidean_matrix(pts))
    radii = ball_radii(tree)
    for v in range(20):
        incident = [w for i, j, w in tree.edges if v in (i, j)]
        assert radii[v] == max(incident)


# ---------------------------------------------------------- coverage graph

def test_coverage_graph_collinear_long_chord_admitted():
    dist = pairwise_euclidean_matrix([[0.0], [1.0], [3.0]])
    g = build_coverage_graph(dist, ball_radii(compute_emst(dist)))
    assert [(i, j) for i, j, _ in g.edges] == [(0, 1), (0, 2), (1, 2)]


def test_coverage_graph_collinear_far_point_still_admitted():
    dist = pairwise_euclidean_matrix([[0.0], [1.0], [10.0]])
    g = build_coverage_graph(dist, ball_radii(compute_emst(dist)))
    assert [(i, j) for i, j, _ in g.edges] == [(0, 1), (0, 2), (1, 2)]


def _tree_inputs():
    """Clouds and tolerances on which every tree edge must be kept: random
    clouds, sim1 clouds and rounded clouds with duplicate points, each at
    tol = 0 and by default, and scaled by 1e-100 and 1e100."""
    rng = np.random.default_rng(23)
    clouds = [random_cloud(rng, n=25, p=2)] + [random_cloud(rng) for _ in range(4)]
    clouds += [generate_sim1(Sim1Config(n=n, seed=seed)) for n, seed in ((2, 0), (30, 1), (90, 2))]
    for _ in range(4):
        pts = np.round(rng.normal(size=(int(rng.integers(2, 20)), 2)), 1)
        clouds.append(np.vstack([pts, pts[: len(pts) // 2 + 1]]))
    clouds.append(np.zeros((4, 3)))
    for pts in clouds:
        for scale in (1.0, 1e-100, 1e100):
            for rel_tol in (None, 0.0):
                yield scale * pts, rel_tol


def test_coverage_graph_contains_tree_without_tree_hint():
    # ball i holds the whole chord to each tree neighbour of i, so no tree
    # edge can be rejected, whatever the tolerance and the scale
    for pts, tol in _tree_inputs():
        dist = pairwise_euclidean_matrix(pts)
        tree = compute_emst(dist)
        g = build_coverage_graph(dist, ball_radii(tree), tol=tol)
        kept = {(i, j): w for i, j, w in g.edges.tolist()}
        for i, j, w in tree.edges.tolist():
            assert kept.get((i, j)) == w, (len(pts), tol, i, j)


def test_tree_edges_covered_by_their_two_endpoint_balls():
    rng = np.random.default_rng(29)
    for _ in range(5):
        pts = random_cloud(rng)
        tree = compute_emst(pairwise_euclidean_matrix(pts))
        radii = ball_radii(tree)
        for i, j, _ in _int_ends(tree):
            # on two points the default tol is 1e-9 of the tree edge's length
            pair = [i, j]
            graph = build_coverage_graph(pairwise_euclidean_matrix(pts[pair]), radii[pair])
            assert graph.edges[:, :2].tolist() == [[0, 1]]


def test_coverage_graph_edge_count_between_tree_and_complete():
    cloud = generate_sim1(Sim1Config(n=30, seed=4))
    res = geodesic_pipeline(cloud)
    n_tree, n_graph = len(res.tree.edges), len(res.graph.edges)
    assert n_tree == 29
    assert n_tree <= n_graph <= 30 * 29 // 2


def test_coverage_graph_chords_covered_on_criterion_2_miss(shift_instances):
    # Instance 26 of the criterion-2 batch (n=15) selects a curve two shift
    # ranks off the median.  Every chord the graph keeps must still lie in
    # the ball union, so the miss comes from the estimator's short cuts
    # across folds, not from a coverage bug hiding behind the one-rank unit.
    panel, _ = shift_instances[26]
    pts = panel.values
    assert pts.shape[0] == 15
    res = geodesic_pipeline(pts)
    tol = 1e-9 * pairwise_euclidean_matrix(pts).max()
    radii = ball_radii(res.tree)
    assert len(res.graph.edges) > len(res.tree.edges)
    for i, j, _ in _int_ends(res.graph):
        assert mc_segment_covered(pts[i], pts[j], pts, radii, tol=tol, samples=4001), (i, j)


def test_coverage_graph_radii_length_checked():
    with pytest.raises(UsageError):
        build_coverage_graph(pairwise_euclidean_matrix(np.array([[0.0], [1.0]])), np.array([1.0]))


def _verdict_inputs():
    """Small seeded inputs of three kinds: sim1 clouds, tsin panels, and
    rounded clouds with duplicate points."""
    for seed in (1, 2):
        yield generate_sim1(Sim1Config(n=30, seed=seed))
    for seed, n in ((3, 11), (4, 21)):
        yield generate_shift_sample(ShiftConfig(target="tsin", n=n, m=100, seed=seed)).values
    rng = np.random.default_rng(61)
    for _ in range(2):
        pts = np.round(rng.normal(size=(20, 2)), 1)
        yield np.vstack([pts, pts[:5]])


def _kept(graph):
    return [(i, j) for i, j, _ in graph.edges]


def test_coverage_graph_keeps_exactly_the_chords_the_exact_oracle_accepts():
    for pts in _verdict_inputs():
        res = geodesic_pipeline(pts, cap=None)
        tol = 1e-9 * pairwise_euclidean_matrix(pts).max()
        assert _kept(res.graph) == oracle_chords(pts, ball_radii(res.tree), tol)


_DEFAULT_CHUNK = geometry._CHUNK


@pytest.mark.parametrize(
    "pts",
    [
        generate_sim1(Sim1Config(n=90, seed=5)),
        generate_shift_sample(ShiftConfig(target="tsin", n=45, m=100, seed=6)).values,
        np.vstack([np.round(np.random.default_rng(7).normal(size=(60, 2)), 1)] * 2)[:80],
    ],
    ids=["sim1", "tsin", "rounded-duplicates"],
)
def test_coverage_kernel_chunk_size_changes_nothing(monkeypatch, pts):
    # chunks of 1 chord, of 7 chords (the last one partial), of 300 chords
    # (row indices past 255) and the default share one set of kernel buffers
    # per call: a stale row leaking from one chunk into the next would
    # change a verdict.  Uncapped, so that the chords span several chunks
    n = len(pts)
    intervals, chunks = geometry._chord_intervals, []

    def counted(A, *args):
        chunks.append(A.size)
        return intervals(A, *args)

    monkeypatch.setattr(geometry, "_chord_intervals", counted)
    outputs = []
    for chunk in (1, 7 * n, 300 * n, _DEFAULT_CHUNK):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        res = geodesic_pipeline(pts, cap=None)
        bare = build_coverage_graph(pairwise_euclidean_matrix(pts), ball_radii(res.tree))
        outputs.append((res.graph.edges.tobytes(), res.distances.tobytes(), bare.edges.tobytes()))
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert max(chunks) > 300 and chunks.count(7) > 1 and chunks.count(300) > 1


# Intervals that start at exactly the same lo may be swept in any order: the
# reach after them is their largest hi, and none of them can leave a hole
# the others close.  The gaps below are f allowances, far from a tangency.
@pytest.mark.parametrize("f", [0.5, 2.0])
def test_coverage_verdicts_with_tied_interval_starts(f):
    tol = 1e-3
    side = (1.0 - (2.0 + f) * tol) / 2.0
    # chord (0, 1) runs between points with balls of radius tol alone.  The
    # balls holding its start meet it on [0, hi], all with lo = 0 (one ball
    # twice); only the longest hi can come within the allowance of the balls
    # holding its end, which meet it on [lo, 1].  Every order of them agrees
    ends = np.array([[0.0, 0.0], [1.0, 0.0]])
    centres = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.1], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    sizes = np.array([0.2, side, 0.3, side, side, 0.1])
    for shift in range(len(sizes)):
        for order in (np.roll(np.arange(6), shift), np.roll(np.arange(6)[::-1], shift)):
            pts, radii = np.vstack([ends, centres[order]]), np.concatenate([[0.0, 0.0], sizes[order]])
            kept = _kept(build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol))
            assert kept == oracle_chords(pts, radii, tol)
            assert ((0, 1) in kept) == (f < 1)
    # the same chord between duplicated points: chords (0, 2), (0, 3), (1, 2)
    # and (1, 3) carry tied lo = 0 at one end and tied hi = 1 at the other
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.1]])
    radii = np.array([0.2, side, side, 0.1, 0.3])
    kept = _kept(build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol))
    assert kept == oracle_chords(pts, radii, tol)
    spans = {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert spans & set(kept) == (spans if f < 1 else set())
    assert (0, 1) in kept and (2, 3) in kept


# The midpoint prefilter may reject a chord only where the kernel would.  A
# hole of f allowances (the allowance is tol) around the midpoint leaves a
# midpoint clearance of about f tol / 2 in squared diameter units: without
# the slack on the clearance, f = 0.5 and 0.9 would be rejected, and f = 8
# shows the prefilter rejecting a chord the kernel rejects too.
@pytest.mark.parametrize("f", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 8.0])
def test_coverage_graph_near_gap_chords_match_exact_oracle(f):
    for scale in (1e-100, 1e100):
        for rel_tol in (1e-3, 1e-6):
            pts = scale * np.array([[0.0, 0.0], [0.6, 0.8]])
            tol = rel_tol * scale
            radii = np.full(2, (scale - (2.0 + f) * tol) / 2.0)
            graph = build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol)
            assert _kept(graph) == oracle_chords(pts, radii, tol) == ([(0, 1)] if f < 1 else [])


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_coverage_graph_ball_tangent_at_midpoint(ulps):
    # ball 2 touches the midpoint of chord (0, 1) to within an ulp of its
    # radius, so the chord's midpoint clearance is about zero.  The end balls
    # stop 2.5e-4 short of the midpoint on either side: the hole is forgiven
    # at tol = 1e-3 and is not at tol = 0, however the tangency rounds.
    for scale in (1e-100, 1.0, 1e100):
        for rel_tol in (0.0, 1e-3):
            pts = scale * np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
            tol = rel_tol * scale
            middle = pts[2, 1] - tol
            for _ in range(abs(ulps)):
                middle = np.nextafter(middle, np.sign(ulps) * np.inf)
            radii = np.array([(1.0 - 2.5e-4) * scale - tol] * 2 + [middle])
            kept = _kept(build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol))
            assert kept == oracle_chords(pts, radii, tol)
            assert ((0, 1) in kept) == (rel_tol > 0.0)


def test_coverage_graph_keeps_covered_chord_with_rounded_positive_clearance():
    # found by a search over near-tangent chords: the kernel and the exact
    # oracle cover chord (0, 1) at tol = 0, yet its midpoint clearance comes
    # out 0.25 eps / A above zero; the rounding term of the slack keeps it
    pts = np.array([
        [-1.085004758730008e-34, 1.280892891223491e-34, 6.657796757232241e-35],
        [-5.48807290962996e-33, 5.559515657704151e-33, -1.2694927103917123e-33],
        [-2.809170188125269e-33, 2.8320597172730835e-33, -6.053728556202633e-34],
    ])
    radii = [3.880247312475002e-33, 3.880247312475002e-33, 1.6482530446618226e-35]
    kept = _kept(build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=0.0))
    assert (0, 1) in kept
    assert kept == oracle_chords(pts, radii, 0.0)


def test_coverage_graph_duplicates_and_zero_tolerance_match_exact_oracle():
    # duplicated points give zero-length chords, which the prefilter never
    # rejects; tol = 0 forgives no gap at all
    rng = np.random.default_rng(67)
    for _ in range(4):
        pts = np.round(rng.normal(size=(12, 2)), 1)
        pts = np.vstack([pts, pts[:4]])
        dist = pairwise_euclidean_matrix(pts)
        radii = ball_radii(compute_emst(dist)) * rng.uniform(0.5, 1.5, len(pts))
        for tol in (0.0, 1e-3 * dist.max()):
            kept = _kept(build_coverage_graph(dist, radii, tol=tol))
            assert kept == oracle_chords(pts, radii, tol)
            assert {(k, k + 12) for k in range(4)} <= set(kept)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sim1", "tsin", "rounded"]),
    st.sampled_from([None, 0.0, 1e-3]),
)
def test_coverage_graph_matches_exact_oracle_under_scaled_radii(seed, kind, rel_tol):
    # the paper's radii scaled by U(0.5, 1.5) put many chords near the
    # decision boundary, where the prefilter and the kernel must agree
    rng = np.random.default_rng(seed)
    pts = _cloud_of_kind(rng, seed, kind)
    dist = pairwise_euclidean_matrix(pts)
    radii = ball_radii(compute_emst(dist)) * rng.uniform(0.5, 1.5, len(pts))
    tol = (1e-9 if rel_tol is None else rel_tol) * dist.max()
    graph = build_coverage_graph(dist, radii, tol=None if rel_tol is None else tol)
    assert _kept(graph) == oracle_chords(pts, radii, tol)


def _cloud_of_kind(rng, seed, kind):
    """A sim1 cloud, tsin panel or rounded cloud with duplicates, of 3 to 20
    curves or points (plus the duplicates)."""
    n = int(rng.integers(3, 21))
    if kind == "sim1":
        return generate_sim1(Sim1Config(n=n, seed=seed))
    if kind == "tsin":
        return generate_shift_sample(ShiftConfig(target="tsin", n=n, m=30, seed=seed)).values
    pts = np.round(rng.normal(size=(n, 2)), 1)
    return np.vstack([pts, pts[: n // 3]])


# ------------------------------------------------------------ locality cap

@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sim1", "tsin", "rounded"]),
    st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
def test_capped_coverage_keeps_the_uncapped_chords_within_the_cap(seed, kind, cap):
    # each chord's verdict reads only its own intervals, so the cap removes
    # the longer chords and changes no other verdict; every tree edge passes
    pts = _cloud_of_kind(np.random.default_rng(seed), seed, kind)
    dist = pairwise_euclidean_matrix(pts)
    tree = compute_emst(dist)
    radii = ball_radii(tree)
    tol = 1e-9 * dist.max()
    full = build_coverage_graph(dist, radii)
    capped = build_coverage_graph(dist, radii, cap=cap)
    within = [(i, j) for i, j, w in _int_ends(full) if w <= cap * max(radii[i], radii[j]) + tol]
    assert _kept(capped) == within
    assert {(i, j) for i, j, _ in _int_ends(tree)} <= set(within)


@given(st.integers(0, 2**32 - 1), st.floats(1.0, 1e3))
def test_capped_pipeline_keeps_every_tree_edge(seed, cap):
    pts = random_cloud(np.random.default_rng(seed))
    res = geodesic_pipeline(pts, cap=cap)
    assert {(i, j) for i, j, _ in res.tree.edges} <= {(i, j) for i, j, _ in res.graph.edges}


@pytest.mark.parametrize("exponent", [-100, -37, 0, 11, 100])
def test_chord_exactly_at_the_cap_is_kept(exponent):
    # radii 2, 2, 1, 2, 2 (times the scale) on a line, where every chord is
    # covered with overlap to spare.  At tol = 0 and cap 2 the chords (0, 3)
    # and (1, 4), of length 4 = 2 max(r_i, r_j), are exact ties: kept.
    # Only (0, 4), of length 6, is dropped.  Scaling by a power of ten keeps
    # the ties exact, as every coordinate is the scale times 0, +-1, 2 or 4
    scale = 10.0**exponent
    pts = scale * np.array([[-2.0], [0.0], [1.0], [2.0], [4.0]])
    dist = pairwise_euclidean_matrix(pts)
    radii = ball_radii(compute_emst(dist))
    assert radii.tolist() == [2 * scale, 2 * scale, scale, 2 * scale, 2 * scale]
    assert _kept(build_coverage_graph(dist, radii, tol=0.0)) == list(itertools.combinations(range(5), 2))
    kept = _kept(build_coverage_graph(dist, radii, tol=0.0, cap=2.0))
    assert kept == [pair for pair in itertools.combinations(range(5), 2) if pair != (0, 4)]


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), 0.5, True, "2"])
@pytest.mark.parametrize("routine", ["coverage", "pipeline", "single_point", "diagnostics"])
def test_bad_cap_is_usage_error(routine, cap):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    call = {
        "coverage": lambda: build_coverage_graph(pairwise_euclidean_matrix(pts), [1.0, 2.0, 2.0], cap=cap),
        "pipeline": lambda: geodesic_pipeline(pts, cap=cap),
        "single_point": lambda: geodesic_pipeline(pts[:1], cap=cap),
        "diagnostics": lambda: pipeline_diagnostics(pts, geodesic_pipeline(pts), cap=cap),
    }[routine]
    with pytest.raises(UsageError, match="cap"):
        call()


@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(-1e8, 1e8),
    st.floats(-100.0, 100.0),
)
def test_pipeline_invariant_under_motion_and_scale(seed, parabola, shift, exponent):
    # permute, rotate, translate by up to 1e8 and scale by 1e-100..1e100:
    # the kept chords map onto each other, d_hat scales with the cloud and
    # the template stays the same curve, uncapped and at the default cap
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    if parabola:
        pts = generate_sim1(Sim1Config(n=n, seed=seed))
    else:
        # p >= 2: on a line an even sample has two tied medians
        pts = rng.normal(size=(n, int(rng.integers(2, 4))))
    perm = rng.permutation(n)
    rot, _ = np.linalg.qr(rng.normal(size=(pts.shape[1],) * 2))
    scale = 10.0**exponent
    for cap in (None, 2.0):
        base = geodesic_pipeline(pts, cap=cap)
        moved = geodesic_pipeline(scale * (pts[perm] @ rot.T + shift), cap=cap)
        kept = {tuple(sorted((int(perm[i]), int(perm[j])))) for i, j, _ in _int_ends(moved.graph)}
        assert kept == {(i, j) for i, j, _ in base.graph.edges}
        want = base.distances[np.ix_(perm, perm)]
        assert np.allclose(moved.distances / scale, want, rtol=0.0, atol=1e-7 * want.max())
        index = intrinsic_estimate(moved.distances).index
        assert perm[index] == intrinsic_estimate(base.distances).index


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3, "1e-9", True, [1e-9]])
@pytest.mark.parametrize("routine", ["coverage", "capped"])
def test_bad_tolerance_is_usage_error(routine, tol):
    dist = pairwise_euclidean_matrix([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    cap = {"coverage": None, "capped": 2.0}[routine]
    with pytest.raises(UsageError, match="tolerance"):
        build_coverage_graph(dist, [1.0, 2.0, 2.0], tol=tol, cap=cap)


def test_pipeline_takes_no_tolerance():
    # the pipeline's tolerance is 1e-9 times the cloud diameter, reported as "tol"
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
    with pytest.raises(TypeError, match="tol"):
        geodesic_pipeline(pts, tol=0.0)
    result = geodesic_pipeline(pts)
    with pytest.raises(TypeError, match="tol"):
        pipeline_diagnostics(pts, result, tol=0.0)
    assert pipeline_diagnostics(pts, result)["tol"] == 1e-9 * 5.0


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
def test_bad_radius_is_usage_error(radius):
    pts = np.array([[0.0], [1.0], [3.0]])
    with pytest.raises(UsageError, match="radi"):
        build_coverage_graph(pairwise_euclidean_matrix(pts), [1.0, radius, 2.0])


# ------------------------------------------------------------ shortest paths

def test_shortest_paths_collinear_matrix():
    pts = np.array([[0.0], [1.0], [3.0]])
    res = geodesic_pipeline(pts)
    assert res.distances.tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]


def test_shortest_paths_route_through_middle():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    dm = shortest_path_distances(g)
    assert dm[0, 2] == 3.0


def test_shortest_paths_prefer_direct_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.5)])
    assert shortest_path_distances(g)[0, 2] == 2.5


def test_shortest_paths_zero_weight_edges_connect():
    g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])
    dm = shortest_path_distances(g)
    assert dm[0, 1] == 0.0 and dm[0, 2] == 1.0


def test_shortest_paths_disconnected_names_components():
    # below the level plan's size, and above it two interleaved paths and
    # an isolated vertex
    n = graphs._LEVEL_PLAN_MIN_VERTICES + 9
    cases = [
        (4, [(0, 1, 1.0), (2, 3, 1.0)], [[0, 1], [2, 3]]),
        (n, [(v, v + 2, 1.0) for v in range(n - 3)], [list(range(0, n - 1, 2)), list(range(1, n - 1, 2)), [n - 1]]),
    ]
    for n, edges, components in cases:
        with pytest.raises(UsageError) as err:
            shortest_path_distances(WeightedGraph(n, edges))
        assert str(err.value) == f"graph is disconnected; components: {components}"


def test_shortest_paths_match_cubic_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        edges = [(i - 1 if i == 1 else int(rng.integers(0, i)), i, float(rng.uniform(0.1, 2.0))) for i in range(1, n)]
        edges = [(min(i, j), max(i, j), w) for i, j, w in edges]
        extra = int(rng.integers(0, n))
        for _ in range(extra):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            edges.append((int(i), int(j), float(rng.uniform(0.1, 2.0))))
        g = WeightedGraph(n, edges)
        dm = shortest_path_distances(g)
        want = floyd_warshall(n, edges)
        assert np.allclose(dm, want, rtol=1e-9, atol=0.0)


def _random_multigraph(rng, thin=False):
    """Connected graph with duplicate edges, zero weights and tied weights.

    A thin one, of at least the level plan's least size, is shaped like a
    coverage graph: a path through the vertices in random order, and chords
    between vertices at most four steps apart along it."""
    if thin:
        n = int(rng.integers(graphs._LEVEL_PLAN_MIN_VERTICES, 200))
        along = rng.permutation(n)
        edges = [(int(along[a - 1]), int(along[a])) for a in range(1, n)]
        steps = rng.integers(2, 5, size=2 * n)
        starts = rng.integers(0, n - steps)
        edges += [(int(along[a]), int(along[a + d])) for a, d in zip(starts, steps)]
    else:
        n = int(rng.integers(2, 25))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        edges += [tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(n)]
    edges += edges[: int(rng.integers(0, len(edges)))]
    weights = rng.choice([0.0, 0.5, 1.0, 1.5], size=len(edges))
    weights = np.where(rng.random(len(edges)) < 0.5, weights, rng.uniform(0.0, 2.0, len(edges)))
    return n, [(i, j, float(w)) for (i, j), w in zip(edges, weights)]


def _dense_min(n, edges):
    dense = np.full((n, n), np.inf)
    for i, j, w in edges:
        dense[i, j] = dense[j, i] = min(dense[i, j], w)
    return dense


def test_graph_routines_match_scipy_csgraph():
    from scipy.sparse.csgraph import csgraph_from_dense, minimum_spanning_tree
    from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

    rng = np.random.default_rng(53)
    for k in range(50):
        n, edges = _random_multigraph(rng, thin=k >= 40)
        g = WeightedGraph(n, edges)
        dense = _dense_min(n, edges)
        want = scipy_shortest_path(
            csgraph_from_dense(dense, null_value=np.inf), method="D", directed=False
        )
        got = shortest_path_distances(g)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.array_equal(got, got.T)
    # spanning trees of clouds: normal ones, whose tree is unique, and
    # rounded ones with duplicate points and tied weights
    for k in range(40):
        pts = random_cloud(rng)
        if k % 2:
            pts = np.round(pts, 0)
            pts = np.vstack([pts, pts[: len(pts) // 3]])
        n = len(pts)
        # scipy's spanning tree drops zero weights, so shift every weight by
        # one; each spanning tree has n - 1 edges, so the optimum is unchanged
        dense = np.linalg.norm(pts[:, None] - pts[None, :], axis=2) + 1.0
        np.fill_diagonal(dense, np.inf)
        shifted = minimum_spanning_tree(csgraph_from_dense(dense, null_value=np.inf)).tocoo()
        tree = compute_emst(pairwise_euclidean_matrix(pts))
        assert len(tree.edges) == n - 1
        assert tree.edges[:, 2].sum() == pytest.approx(shifted.data.sum() - (n - 1), rel=1e-12)
        if not k % 2:
            ends = np.sort(np.column_stack((shifted.row, shifted.col)), axis=1)
            assert sorted(_kept(tree)) == sorted(map(tuple, ends.tolist()))


def _level_plan_shapes():
    """Graphs on both sides of the level plan's least size, as
    (n, edges, thin): a thin one has bands of few vertices."""
    rng = np.random.default_rng(71)
    least = graphs._LEVEL_PLAN_MIN_VERTICES
    n, side = least + 28, 10

    def weighted(pairs):
        return [(i, j, float(w)) for (i, j), w in zip(pairs, rng.choice([0.5, 1.0, *rng.uniform(0, 2, 8)], len(pairs)))]

    def banded(n):  # a path through the vertices in random order, and chords two steps long
        along = rng.permutation(n).tolist()
        return weighted([(along[a], along[a + d]) for d in (1, 2) for a in range(n - d)])

    path = [(v, v + 1) for v in range(n - 1)]
    shuffled = rng.permutation(n).tolist()
    # levels of 1, 2, ..., 9, ..., 2, 1 vertices, each joined to both
    # neighbouring levels: the middle level is the largest
    layers = np.split(np.arange(81), np.cumsum([*range(1, 10), *range(8, 1, -1)]))
    lens = [(int(a[min(t, len(a) - 1)]), int(b[min(t, len(b) - 1)]))
            for a, b in itertools.pairwise(layers) for t in range(max(len(a), len(b)))]
    grid = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    grid += [(v, v + side) for v in range(side * (side - 1))]
    return {
        "star": (n, weighted([(5, v) for v in range(n) if v != 5]), False),
        "complete": (n, weighted(list(itertools.combinations(range(n), 2))), False),
        "cycle": (n, weighted(path + [(0, n - 1)]), True),
        "grid": (side * side, weighted(grid), True),
        "reversed path": (n, weighted([(n - 1 - i, n - 1 - j) for i, j in path]), True),
        "shuffled path": (n, weighted([(shuffled[i], shuffled[j]) for i, j in path]), True),
        "thin multigraph": (*_random_multigraph(rng, thin=True), True),
        "lens": (81, weighted(lens), True),
        "below the least size": (least - 1, banded(least - 1), False),
        "at the least size": (least, banded(least), True),
    }


LEVEL_PLAN_SHAPES = _level_plan_shapes()


@pytest.mark.parametrize("n, edges, thin", LEVEL_PLAN_SHAPES.values(), ids=LEVEL_PLAN_SHAPES.keys())
def test_shortest_paths_relax_only_the_blocks_the_pivots_reach(n, edges, thin):
    from scipy.sparse.csgraph import csgraph_from_dense
    from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

    g = WeightedGraph(n, edges)
    got = shortest_path_distances(g)
    want = scipy_shortest_path(csgraph_from_dense(_dense_min(n, edges), null_value=np.inf), method="D", directed=False)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(got, got.T) and not got.diagonal().any()
    # below the least size plain Floyd-Warshall in vertex order; from there
    # dense Floyd-Warshall on the relabelled matrix, through the plan's
    # pivots in the plan's order: in both, bit for bit
    label, runs = graphs._pivot_plan(g)
    assert (label is None) == (n < graphs._LEVEL_PLAN_MIN_VERTICES)
    label = np.arange(n) if label is None else label
    pivots = [k for k0, k1, _, _ in runs for k in range(k0, k1)]
    assert sorted(pivots) == list(range(n))
    dense = floyd_warshall(n, [(label[int(i)], label[int(j)], w) for i, j, w in edges], pivots)
    assert got.tobytes() == dense[np.ix_(label, label)].tobytes()
    # on a thin graph most pivots relax a block far smaller than the matrix
    work = sum((k1 - k0) * (hi - lo) ** 2 for k0, k1, lo, hi in runs)
    assert work < n**3 / 3 if thin else work <= n**3
    # scaling the weights by a power of two scales every distance exactly
    for k in (-40, 7):
        scaled = shortest_path_distances(WeightedGraph(n, [(i, j, w * 2.0**k) for i, j, w in edges]))
        assert scaled.tobytes() == (got * 2.0**k).tobytes()


def test_pivot_plan_splits_a_run_at_a_small_level():
    # the lens's 17 levels: the top split is the smallest level of the
    # middle third, 5..11 of sizes 6, 7, 8, 9, 8, 7, 6, nearest the middle
    n, edges, _ = LEVEL_PLAN_SHAPES["lens"]
    _, runs = graphs._pivot_plan(WeightedGraph(n, edges))
    assert runs[-1] == (81 - 21, 81 - 15, 0, 81)


BAD_EDGES = {
    "negative index": (1, -1, 2.0),
    "index past n": (1, 5, 2.0),
    "index equal to n": (3, 1, 2.0),
    "nan weight": (1, 2, float("nan")),
    "negative weight": (1, 2, -1.0),
    "infinite weight": (1, 2, float("inf")),
}


@pytest.mark.parametrize("routine", [shortest_path_distances], ids=["shortest_path_distances"])
@pytest.mark.parametrize("bad", BAD_EDGES.values(), ids=BAD_EDGES.keys())
def test_bad_edges_are_usage_errors(routine, bad):
    with pytest.raises(UsageError, match="edge"):
        routine(WeightedGraph(3, [(0, 1, 1.0), (0, 2, 4.0), bad]))


BAD_COUNTS = {
    "negative": (-1, []),
    "fractional": (2.5, [(0, 1, 1.0)]),
    "bool": (True, []),
    "text": ("3", [(0, 1, 1.0)]),
}


@pytest.mark.parametrize("routine", [shortest_path_distances], ids=["shortest_path_distances"])
@pytest.mark.parametrize("n, edges", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_vertex_counts_are_usage_errors(routine, n, edges):
    with pytest.raises(UsageError, match="vertex count"):
        routine(WeightedGraph(n, edges))


@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1, 1.0, 2.0)], [(0, 1), (1, 2), (0, 2)], 5, "abc"])
def test_malformed_edge_rows_are_usage_errors(edges):
    with pytest.raises(UsageError, match="triples"):
        WeightedGraph(3, edges)


def test_graph_keeps_a_float64_edge_array_without_copying():
    edges = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 2.0]])
    g = WeightedGraph(np.int64(3), edges)
    assert type(g.n) is int and g.n == 3
    assert np.shares_memory(g.edges, edges) and not g.edges.flags.writeable
    # identity, not a raising elementwise ==
    assert g == g and g != WeightedGraph(3, edges)


# ---------------------------------------------------------------- pipeline

def test_pipeline_two_points_distance_is_euclidean():
    res = geodesic_pipeline(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert res.distances[0, 1] == 5.0


def test_pipeline_single_point():
    res = geodesic_pipeline(np.array([[7.0, 7.0]]))
    assert res.tree.edges.tolist() == [] and res.graph.edges.tolist() == []
    assert res.distances.tolist() == [[0.0]]


def test_pipeline_duplicate_points_yield_zero_distances():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    res = geodesic_pipeline(pts)
    assert res.distances[0, 1] == 0.0
    assert np.isfinite(res.distances).all()


def test_pipeline_deterministic_bit_for_bit():
    rng = np.random.default_rng(13)
    pts = random_cloud(rng, n=24, p=3)
    r1 = geodesic_pipeline(pts)
    r2 = geodesic_pipeline(pts.copy())
    assert np.array_equal(r1.tree.edges, r2.tree.edges)
    assert np.array_equal(r1.graph.edges, r2.graph.edges)
    assert np.array_equal(r1.distances, r2.distances)


def test_pipeline_sandwich_bounds():
    rng = np.random.default_rng(19)
    pts = random_cloud(rng, n=30, p=3)
    res = geodesic_pipeline(pts)
    euclid = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    tree_paths = shortest_path_distances(
        WeightedGraph(res.tree.n, list(res.tree.edges))
    )
    scale = tree_paths.max()
    assert (res.distances >= euclid - 1e-9 * scale).all()
    assert (res.distances <= tree_paths + 1e-9 * scale).all()


def test_pipeline_removing_chords_never_shrinks_distances():
    rng = np.random.default_rng(37)
    pts = random_cloud(rng, n=15, p=2)
    res = geodesic_pipeline(pts)
    tree_set = {(i, j) for i, j, _ in res.tree.edges}
    non_tree = [e for e in res.graph.edges.tolist() if (e[0], e[1]) not in tree_set]
    for removed in non_tree:
        pruned = [e for e in res.graph.edges.tolist() if e != removed]
        dm = shortest_path_distances(WeightedGraph(res.graph.n, pruned))
        assert (dm >= res.distances - 1e-12).all()


def test_pipeline_parabola_keeps_every_point_connected():
    for n in (10, 30, 100):
        cloud = generate_sim1(Sim1Config(n=n, seed=2))
        res = geodesic_pipeline(cloud)
        assert np.isfinite(res.distances).all()
        touched = set()
        for i, j, _ in res.graph.edges:
            touched.update((i, j))
        assert touched == set(range(n))


def test_pipeline_distance_overflow_is_numeric_error():
    # a true distance above the float64 range, from a coordinate difference
    # that overflows or from finite ones whose norm does; without the check
    # the infinite weights would look like missing edges
    for cloud in ([[-1e308, 0.0], [1e308, 0.0]], [[0.0, 0.0], [1.5e308, 1.5e308]]):
        with pytest.raises(NumericError, match="overflow"):
            geodesic_pipeline(np.array(cloud))


def test_pipeline_at_extreme_scales_is_the_scaled_result():
    # squared coordinate differences of these clouds overflow or underflow,
    # yet the distances do not: the result is the unit cloud's, scaled, and
    # by a power of two bit for bit
    pts = generate_sim1(Sim1Config(n=40, seed=3))
    base = geodesic_pipeline(pts)
    index = intrinsic_estimate(base.distances).index
    for k in (-600, -560, -520, 450, 500, 560):
        moved = geodesic_pipeline(pts * 2.0**k)
        assert moved.distances.tobytes() == np.ldexp(base.distances, k).tobytes(), k
        assert moved.graph.edges[:, :2].tobytes() == base.graph.edges[:, :2].tobytes(), k
        assert intrinsic_estimate(moved.distances).index == index
    for scale in (1e-200, 1e-170, 1e-160, 1e160, 1e200):
        moved = geodesic_pipeline(pts * scale)
        assert moved.graph.edges[:, :2].tobytes() == base.graph.edges[:, :2].tobytes(), scale
        assert np.abs(moved.distances / scale - base.distances).max() <= 1e-15 * base.distances.max(), scale
    # and three points 1e200 apart, whose squared differences overflow
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert geodesic_pipeline(pts * 1e200).distances.tobytes() == (geodesic_pipeline(pts).distances * 1e200).tobytes()


def _count_distance_builds(monkeypatch):
    """A list whose length counts the pairwise matrices the graphs module builds."""
    builds, build = [], graphs._pairwise_distances
    monkeypatch.setattr(graphs, "_pairwise_distances", lambda pts: builds.append(pts) or build(pts))
    return builds


@pytest.mark.parametrize("cap", [None, 2.0])
def test_pipeline_builds_one_distance_matrix(monkeypatch, cap):
    builds = _count_distance_builds(monkeypatch)
    pts = generate_sim1(Sim1Config(n=40, noise_sd=0.1, seed=3))
    geodesic_pipeline(pts, cap=cap)
    assert len(builds) == 1 and builds[0] is pts
    geodesic_pipeline(pts.tolist(), cap=cap)
    assert len(builds) == 2


@pytest.mark.parametrize("cap", [None, 2.0])
def test_stages_fed_the_euclidean_matrix_by_hand_match_the_pipeline(cap):
    for pts in _verdict_inputs():
        want = geodesic_pipeline(pts, cap=cap)
        dist = pairwise_euclidean_matrix(pts)
        tree = compute_emst(dist)
        graph = build_coverage_graph(dist, ball_radii(tree), cap=cap)
        assert tree.edges.tobytes() == want.tree.edges.tobytes()
        assert graph.edges.tobytes() == want.graph.edges.tobytes()
        assert shortest_path_distances(graph).tobytes() == want.distances.tobytes()
        # neither stage writes to the matrix it is given
        assert dist.tobytes() == pairwise_euclidean_matrix(pts).tobytes()


def _spoiled(value, *cells):
    """The distance matrix of three points with `value` written into `cells`."""
    dist = pairwise_euclidean_matrix([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    for cell in cells:
        dist[cell] = value
    return dist


BAD_MATRICES = {
    "ragged": [[0.0, 1.0], [1.0]],
    "text": [["0", "x"], ["x", "0"]],
    "1-D": np.zeros(3),
    "3-D": np.zeros((3, 3, 3)),
    "not square": np.zeros((3, 2)),
    "empty": np.empty((0, 0)),
    "nan entry": _spoiled(np.nan, (0, 1), (1, 0)),
    "nan diagonal": _spoiled(np.nan, (2, 2)),
    "infinite entry": _spoiled(np.inf, (0, 2), (2, 0)),
    "negative entry": _spoiled(-1.0, (1, 2), (2, 1)),
    "nonzero diagonal": _spoiled(1e-300, (1, 1)),
    "asymmetric": _spoiled(np.nextafter(1.0, 2.0), (0, 1)),
}


@pytest.mark.parametrize("stage", ["compute_emst", "build_coverage_graph", "intrinsic_estimate"])
@pytest.mark.parametrize("dist", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_bad_distance_matrix_is_usage_error(stage, dist):
    call = {
        "compute_emst": lambda: compute_emst(dist),
        "build_coverage_graph": lambda: build_coverage_graph(dist, [1.0, 2.0, 2.0]),
        "intrinsic_estimate": lambda: intrinsic_estimate(dist),
    }[stage]
    with pytest.raises(UsageError, match="distance matrix"):
        call()


@pytest.mark.parametrize("n", [1, 255, 256, 257])
def test_an_asymmetric_entry_is_refused_in_every_tile(n):
    # the sizes around one tile; a cell in the diagonal tile, in the last
    # (partial) tile, in the corner tiles and on either side of a tile edge,
    # each above and below the diagonal
    tile = geometry._SYMMETRY_TILE
    assert tile == 256
    rng = np.random.default_rng(n)
    dist = rng.random((n, n))
    dist += dist.T
    np.fill_diagonal(dist, 0.0)
    assert geometry._distance_matrix(dist) is dist
    cells = {(0, 1), (n - 2, n - 1), (0, n - 1), (tile - 2, tile - 1), (tile - 1, tile), (tile, tile + 1)}
    cells = [(i, j) for i, j in cells if 0 <= i < j < n]
    assert len(cells) == {1: 0, 255: 3, 256: 3, 257: 4}[n]
    for i, j in cells + [(j, i) for i, j in cells]:
        spoiled = dist.copy()
        spoiled[i, j] = np.nextafter(spoiled[i, j], 3.0)
        with pytest.raises(UsageError, match="^distance matrix is not symmetric$"):
            geometry._distance_matrix(spoiled)


def test_pipeline_refuses_a_cloud_too_large_for_memory(monkeypatch):
    # the limit is lowered, never the cloud enlarged: the guard runs before
    # any n x n array is allocated
    from curvemedian import geometry

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    need = geometry._PEAK_MATRICES * 8.0 * 3 * 3
    monkeypatch.setattr(geometry, "_physical_memory", lambda: need - 1.0)
    with pytest.raises(UsageError, match="3 points need about"):
        geodesic_pipeline(pts)
    monkeypatch.setattr(geometry, "_physical_memory", lambda: need)
    assert geodesic_pipeline(pts).distances.shape == (3, 3)


def test_cloud_diameter_matches_complete_graph_max():
    rng = np.random.default_rng(43)
    pts = random_cloud(rng, n=20, p=4)
    euclid = [np.linalg.norm(pts[i] - pts[j]) for i in range(20) for j in range(i + 1, 20)]
    diagnostics = pipeline_diagnostics(pts, geodesic_pipeline(pts))
    assert diagnostics["diameter"] == pytest.approx(max(euclid), rel=1e-12)
