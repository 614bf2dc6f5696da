"""The coverage kernel, pinned through its one public entry.

Every verdict here is that of `build_coverage_graph` on the distance matrix
of a small cloud, with an explicit `tol`: a chord is kept when it lies in
the union of the balls on all the points, each inflated by `tol`.  A ball
that stands for a lone segment endpoint in a figure is a point of radius
zero, whose ball is then of radius `tol`.  No verdict pinned here hinges on
an exact tangency.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemedian import UsageError, build_coverage_graph, geometry, pairwise_euclidean_matrix
from curvemedian.geometry import _pairwise_distances

from oracles import mc_segment_covered, oracle_chords


def coords(dim, lo=-100.0, hi=100.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        min_size=dim,
        max_size=dim,
    )


def kept(pts, radii, tol):
    """The chords (i, j), i < j, the coverage graph keeps, checked against
    the exact oracle."""
    pts = np.asarray(pts, dtype=float)
    got = [(int(i), int(j)) for i, j, _ in build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol).edges]
    assert got == oracle_chords(pts, radii, tol)
    return got


# ---------------------------------------------------------------- distance
# A kept chord weighs its Euclidean length, read off the pairwise distances.

def test_distance_345():
    graph = build_coverage_graph(pairwise_euclidean_matrix([[0.0, 0.0], [3.0, 4.0]]), [5.0, 5.0])
    assert graph.edges.tolist() == [[0.0, 1.0, 5.0]]


def test_distance_identical_points():
    graph = build_coverage_graph(pairwise_euclidean_matrix([[1.5, -2.0, 7.0]] * 2), [0.0, 0.0], tol=0.0)
    assert graph.edges.tolist() == [[0.0, 1.0, 0.0]]


def test_distance_one_dimensional():
    assert build_coverage_graph(pairwise_euclidean_matrix([2.0, -1.0]), [3.0, 3.0]).edges.tolist() == [[0.0, 1.0, 3.0]]


def test_distance_dimension_mismatch():
    with pytest.raises(UsageError, match="point cloud"):
        pairwise_euclidean_matrix([[0.0, 0.0], [1.0, 2.0, 3.0]])


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(coords(d), coords(d), coords(d))))
def test_distance_metric_axioms(triple):
    dist = _pairwise_distances(np.array(triple, dtype=float))
    assert (dist >= 0.0).all()
    assert (dist == dist.T).all()
    assert (np.diag(dist) == 0.0).all()
    dab, dac, dbc = dist[0, 1], dist[0, 2], dist[1, 2]
    scale = max(dab, dac, dbc, 1.0)
    assert dac <= dab + dbc + 1e-9 * scale


def _one_block(pts):
    """Distances by the one-block formula: the difference tensor of every
    pair and one einsum over its contiguous coordinates, eight rows of it at
    a time, which leaves every entry's bytes as they are."""
    out = np.empty((len(pts), len(pts)))
    for start in range(0, len(pts), 8):
        diff = pts[start : start + 8, None, :] - pts[None, :, :]
        out[start : start + 8] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _check_blocked(pts):
    dist = _pairwise_distances(pts)
    assert dist.tobytes() == _one_block(pts).tobytes()
    assert (dist == dist.T).all() and (np.diag(dist) == 0.0).all()


@pytest.mark.parametrize("p", [1, 2, 100])
def test_blocked_distances_equal_the_one_block_formula(monkeypatch, p):
    rng = np.random.default_rng(p)
    for n in (1, 2, 3):
        _check_blocked(rng.normal(size=(n, p)) * 7.0 + 3.0)
    # rows per block = 12 // (n - start), at most ceil(n / 2): every n here
    # crosses the block edges at 12, 6, 4, 3 and 2 remaining points, and
    # n = 11, 12, 13 sit on each side of one block holding the whole row 0
    monkeypatch.setattr(geometry, "_DIST_BLOCK", 12 * p)
    for n in range(1, 31):
        _check_blocked(rng.normal(size=(n, p)) * 7.0 + 3.0)


def test_blocked_distances_equal_the_one_block_formula_at_the_real_block():
    # 2^16 elements: n * p crosses it at n = 655 / 656 and, as the rows per
    # block go 1 -> 2, at 327 / 328
    rng = np.random.default_rng(0)
    for n in (327, 328, 655, 656):
        _check_blocked(rng.normal(size=(n, 100)) + 1e3)


def test_pairwise_distances_refuses_a_cloud_before_allocating(monkeypatch):
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 1e6)
    pts = np.zeros((4000, 1))
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="4000 points need about"):
            _pairwise_distances(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4000  # not one row of the matrix, let alone n x n


# ------------------------------------------------------------ intersection
# Each ball meets a chord in one parameter interval; these pin where.

def test_intersection_half_covered():
    # a ball of radius 1 on the start of a chord of length 2 holds its first
    # half: the end's ball closes the chord once it reaches past the middle
    pts = [[0.0, 0.0], [2.0, 0.0]]
    assert kept(pts, [1.0, 0.99], 0.0) == []
    assert kept(pts, [1.0, 1.01], 0.0) == [(0, 1)]


def test_intersection_whole_segment():
    assert kept([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]], [0.0, 0.0, 10.0], 0.0) == [(0, 1), (0, 2), (1, 2)]


def test_intersection_miss():
    # the end balls leave the middle fifth of the chord open
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    assert (0, 1) not in kept(pts, [0.9, 0.9, 1.0], 0.0)
    pts[2, 1] = 0.5
    assert (0, 1) in kept(pts, [0.9, 0.9, 1.0], 0.0)


def test_intersection_tangent_point():
    # a ball touching the chord in one point leaves the hole on either side
    # of it open; a slightly larger one closes the hole
    pts = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]
    assert (0, 1) not in kept(pts, [0.9, 0.9, 1.0], 1e-9)
    assert (0, 1) in kept(pts, [0.9, 0.9, 1.2], 1e-9)


def test_intersection_outside_unit_interval():
    # a ball on the line beyond the chord's end counts only for what it
    # holds of the chord itself
    pts = [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
    assert (0, 1) not in kept(pts, [0.4, 0.4, 0.5], 0.0)
    assert (0, 1) in kept(pts, [0.4, 0.4, 2.7], 0.0)


def test_intersection_degenerate_segment():
    # duplicated points give a zero-length chord, kept with radius and tol
    # zero; the chord to a third point is kept when that point's ball holds
    # the duplicated point
    assert kept([[1.0, 1.0], [1.0, 1.0], [1.0, 1.2]], [0.0, 0.0, 0.5], 0.0) == [(0, 1), (0, 2), (1, 2)]
    assert kept([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]], [0.0, 0.0, 0.5], 0.0) == [(0, 1)]


@given(
    st.tuples(coords(2), coords(2), coords(2)),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_intersection_endpoints_lie_near_sphere(pts, radius, tol):
    # a kept chord strays from the balls by at most its forgiven gaps
    pts = np.array(pts, dtype=float)
    radii = np.array([0.0, 0.0, radius])
    if (0, 1) not in kept(pts, radii, tol):
        return
    slack = 1e-9 * (radius + 1.0 + np.ptp(pts))
    assert mc_segment_covered(pts[0], pts[1], pts, radii, tol=2.0 * tol + slack)


# --------------------------------------------------------------- coverage

def test_covered_two_overlapping_balls():
    assert kept([[0.0, 0.0], [2.0, 0.0]], [1.1, 1.1], 1e-9) == [(0, 1)]


def test_covered_gap_between_balls():
    assert kept([[0.0, 0.0], [2.0, 0.0]], [0.9, 0.9], 1e-9) == []


def test_covered_single_ball_spans_all():
    assert kept([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]], [0.0, 0.0, 1.0], 1e-9) == [(0, 1), (0, 2), (1, 2)]


def test_covered_empty_ball_list():
    # with tol zero, radius-zero balls hold their own points and nothing more
    assert kept([[0.0, 0.0], [2.0, 0.0]], [0.0, 0.0], 0.0) == []


def test_covered_degenerate_segment_point_membership():
    pts = [[1.0, 1.0], [1.0, 1.0], [1.1, 1.0], [5.0, 5.0]]
    assert kept(pts, [0.0, 0.0, 0.2, 0.2], 0.0) == [(0, 1), (0, 2), (1, 2)]


def test_covered_balls_far_wider_than_a_subnormal_cloud():
    # in units of a 5e-324 diameter the radii and the tolerance overflow
    # float64; the balls hold every chord, and no warning is raised
    pts = [[0.0, 0.0], [5e-324, 0.0], [0.0, 0.0]]
    assert kept(pts, [0.0, 0.0, 0.5], 0.05) == [(0, 1), (0, 2), (1, 2)]


def test_covered_gap_exactly_at_tolerance():
    # inflated by tol, the balls leave a hole of length 0.2: forgiven by a
    # tol above that, not by one below it
    pts = [[0.0], [2.0]]
    assert kept(pts, [0.9, 0.9], 0.0) == []
    assert kept(pts, [0.9 - 0.19] * 2, 0.19) == []
    assert kept(pts, [0.9 - 0.21] * 2, 0.21) == [(0, 1)]


def test_covered_gap_survives_translation_and_scale():
    # a 0.2-wide gap between two balls must stay a gap far from the origin
    # and at extreme scales
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    for shift, scale in ((1e8, 1.0), (0.0, 1e-100), (0.0, 1e100), (1e8, 1e100)):
        ends, tol = scale * (np.array([a, b]) + shift), 1e-9 * scale
        assert kept(ends, [scale * 0.9] * 2, tol) == []
        pts = np.vstack([ends, ends.mean(axis=0)])
        assert kept(pts, [scale * 0.9] * 2 + [scale * 0.2], tol) == [(0, 1), (0, 2), (1, 2)]


def test_covered_monotone_under_extra_balls():
    # a new point brings a new ball: every chord kept among the old points
    # stays kept
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        pts = rng.normal(size=(n + 1, p))
        radii = rng.uniform(0.05, 1.0, size=n + 1)
        tol = float(rng.choice([0.0, 1e-9, 1e-3]))
        before = build_coverage_graph(pairwise_euclidean_matrix(pts[:n]), radii[:n], tol=tol).edges[:, :2]
        after = build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol).edges[:, :2]
        assert {tuple(e) for e in before.tolist()} <= {tuple(e) for e in after.tolist()}


def test_covered_chain_of_small_balls_along_segment():
    # 200 balls of radius 0.02 strung along a unit segment cover it
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    lam = np.linspace(0.0, 1.0, 200)
    pts = np.vstack([a, b, a + lam[:, None] * (b - a)])
    radii = np.concatenate([[0.0, 0.0], np.full(200, 0.02)])
    graph = build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=1e-9)
    assert [0.0, 1.0] in graph.edges[:, :2].tolist()
    assert mc_segment_covered(a, b, pts, radii, tol=1e-9) is True


def test_covered_agrees_with_sampling_oracle():
    # randomized instances, mixed covered/uncovered, fixed seed
    rng = np.random.default_rng(20260819)
    agree = 0
    total = 1000
    for _ in range(total):
        p = int(rng.integers(1, 4))
        a = rng.uniform(-2.0, 2.0, size=p)
        b = rng.uniform(-2.0, 2.0, size=p)
        k = int(rng.integers(1, 13))
        lam = rng.uniform(-0.1, 1.1, size=k)
        centers = a[None, :] + lam[:, None] * (b - a)[None, :]
        centers += rng.normal(0.0, 0.05, size=centers.shape)
        pts = np.vstack([a, b, centers])
        radii = np.concatenate([[0.0, 0.0], rng.uniform(0.05, 0.6, size=k)])
        tol = 1e-9 * float(np.linalg.norm(b - a))
        got = [0.0, 1.0] in build_coverage_graph(pairwise_euclidean_matrix(pts), radii, tol=tol).edges[:, :2].tolist()
        want = mc_segment_covered(a, b, pts, radii, tol=tol)
        agree += got == want
    assert agree == total
