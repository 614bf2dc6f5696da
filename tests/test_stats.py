import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvemedian import (
    NumericError,
    UsageError,
    cross_sectional_mean,
    euclidean_medoid,
    geodesic_pipeline,
    intrinsic_estimate,
    pairwise_euclidean_matrix,
)

from oracles import brute_force_argmin


DM_PATH = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def test_intrinsic_estimate_path_alpha_one():
    est = intrinsic_estimate(DM_PATH, alpha=1.0)
    assert est.index == 1
    assert est.objective == 2.0
    assert est.alpha == 1.0


def test_intrinsic_estimate_path_alpha_two():
    est = intrinsic_estimate(DM_PATH, alpha=2.0)
    assert est.index == 1
    assert est.objective == 2.0  # 1^2 + 0 + 1^2


def test_intrinsic_estimate_ties_take_smallest_index():
    # three points pairwise sqrt(2) apart: unit basis vectors in R^3
    pts = np.eye(3)
    dm = pairwise_euclidean_matrix(pts)
    assert dm[0, 1] == dm[0, 2] == dm[1, 2]
    est = intrinsic_estimate(dm, alpha=1.0)
    assert est.index == 0


def _fsum_argmin(dm, alpha):
    """Index and objective of the smallest exact row sum, ties to the smallest index."""
    sums = [math.fsum(row) for row in (np.asarray(dm) ** alpha).tolist()]
    index = min(range(len(sums)), key=sums.__getitem__)
    return index, sums[index]


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_intrinsic_estimate_sums_near_tied_rows_exactly(alpha):
    # row 0 sums to 1 + 2^-51 and row 1 to 1 + 2^-52, but numpy's sequential
    # row sum adds row 0's four 2^-53 to 1 one at a time, each rounding back
    # to 1: alone, or trusting its smallest sum, it would pick row 0
    e, f = 2.0**-53, 2.0**-52
    rows = [[0, 1, e, e, e, e], [1, 0, f, 0, 0, 0], [e, f, 0, 9, 9, 9]]
    rows += [[e, 0, 9, 0, 9, 9], [e, 0, 9, 9, 0, 9], [e, 0, 9, 9, 9, 0]]
    dm = np.array(rows) ** (1.0 / alpha)
    powered = dm**alpha
    assert np.array_equal(powered, rows) and powered.sum(axis=1)[0] == 1.0 < powered.sum(axis=1)[1]
    est = intrinsic_estimate(dm, alpha=alpha)
    assert (est.index, est.objective) == (1, 1.0 + f) == _fsum_argmin(dm, alpha)


@pytest.mark.parametrize("alpha", [1.0, 0.7, 2.0])
def test_intrinsic_estimate_exact_ties_go_to_the_smallest_index(alpha):
    # points mirrored about 0 have rows holding the same values in another
    # order: equal exact sums, which numpy's row sums may round apart
    rng = np.random.default_rng(29)
    for n in (10, 64, 301):
        half = rng.uniform(0.1, 3.0, n // 2)
        xs = rng.permutation(np.concatenate([half, -half, [0.0] * (n % 2)]))
        dm = pairwise_euclidean_matrix(xs.reshape(-1, 1))
        est = intrinsic_estimate(dm, alpha=alpha)
        assert (est.index, est.objective) == _fsum_argmin(dm, alpha)


def test_intrinsic_estimate_refuses_an_overflowing_row_that_is_not_the_minimum():
    big = 1e308
    dm = np.array([[0, 1, 1, 1], [1, 0, big, big], [1, big, 0, big], [1, big, big, 0]])
    with pytest.raises(NumericError, match="overflow"):
        intrinsic_estimate(dm)


def test_intrinsic_estimate_single_point():
    est = intrinsic_estimate(np.zeros((1, 1)))
    assert est.index == 0 and est.objective == 0.0


def test_intrinsic_estimate_rejects_bad_inputs():
    with pytest.raises(UsageError):
        intrinsic_estimate(np.zeros((2, 3)))
    with pytest.raises(UsageError):
        intrinsic_estimate(np.empty((0, 0)))
    with pytest.raises(UsageError):
        intrinsic_estimate(DM_PATH, alpha=0.0)
    with pytest.raises(UsageError):
        intrinsic_estimate(DM_PATH, alpha=-1.0)
    with pytest.raises(UsageError):
        intrinsic_estimate(np.array([[0.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_intrinsic_estimate_rejects_non_finite(bad):
    with pytest.raises(UsageError, match="non-finite"):
        intrinsic_estimate(np.array([[0.0, bad], [bad, 0.0]]))


@pytest.mark.parametrize("alpha", [float("inf"), float("nan"), float("-inf")])
def test_intrinsic_estimate_rejects_non_finite_alpha(alpha):
    with pytest.raises(UsageError, match="alpha"):
        intrinsic_estimate(DM_PATH, alpha=alpha)


@pytest.mark.parametrize("alpha", ["1", True, None, [1.0]])
def test_intrinsic_estimate_rejects_non_real_alpha(alpha):
    with pytest.raises(UsageError, match="alpha"):
        intrinsic_estimate(DM_PATH, alpha=alpha)


@pytest.mark.parametrize(
    "dm, alpha, match",
    [
        (DM_PATH, 1100.0, "overflow"),  # 2 ** 1100 is inf
        (DM_PATH * 1e-3, 200.0, "underflow"),  # every positive term rounds to 0
        (DM_PATH * 1e-200, 2.0, "underflow"),
        (DM_PATH * 8e307, 1.0, "overflow"),  # finite terms, infinite row sum
    ],
    ids=["power-overflow", "all-underflow", "square-underflow", "sum-overflow"],
)
def test_intrinsic_estimate_out_of_range_powers_are_numeric_errors(dm, alpha, match):
    # without the check these returned objective inf or 0 (every row tied, so
    # index 0 won) or raised a bare OverflowError
    with pytest.raises(NumericError, match=match):
        intrinsic_estimate(dm, alpha=alpha)


def test_medoid_collinear_picks_middle():
    pts = np.array([[0.0], [1.0], [3.0]])
    est = euclidean_medoid(pts, alpha=1.0)
    assert est.index == 1
    assert est.objective == 3.0  # 1 + 2


def test_medoid_squared_distances_move_toward_mean():
    # alpha=2 objective is minimized near the coordinate mean, alpha=1 near
    # the coordinate median; 0,1,2,10 separates the two
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    assert euclidean_medoid(pts, alpha=1.0).index == 1
    assert euclidean_medoid(pts, alpha=2.0).index == 2


def test_frechet_mean_is_coordinate_mean():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    assert cross_sectional_mean(pts).tolist() == [1.0, 1.0]


def test_frechet_mean_gradient_vanishes():
    # sum of squared distances is quadratic, so central differences are exact
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 3))
    mean = cross_sectional_mean(pts)

    def objective(x):
        return float(np.sum((pts - x) ** 2))

    h = 1e-4
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        grad = (objective(mean + e) - objective(mean - e)) / (2 * h)
        assert abs(grad) < 1e-9


def test_cross_sectional_mean_plain_array():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert cross_sectional_mean(values).tolist() == [2.0, 3.0]


def test_cross_sectional_mean_accepts_panel():
    from curvemedian import CurvePanel

    panel = CurvePanel(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert cross_sectional_mean(panel).tolist() == [2.0, 3.0]


def test_cross_sectional_mean_ragged_rejected():
    for values in (np.array([[1.0, 2.0], [3.0]], dtype=object), [[1.0, 2.0], [3.0]], [["a", "b"]]):
        with pytest.raises(UsageError, match="rectangular 2-D array"):
            cross_sectional_mean(values)


def test_cross_sectional_mean_empty_rejected():
    with pytest.raises(UsageError):
        cross_sectional_mean(np.empty((0, 3)))


def test_cross_sectional_mean_is_finite_or_numeric_error():
    # the sum of finite values overflows; a NaN was returned as the mean
    for values in ([[1e308], [1.5e308]], [[1.0, np.nan], [2.0, 3.0]]):
        with pytest.raises(NumericError, match="pointwise mean is not finite"):
            cross_sectional_mean(values)


def test_pairwise_matrix_matches_norms():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(10, 4))
    dm = pairwise_euclidean_matrix(pts)
    for i in range(10):
        for j in range(10):
            assert dm[i, j] == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])), abs=1e-12)


def test_pairwise_matrix_of_a_one_dimensional_cloud_is_the_pipelines(monkeypatch):
    # a 1-D input is n points on a line, to the pipeline and here alike
    from curvemedian import graphs

    built, build = [], graphs._pairwise_distances
    monkeypatch.setattr(graphs, "_pairwise_distances", lambda pts: built.append(build(pts)) or built[-1])
    x = [3.0, -1.0, 0.5, 2.0, 0.5]
    geodesic_pipeline(x)
    dm = pairwise_euclidean_matrix(x)
    assert len(built) == 1 and dm.tobytes() == built[0].tobytes()
    assert dm.tobytes() == pairwise_euclidean_matrix(np.array(x)[:, None]).tobytes()


def test_pairwise_matrix_rejects_non_finite():
    with pytest.raises(UsageError, match="non-finite"):
        pairwise_euclidean_matrix(np.array([[0.0, 1.0], [np.nan, 2.0]]))


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
def test_argmin_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    pts = rng.normal(size=(n, 2))
    dm = pairwise_euclidean_matrix(pts)
    alpha = float(rng.uniform(0.5, 3.0))
    base = intrinsic_estimate(dm, alpha=alpha)
    scaled = intrinsic_estimate(dm * scale, alpha=alpha)
    assert base.index == scaled.index


@given(st.integers(min_value=0, max_value=10_000))
def test_argmin_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    pts = rng.normal(size=(n, 3))
    dm = pairwise_euclidean_matrix(pts)
    alpha = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    est = intrinsic_estimate(dm, alpha=alpha)
    want_index, want_obj = brute_force_argmin(dm, alpha)
    assert est.index == want_index
    assert est.objective == pytest.approx(want_obj, rel=1e-12)


def test_brute_force_sweep_thousand_matrices():
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        dm = pairwise_euclidean_matrix(rng.normal(size=(n, 2)))
        alpha = float(rng.uniform(0.3, 3.5))
        est = intrinsic_estimate(dm, alpha=alpha)
        want_index, want_obj = brute_force_argmin(dm, alpha)
        assert est.index == want_index
        assert est.objective == pytest.approx(want_obj, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_one_dimensional_cloud_alpha_one_finds_lower_median(seed):
    # on a line the geodesic estimate with alpha=1 is a sample median; with
    # ties the smallest-index rule selects the lower one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    xs = np.sort(rng.normal(size=n))
    pts = xs.reshape(-1, 1)
    res = geodesic_pipeline(pts)
    est = intrinsic_estimate(res.distances, alpha=1.0)
    order = np.argsort(xs, kind="stable")
    lower = order[(n - 1) // 2]
    objective = lambda k: math.fsum(abs(xs - xs[k]).tolist())
    assert objective(est.index) == pytest.approx(objective(lower), rel=1e-12)
