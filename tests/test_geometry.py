import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemedian import Ball, UsageError, euclidean_distance, segment_ball_intersection, segment_covered

from oracles import mc_segment_covered


def coords(dim, lo=-100.0, hi=100.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        min_size=dim,
        max_size=dim,
    )


# ---------------------------------------------------------------- distance

def test_distance_345():
    assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_identical_points():
    assert euclidean_distance([1.5, -2.0, 7.0], [1.5, -2.0, 7.0]) == 0.0


def test_distance_one_dimensional():
    assert euclidean_distance([2.0], [-1.0]) == 3.0


def test_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        euclidean_distance([0.0, 0.0], [1.0, 2.0, 3.0])


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(coords(d), coords(d), coords(d))))
def test_distance_metric_axioms(triple):
    a, b, c = triple
    dab = euclidean_distance(a, b)
    assert dab >= 0.0
    assert dab == euclidean_distance(b, a)
    assert euclidean_distance(a, a) == 0.0
    dac, dbc = euclidean_distance(a, c), euclidean_distance(b, c)
    scale = max(dab, dac, dbc, 1.0)
    assert dac <= dab + dbc + 1e-9 * scale


# ------------------------------------------------------------ intersection

def test_intersection_half_covered():
    lo, hi = segment_ball_intersection([0.0, 0.0], [2.0, 0.0], Ball([0.0, 0.0], 1.0))
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_intersection_whole_segment():
    assert segment_ball_intersection([0.0, 0.0], [2.0, 0.0], Ball([1.0, 0.0], 10.0)) == (0.0, 1.0)


def test_intersection_miss():
    assert segment_ball_intersection([0.0, 0.0], [2.0, 0.0], Ball([0.0, 2.0], 1.0)) is None


def test_intersection_tangent_point():
    # ball touches the segment at exactly one parameter value
    got = segment_ball_intersection([0.0, 0.0], [2.0, 0.0], Ball([1.0, 1.0], 1.0))
    assert got is not None
    lo, hi = got
    assert lo == pytest.approx(0.5, abs=1e-7)
    assert hi == pytest.approx(0.5, abs=1e-7)


def test_intersection_outside_unit_interval():
    # the ball covers the line's extension beyond the segment, not the segment
    assert segment_ball_intersection([0.0, 0.0], [1.0, 0.0], Ball([3.0, 0.0], 0.5)) is None


def test_intersection_degenerate_segment():
    assert segment_ball_intersection([1.0, 1.0], [1.0, 1.0], Ball([1.0, 1.2], 0.5)) == (0.0, 1.0)
    assert segment_ball_intersection([1.0, 1.0], [1.0, 1.0], Ball([9.0, 9.0], 0.5)) is None


def test_intersection_negative_tol_rejected():
    with pytest.raises(UsageError):
        segment_ball_intersection([0.0], [1.0], Ball([0.0], 1.0), tol=-1e-3)


@given(
    st.tuples(coords(2), coords(2), coords(2)),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_intersection_endpoints_lie_near_sphere(pts, radius, tol):
    a, b, center = pts
    got = segment_ball_intersection(a, b, Ball(center, radius), tol=tol)
    if got is None:
        return
    a = np.asarray(a)
    b = np.asarray(b)
    for lam in got:
        point = a + lam * (b - a)
        assert euclidean_distance(point, center) <= radius + 2.0 * tol + 1e-9 * (radius + 1.0)


# --------------------------------------------------------------- coverage

def test_covered_two_overlapping_balls():
    balls = [Ball([0.0, 0.0], 1.1), Ball([2.0, 0.0], 1.1)]
    assert segment_covered([0.0, 0.0], [2.0, 0.0], balls) is True


def test_covered_gap_between_balls():
    balls = [Ball([0.0, 0.0], 0.9), Ball([2.0, 0.0], 0.9)]
    assert segment_covered([0.0, 0.0], [2.0, 0.0], balls) is False


def test_covered_single_ball_spans_all():
    assert segment_covered([0.0, 0.0], [2.0, 0.0], [Ball([1.0, 0.0], 1.0)]) is True


def test_covered_empty_ball_list():
    assert segment_covered([0.0, 0.0], [2.0, 0.0], []) is False
    assert segment_covered([1.0, 1.0], [1.0, 1.0], []) is False


def test_covered_degenerate_segment_point_membership():
    assert segment_covered([1.0, 1.0], [1.0, 1.0], [Ball([1.1, 1.0], 0.2)]) is True
    assert segment_covered([1.0, 1.0], [1.0, 1.0], [Ball([5.0, 5.0], 0.2)]) is False


def test_covered_gap_exactly_at_tolerance():
    # uncovered middle piece of length 0.2; a tol that big forgives it
    balls = [Ball([0.0], 0.9), Ball([2.0], 0.9)]
    assert segment_covered([0.0], [2.0], balls, tol=0.0) is False
    assert segment_covered([0.0], [2.0], balls, tol=0.21) is True


def test_covered_gap_survives_translation_and_scale():
    # a 0.2-wide gap between two balls must stay a gap far from the origin
    # and at extreme scales
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    for shift, scale in ((1e8, 1.0), (0.0, 1e-100), (0.0, 1e100), (1e8, 1e100)):
        balls = [Ball(scale * (a + shift), scale * 0.9), Ball(scale * (b + shift), scale * 0.9)]
        assert segment_covered(scale * (a + shift), scale * (b + shift), balls) is False
        balls.append(Ball(scale * (a + b + 2.0 * shift) / 2.0, scale * 0.2))
        assert segment_covered(scale * (a + shift), scale * (b + shift), balls) is True


def test_covered_monotone_under_extra_balls():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.integers(1, 4))
        a = rng.normal(size=p)
        b = rng.normal(size=p)
        balls = [
            Ball(rng.normal(size=p), float(rng.uniform(0.05, 1.0)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        before = segment_covered(a, b, balls)
        balls.append(Ball(rng.normal(size=p), float(rng.uniform(0.05, 1.0))))
        after = segment_covered(a, b, balls)
        if before:
            assert after


def test_covered_chain_of_small_balls_along_segment():
    # 200 balls of radius 0.02 strung along a unit segment cover it
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    lam = np.linspace(0.0, 1.0, 200)
    balls = [Ball(a + l * (b - a), 0.02) for l in lam]
    assert segment_covered(a, b, balls) is True
    assert mc_segment_covered(a, b, balls, tol=1e-9) is True


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
        radii = rng.uniform(0.05, 0.6, size=k)
        balls = [Ball(centers[i], float(radii[i])) for i in range(k)]
        seg_len = euclidean_distance(a, b)
        tol = 1e-9 * seg_len
        got = segment_covered(a, b, balls, tol=tol)
        want = mc_segment_covered(a, b, balls, tol=tol)
        agree += got == want
    assert agree == total
