import math
import warnings

import numpy as np
import pytest
from scipy import stats

from curvemedian import (
    CurvePanel,
    NumericError,
    ShiftConfig,
    Sim1Config,
    Sim2Config,
    TARGETS,
    TargetFunction,
    UsageError,
    exact_geodesic_matrix,
    exact_shift_geodesic,
    generate_shift_sample,
    generate_sim1,
    generate_sim2,
    get_target,
    intrinsic_median_exact,
    sim1_truth,
    structural_median_oracle,
)

from oracles import riemann_shift_geodesic


# ----------------------------------------------------------------- targets

def test_target_registry_values():
    t = np.array([0.0, np.pi / 2, np.pi])
    assert TARGETS["tsin"].f(t) == pytest.approx([0.0, np.pi / 2, 0.0], abs=1e-12)
    assert TARGETS["tsin"].derivative(t) == pytest.approx([0.0, 1.0, -np.pi], abs=1e-12)
    assert TARGETS["identity"].f(t).tolist() == t.tolist()
    assert TARGETS["gaussian_bump"].f(np.array([0.0]))[0] == 1.0


def test_get_target_unknown_name():
    with pytest.raises(UsageError, match="unknown target"):
        get_target("nope")


def test_get_target_passthrough_and_callable():
    assert get_target(TARGETS["tsin"]) is TARGETS["tsin"]
    custom = TargetFunction("cos", np.cos, lambda t: -np.sin(t))
    assert get_target(custom) is custom
    # a bare callable carries no derivative: wrap it in a TargetFunction
    for target in (np.cos, lambda t: t):
        with pytest.raises(UsageError, match="cannot interpret"):
            get_target(target)
        with pytest.raises(UsageError, match="cannot interpret"):
            generate_shift_sample(ShiftConfig(target=target, n=2))


# ------------------------------------------------------------------- panel

def test_panel_rejects_bad_grid():
    with pytest.raises(UsageError):
        CurvePanel(np.array([0.0, 0.0, 1.0]), np.zeros((1, 3)))
    with pytest.raises(UsageError):
        CurvePanel(np.array([1.0]), np.zeros((1, 1)))


@pytest.mark.parametrize(
    "grid, message",
    [
        ([-1.797e308, 1.797e308], None),
        ([1.797e308, -1.797e308], "strictly increasing"),
        ([0.0, math.nan], "strictly increasing"),
        ([math.inf, math.inf], "strictly increasing"),
        ([-math.inf, math.inf], "non-finite"),
    ],
)
def test_panel_grid_check_at_the_ends_of_the_float_range_warns_nothing(grid, message):
    # the grid's neighbours are compared, never subtracted: their difference
    # can overflow, or be inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert CurvePanel(np.array(grid), np.zeros((1, 2))).grid.tolist() == grid
        else:
            with pytest.raises(UsageError, match=message):
                CurvePanel(np.array(grid), np.zeros((1, 2)))


def test_panel_rejects_shape_mismatch():
    with pytest.raises(UsageError):
        CurvePanel(np.array([0.0, 1.0]), np.zeros((2, 3)))
    with pytest.raises(UsageError):
        CurvePanel(np.array([0.0, 1.0]), np.zeros((2, 2)), labels=["a"])
    with pytest.raises(UsageError):
        CurvePanel(np.array([0.0, 1.0]), np.zeros((2, 2)), shifts=[0.0])


def test_panel_rejects_non_finite_values():
    with pytest.raises(UsageError):
        CurvePanel(np.array([0.0, 1.0]), np.array([[1.0, np.nan]]))


# ------------------------------------------------------------- shift model

def test_shift_sample_identity_target_explicit_shifts():
    panel = generate_shift_sample(
        ShiftConfig(target="identity", m=4, t_range=(0.0, 3.0), shifts=[0.0, 1.0])
    )
    assert panel.grid.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert panel.values.tolist() == [[0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0, 2.0]]
    assert panel.shifts.tolist() == [0.0, 1.0]
    assert panel.target == "identity"


def test_shift_sample_rows_recompute_from_stored_shifts():
    panel = generate_shift_sample(ShiftConfig(n=13, seed=9))
    args = panel.grid[None, :] - panel.shifts[:, None]
    assert np.array_equal(panel.values, TARGETS["tsin"].f(args))


def test_shift_sample_shifts_follow_config_law():
    panel = generate_shift_sample(ShiftConfig(n=40, seed=5, shift_range=(-2.0, 2.0)))
    assert panel.shifts.shape == (40,)
    assert (np.abs(panel.shifts) <= 2.0).all()
    rng = np.random.default_rng(5)
    assert np.array_equal(panel.shifts, rng.uniform(-2.0, 2.0, 40))


def test_shift_sample_non_finite_target_reports_argument():
    f = lambda t: np.where(np.abs(np.asarray(t)) > 2.0, np.nan, np.asarray(t, dtype=float))
    bad = TargetFunction("bad", f, lambda t: np.ones_like(np.asarray(t, dtype=float)))
    with pytest.raises(NumericError, match="target 'bad' produced a non-finite value at argument"):
        generate_shift_sample(ShiftConfig(target=bad, m=10, shifts=[0.0]))


def test_shift_sample_deterministic():
    a = generate_shift_sample(ShiftConfig(n=8, seed=3))
    b = generate_shift_sample(ShiftConfig(n=8, seed=3))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.shifts, b.shifts)


# ---------------------------------------------------------------- parabola

def test_sim1_truth_small():
    assert sim1_truth(5).tolist() == [
        [-1.0, 2.0],
        [-0.5, 0.5],
        [0.0, 0.0],
        [0.5, 0.5],
        [1.0, 2.0],
    ]


def test_sim1_noiseless_equals_truth():
    for n in (2, 3, 30, 301):
        for seed in (0, 1, 99):
            assert np.array_equal(generate_sim1(Sim1Config(n=n, noise_sd=0.0, seed=seed)), sim1_truth(n))


def test_sim1_noise_level():
    cloud = generate_sim1(Sim1Config(n=300, seed=0))
    resid = cloud - sim1_truth(300)
    sd = float(resid.std())
    assert 0.08 <= sd <= 0.12
    assert abs(float(resid.mean())) < 0.02


def test_sim1_rejects_tiny_n():
    with pytest.raises(UsageError):
        sim1_truth(1)


@pytest.mark.parametrize("sd", [float("nan"), float("inf"), -1.0])
def test_sim1_rejects_bad_noise_sd(sd):
    with pytest.raises(UsageError, match="noise_sd"):
        generate_sim1(Sim1Config(n=5, noise_sd=sd))


BAD_RANGES = {
    "infinite": (0.0, float("inf")),
    "minus infinite": (float("-inf"), 0.0),
    "nan": (float("nan"), 1.0),
    "overflowing width": (-1e308, 1e308),
    "empty": (1.0, 1.0),
}


@pytest.mark.parametrize("pair", BAD_RANGES.values(), ids=BAD_RANGES.keys())
@pytest.mark.parametrize(
    "config, field",
    [(ShiftConfig, "t_range"), (ShiftConfig, "shift_range"), (Sim2Config, "t_range"),
     (Sim2Config, "amp_range"), (Sim2Config, "scale_range"), (Sim2Config, "shift_range")],
    ids=["shift-t", "shift-shift", "sim2-t", "sim2-amp", "sim2-scale", "sim2-shift"],
)
def test_bad_ranges_are_usage_errors(config, field, pair):
    generate = generate_shift_sample if config is ShiftConfig else generate_sim2
    with pytest.raises(UsageError, match=f"{field} must be a finite interval"):
        generate(config(n=3, m=5, **{field: pair}))


# --------------------------------------------------------------- sim2 warp

def test_sim2_rows_recompute_from_stored_parameters():
    # values == amplitude * f(scale * t - shift), bit for bit, for every target
    for name, target in TARGETS.items():
        panel = generate_sim2(Sim2Config(target=name, n=20, seed=7))
        assert panel.target == name
        wp = panel.warp_params
        args = wp["scale"][:, None] * panel.grid[None, :] - wp["shift"][:, None]
        want = wp["amplitude"][:, None] * target.f(args)
        assert np.array_equal(panel.values, want)


def test_sim2_draw_order_is_amplitude_scale_shift():
    panel = generate_sim2(Sim2Config(n=15, seed=11))
    rng = np.random.default_rng(11)
    assert np.array_equal(panel.warp_params["amplitude"], rng.uniform(-10, 10, 15))
    assert np.array_equal(panel.warp_params["scale"], rng.uniform(-1, 1, 15))
    assert np.array_equal(panel.warp_params["shift"], rng.uniform(-10, 10, 15))


def test_sim2_parameters_match_uniform_laws():
    panel = generate_sim2(Sim2Config(n=500, seed=1))
    wp = panel.warp_params
    assert stats.kstest(wp["amplitude"], "uniform", args=(-10, 20)).pvalue > 0.01
    assert stats.kstest(wp["scale"], "uniform", args=(-1, 2)).pvalue > 0.01
    assert stats.kstest(wp["shift"], "uniform", args=(-10, 20)).pvalue > 0.01


# ---------------------------------------------------------- exact geodesic

def test_exact_geodesic_identity_target_is_scaled_gap():
    grid = np.linspace(0.0, 1.0, 25)
    got = exact_shift_geodesic("identity", grid, 0.3, -0.7)
    assert got == pytest.approx(math.sqrt(25) * 1.0, rel=1e-12)


def test_exact_geodesic_zero_for_equal_shifts():
    assert exact_shift_geodesic("tsin", np.linspace(-10, 10, 100), 1.3, 1.3) == 0.0


def test_exact_geodesic_symmetric():
    grid = np.linspace(-10, 10, 60)
    assert exact_shift_geodesic("tsin", grid, -0.4, 1.1) == exact_shift_geodesic(
        "tsin", grid, 1.1, -0.4
    )


def test_exact_geodesic_matches_riemann_oracle():
    grid = np.linspace(-10, 10, 40)
    for a1, a2 in [(0.0, 0.5), (-1.2, 0.9)]:
        got = exact_shift_geodesic("tsin", grid, a1, a2)
        want = riemann_shift_geodesic(TARGETS["tsin"].derivative, grid, a1, a2)
        assert got == pytest.approx(want, rel=1e-6)


def test_exact_geodesic_additive_along_the_path():
    grid = np.linspace(-10, 10, 50)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b, c = np.sort(rng.uniform(-2, 2, 3))
        whole = exact_shift_geodesic("tsin", grid, a, c)
        parts = exact_shift_geodesic("tsin", grid, a, b) + exact_shift_geodesic("tsin", grid, b, c)
        assert whole == pytest.approx(parts, rel=1e-7)


def test_exact_geodesic_rejects_non_finite_shift():
    with pytest.raises(UsageError):
        exact_shift_geodesic("tsin", np.linspace(0, 1, 5), 0.0, np.inf)


def test_exact_matrix_agrees_with_pairwise_calls():
    grid = np.linspace(-10, 10, 40)
    shifts = np.array([0.7, -1.3, 0.0, 1.9, -0.2])
    dm = exact_geodesic_matrix("tsin", grid, shifts)
    assert np.array_equal(dm, dm.T)
    assert np.diagonal(dm).tolist() == [0.0] * 5
    for i in range(5):
        for j in range(i + 1, 5):
            want = exact_shift_geodesic("tsin", grid, shifts[i], shifts[j])
            assert dm[i, j] == pytest.approx(want, rel=1e-6)


# --------------------------------------------------------- oracle medians

def test_structural_median_identity_shifts():
    panel = generate_shift_sample(
        ShiftConfig(target="identity", m=5, t_range=(0.0, 4.0), shifts=[-1.0, 0.0, 2.0])
    )
    assert structural_median_oracle(panel).tolist() == panel.grid.tolist()


def test_structural_median_single_curve():
    panel = generate_shift_sample(
        ShiftConfig(target="identity", m=5, t_range=(0.0, 4.0), shifts=[0.7])
    )
    assert structural_median_oracle(panel).tolist() == (panel.grid - 0.7).tolist()


def test_structural_median_even_n_takes_lower_middle():
    panel = generate_shift_sample(
        ShiftConfig(target="identity", m=5, t_range=(0.0, 4.0), shifts=[3.0, 1.0, 2.0, 4.0])
    )
    # sorted shifts 1,2,3,4; rank (4-1)//2 = 1 -> shift 2
    assert structural_median_oracle(panel).tolist() == (panel.grid - 2.0).tolist()


def test_structural_median_requires_shifts():
    panel = CurvePanel(np.array([0.0, 1.0]), np.zeros((1, 2)))
    with pytest.raises(UsageError):
        structural_median_oracle(panel)


def test_intrinsic_median_exact_picks_middle_shift():
    panel = generate_shift_sample(ShiftConfig(shifts=[0.0, 0.1, 5.0]))
    est = intrinsic_median_exact(panel)
    assert est.index == 1
    assert est.alpha == 1.0


def test_intrinsic_median_exact_single_curve():
    panel = generate_shift_sample(ShiftConfig(shifts=[1.5]))
    est = intrinsic_median_exact(panel)
    assert est.index == 0 and est.objective == 0.0


def test_intrinsic_median_exact_matches_true_median_rank():
    rng = np.random.default_rng(6)
    shifts = rng.uniform(-2, 2, 9)
    panel = generate_shift_sample(ShiftConfig(shifts=shifts))
    est = intrinsic_median_exact(panel)
    order = np.argsort(shifts, kind="stable")
    assert est.index == order[(9 - 1) // 2]
