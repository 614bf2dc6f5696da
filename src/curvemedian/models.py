"""Curve observation models, their simulators, and exact shift-model answers.

Models shipped here:

* pure shift: rows are f(t_j - a_i) for a common target f and random
  shifts a_i drawn uniformly from an interval;
* three-parameter warp: rows are A_i * f(B_i * t_j - C_i) with uniform
  amplitude, time scale, and time shift;
* noisy parabola cloud: 2-D points along x2 = 2 * x1**2 with Gaussian
  coordinate noise (none at sd 0).

For the pure shift model the curves trace a one-dimensional path in R^m
parametrized by the shift, and the exact geodesic distance between two
curves is the arc length of that path between their shifts.  That integral
is evaluated by composite Simpson quadrature with interval halving, which
gives an independent reference for the graph-based distance estimates and
for the representative-curve estimators built on them.

All randomness flows through numpy's default generator (PCG64) seeded per
configuration, so every sample is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericError, UsageError, _float_array, _number, _physical_memory
from .panel_io import CurvePanel

if TYPE_CHECKING:
    from .stats import IntrinsicEstimate

__all__ = [
    "TargetFunction",
    "TARGETS",
    "get_target",
    "ShiftConfig",
    "Sim1Config",
    "Sim2Config",
    "generate_shift_sample",
    "generate_sim1",
    "sim1_truth",
    "generate_sim2",
    "exact_shift_geodesic",
    "exact_geodesic_matrix",
    "intrinsic_median_exact",
]


@dataclass(frozen=True)
class TargetFunction:
    """A scalar target curve with its derivative, both vectorized over numpy arrays."""

    name: str
    f: Callable
    derivative: Callable


TARGETS: Dict[str, TargetFunction] = {
    "tsin": TargetFunction(
        "tsin",
        lambda t: t * np.sin(t),
        lambda t: np.sin(t) + t * np.cos(t),
    ),
    "identity": TargetFunction(
        "identity",
        lambda t: np.asarray(t, dtype=float) + 0.0,
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
    ),
    "gaussian_bump": TargetFunction(
        "gaussian_bump",
        lambda t: np.exp(-0.5 * np.asarray(t, dtype=float) ** 2),
        lambda t: -np.asarray(t, dtype=float) * np.exp(-0.5 * np.asarray(t, dtype=float) ** 2),
    ),
}


def get_target(target) -> TargetFunction:
    """Resolve a registry name, or pass a TargetFunction through.

    A custom curve is a `TargetFunction`, which carries its own derivative;
    anything else, a bare callable included, is refused.
    """
    if isinstance(target, TargetFunction):
        return target
    if isinstance(target, str):
        try:
            return TARGETS[target]
        except KeyError:
            raise UsageError(
                f"unknown target function {target!r}; known: {sorted(TARGETS)}"
            ) from None
    raise UsageError(f"cannot interpret {target!r} as a target function")


def _check_range(name, pair) -> Tuple[float, float]:
    """An interval lo < hi of two real numbers (not bools) whose width is finite, refused otherwise."""
    two = f"{name} must be a pair of numbers (lo, hi)"
    pair = pair.tolist() if isinstance(pair, np.ndarray) else pair
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise UsageError(f"{two}, got {pair!r}")
    lo, hi = _number(pair[0], two), _number(pair[1], two)
    if not (lo < hi and hi - lo < np.inf):
        raise UsageError(f"{name} must be a finite interval (lo < hi), got ({lo}, {hi})")
    return lo, hi


@dataclass
class ShiftConfig:
    """Pure shift model: n rows f(t_j - a_i), a_i uniform on shift_range.

    Explicit `shifts` override the law (and make `n`/`seed` irrelevant).
    """

    target: Union[str, TargetFunction] = "tsin"
    n: int = 51
    m: int = 100
    t_range: Tuple[float, float] = (-10.0, 10.0)
    shift_range: Tuple[float, float] = (-2.0, 2.0)
    shifts: Optional[Sequence[float]] = None
    seed: int = 0


@dataclass
class Sim1Config:
    """Noisy parabola cloud: points near (u, 2u**2) for u equispaced on [-1, 1]."""

    n: int = 300
    noise_sd: float = 0.1
    seed: int = 0


@dataclass
class Sim2Config:
    """Three-parameter warp model: rows A_i * f(B_i * t_j - C_i).

    Amplitudes and shifts are uniform on [-10, 10], time scales uniform on
    [-1, 1] by default.
    """

    target: Union[str, TargetFunction] = "tsin"
    n: int = 100
    m: int = 100
    t_range: Tuple[float, float] = (-10.0, 10.0)
    amp_range: Tuple[float, float] = (-10.0, 10.0)
    scale_range: Tuple[float, float] = (-1.0, 1.0)
    shift_range: Tuple[float, float] = (-10.0, 10.0)
    seed: int = 0


def _grid_span(n: int, m: int, t_range) -> Tuple[float, float, int]:
    """np.linspace's (lo, hi, m) for the grid of a sample of n curves that fits in memory (`_fits`)."""
    m = _count("m", m, 2)
    lo, hi = _check_range("t_range", t_range)
    _fits(n, m)
    return lo, hi, m


def _fits(n: int, m: int) -> None:
    """Refuses (`UsageError`), before anything is allocated, a sample of n rows of m values whose
    arrays would not fit in physical memory, where numpy's own size limit lies far beyond: a
    generator holds at most four n x m float64 arrays (arguments, values, a temporary of each)."""
    have = _physical_memory()
    if 4 * 8 * n * m > have:  # exact integers, whatever their size
        raise UsageError(f"a sample of {n} x {m} values does not fit in this machine's {have / 1e9:.3g} GB")


def _count(name: str, value, least: int) -> int:
    """`value`, refused unless an integer (not a bool) of at least `least`."""
    return _number(value, f"{name} must be an integer >= {least}", lambda v: v >= least, integer=True)


def _seed(seed) -> int:
    """A seed for numpy's default generator, refused unless a nonnegative integer (not a bool)."""
    return _number(seed, "seed must be a nonnegative integer", lambda s: s >= 0, integer=True)


def _finite_or_raise(values: np.ndarray, arguments: np.ndarray, what: str):
    if not np.isfinite(values).all():  # the method, a few us faster than np.all
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NumericError(f"{what} produced a non-finite value at argument {arguments[i, j]!r}")


def generate_shift_sample(cfg: ShiftConfig) -> CurvePanel:
    """Sample the pure shift model; ground-truth shifts ride along."""
    target = get_target(cfg.target)
    if cfg.shifts is not None:
        nonempty = "explicit shifts must be a nonempty 1-D sequence of numbers"
        shifts = _float_array(cfg.shifts, UsageError, nonempty, lambda s: s.ndim == 1 and s.size > 0)
        grid = np.linspace(*_grid_span(shifts.size, cfg.m, cfg.t_range))
    else:
        grid = np.linspace(*_grid_span(_count("n", cfg.n, 1), cfg.m, cfg.t_range))
        lo, hi = _check_range("shift_range", cfg.shift_range)
        shifts = np.random.default_rng(_seed(cfg.seed)).uniform(lo, hi, cfg.n)
    args = grid[None, :] - shifts[:, None]
    values = np.asarray(target.f(args), dtype=float)
    _finite_or_raise(values, args, f"target {target.name!r}")
    return CurvePanel(grid=grid, values=values, shifts=shifts, target=target.name)


def sim1_truth(n: int) -> np.ndarray:
    """Noise-free parabola sample: (u_i, 2u_i**2), u_i equispaced on [-1, 1]."""
    _fits(_count("n", n, 2), 2)
    i = np.arange(1, n + 1, dtype=float)
    u = (2.0 * i - n - 1.0) / (n - 1.0)
    return np.column_stack([u, 2.0 * u**2])


def generate_sim1(cfg: Sim1Config) -> np.ndarray:
    """Parabola cloud with i.i.d. Gaussian coordinate noise (default sd 0.1;
    sd 0 gives `sim1_truth` exactly)."""
    base = sim1_truth(cfg.n)
    sd = _number(cfg.noise_sd, "noise_sd must be finite and nonnegative", lambda s: 0.0 <= s < np.inf)
    return base + np.random.default_rng(_seed(cfg.seed)).normal(0.0, sd, size=base.shape)


def generate_sim2(cfg: Sim2Config) -> CurvePanel:
    """Sample the three-parameter warp model; parameters ride along."""
    target = get_target(cfg.target)
    grid = np.linspace(*_grid_span(_count("n", cfg.n, 1), cfg.m, cfg.t_range))
    rng = np.random.default_rng(_seed(cfg.seed))

    def draw(name):
        return rng.uniform(*_check_range(name, getattr(cfg, name)), cfg.n)

    amp, scale, shift = draw("amp_range"), draw("scale_range"), draw("shift_range")
    args = scale[:, None] * grid[None, :] - shift[:, None]
    values = amp[:, None] * np.asarray(target.f(args), dtype=float)
    _finite_or_raise(values, args, f"target {target.name!r}")
    return CurvePanel(
        grid=grid,
        values=values,
        warp_params={"amplitude": amp, "scale": scale, "shift": shift},
        target=target.name,
    )


# exact_shift_geodesic's quadrature: relative agreement of two successive
# estimates, and the most subintervals it tries
_QUAD_REL_TOL = 1e-8
_QUAD_MAX_INTERVALS = 2**20


def _simpson(values: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def exact_shift_geodesic(target, grid, a1: float, a2: float) -> float:
    """Exact geodesic distance between shift-model curves at shifts a1 and a2.

    The shift-model curves form a path a -> (f(t_1 - a), ..., f(t_m - a)) in
    R^m whose speed is the Euclidean norm of the componentwise derivative;
    the distance is the arc length between the two shifts.  `target` is a
    registry name or a `TargetFunction`, whose own derivative gives the
    speed.  Composite Simpson quadrature, halving the step until two
    successive estimates agree to `_QUAD_REL_TOL` relative; failing to
    converge within `_QUAD_MAX_INTERVALS` subintervals raises NumericError
    reporting the tolerance reached.
    """
    nonempty = "grid must be a nonempty 1-D array of numbers"
    g = _float_array(grid, UsageError, nonempty, lambda g: g.ndim == 1 and g.size > 0)
    tgt = get_target(target)
    a1, a2 = (_number(a, "shifts must be finite numbers", math.isfinite) for a in (a1, a2))
    if a1 == a2:
        return 0.0
    lo, hi = (a1, a2) if a1 < a2 else (a2, a1)

    def speed(nodes: np.ndarray) -> np.ndarray:
        d = np.asarray(tgt.derivative(g[None, :] - nodes[:, None]), dtype=float)
        if not np.all(np.isfinite(d)):
            raise NumericError(f"derivative of target {tgt.name!r} is not finite on the integration window")
        return np.sqrt(np.einsum("ij,ij->i", d, d))

    n_iv = 2
    prev = _simpson(speed(np.linspace(lo, hi, n_iv + 1)), (hi - lo) / n_iv)
    while n_iv < _QUAD_MAX_INTERVALS:
        n_iv *= 2
        cur = _simpson(speed(np.linspace(lo, hi, n_iv + 1)), (hi - lo) / n_iv)
        if abs(cur - prev) <= _QUAD_REL_TOL * max(abs(cur), 1e-30):
            return abs(cur)
        prev = cur
    achieved = abs(cur - prev) / max(abs(cur), 1e-30)
    raise NumericError(
        f"quadrature did not converge below relative tolerance {_QUAD_REL_TOL:g}: "
        f"reached {achieved:.3e} after {n_iv} subintervals"
    )


def exact_geodesic_matrix(target, grid, shifts) -> np.ndarray:
    """Pairwise exact geodesic distances for a set of shifts.

    The path is one-dimensional, so arc length is additive along sorted
    shifts: integrate consecutive gaps once and difference the prefix sums
    instead of integrating all n*(n-1)/2 pairs.
    """
    nonempty = "shifts must be a nonempty 1-D array of numbers"
    s = _float_array(shifts, UsageError, nonempty, lambda s: s.ndim == 1 and s.size > 0)
    order = np.argsort(s, kind="stable")
    srt = s[order]
    gaps = [exact_shift_geodesic(target, grid, srt[k], srt[k + 1]) for k in range(s.size - 1)]
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    dm_sorted = np.abs(pos[:, None] - pos[None, :])
    dm = np.empty_like(dm_sorted)
    dm[np.ix_(order, order)] = dm_sorted
    return dm


def intrinsic_median_exact(panel: CurvePanel, target=None) -> IntrinsicEstimate:
    """Intrinsic median of a shift-model panel under exact geodesic distances.

    Builds the exact pairwise arc-length matrix and minimizes the summed
    distance (alpha = 1) over the sample.
    """
    from .stats import intrinsic_estimate  # loaded only when asked for

    if panel.shifts is None:
        raise UsageError("panel carries no ground-truth shifts")
    tgt = get_target(target if target is not None else panel.target)
    dm = exact_geodesic_matrix(tgt, panel.grid, panel.shifts)
    return intrinsic_estimate(dm, alpha=1.0)
