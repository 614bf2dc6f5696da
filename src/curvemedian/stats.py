"""Location estimators driven by a pairwise distance matrix.

The central estimator picks the sample point minimizing the sum of
alpha-th powers of its distances to everyone else; with alpha=1 on
geodesic-style distances that is an intrinsic sample median, with
Euclidean distances it is the classical medoid.  Euclidean baselines
live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError, _float_array, _number
from .geometry import _cloud, _distance_matrix, _pairwise_distances

__all__ = [
    "IntrinsicEstimate",
    "intrinsic_estimate",
    "euclidean_medoid",
    "cross_sectional_mean",
    "pairwise_euclidean_matrix",
]


@dataclass(frozen=True)
class IntrinsicEstimate:
    index: int
    objective: float
    alpha: float


def _alpha(alpha) -> float:
    """The objective's exponent as a float, refused unless a positive finite real (not a bool)."""
    return _number(alpha, "alpha must be a positive finite number", lambda a: 0.0 < a < math.inf)


def intrinsic_estimate(distance_matrix, alpha: float = 1.0) -> IntrinsicEstimate:
    """Index minimizing sum_j d(i, j)**alpha, ties going to the smallest index.

    The objectives are exact row sums, correctly rounded (`math.fsum`), so
    the argmin does not depend on summation order; only the rows that can
    win are summed so.  A numpy row sum s^ of n nonnegative terms with exact
    sum s is off by |s^ - s| <= gamma_(n-1) * s in any summation order,
    where gamma_k = k u / (1 - k u) and u = 2^-53: each term passes through
    at most n - 1 roundings.  So s lies in [s^ (1 - 4 n u), s^ (1 + 4 n u)],
    the factor 4 also covering the roundings of the two products, and the
    rounded s in the same interval, whose ends are floats.  A row whose
    lower end is above the smallest upper end loses to that row outright;
    the rest, and every row whose upper end reaches the largest float (its
    exact sum may overflow), are summed exactly.

    `UsageError` refuses a matrix that is not a nonempty square array of
    finite nonnegative numbers, zero on the diagonal and exactly symmetric,
    and an `alpha` not positive and finite; a power or row sum that
    overflows float64, or a positive distance whose power underflows to
    zero, raises `NumericError` rather than returning an objective that can
    no longer rank the rows.
    """
    dm = _distance_matrix(distance_matrix)
    alpha = _alpha(alpha)
    powered = dm
    if alpha != 1.0:  # at alpha 1 the power is dm, which _distance_matrix proved finite
        with np.errstate(over="ignore"):
            powered = dm**alpha
        if not np.isfinite(powered).all():
            raise NumericError(f"distances to the power alpha={alpha} overflow float64")
        if ((powered == 0.0) & (dm > 0.0)).any():
            raise NumericError(f"positive distances to the power alpha={alpha} underflow to zero")
    slack = 4.0 * len(powered) * 2.0**-53
    with np.errstate(over="ignore"):  # an overflow leaves inf, summed exactly below
        sums = powered.sum(axis=1)
        low, high = sums * (1.0 - slack), sums * (1.0 + slack)
    rows = np.flatnonzero((low <= high.min()) | (high >= np.finfo(float).max))
    try:
        objectives = [math.fsum(row) for row in powered[rows].tolist()]
    except OverflowError:
        raise NumericError(f"sums of distances to the power alpha={alpha} overflow float64") from None
    best = min(range(len(objectives)), key=objectives.__getitem__)
    return IntrinsicEstimate(index=int(rows[best]), objective=objectives[best], alpha=alpha)


def pairwise_euclidean_matrix(cloud) -> np.ndarray:
    """Euclidean distance matrix of a cloud, the one `geodesic_pipeline` builds."""
    return _pairwise_distances(_cloud(cloud))


def euclidean_medoid(cloud, alpha: float = 1.0) -> IntrinsicEstimate:
    """Medoid baseline: the intrinsic objective on plain Euclidean distances."""
    return intrinsic_estimate(pairwise_euclidean_matrix(cloud), alpha=alpha)


def cross_sectional_mean(panel) -> np.ndarray:
    """Pointwise mean curve of a panel (rows = curves); the
    squared-Euclidean barycenter of the sample.

    Accepts a CurvePanel or a rectangular 2-D array; ragged or empty input
    is a usage error.
    """
    rectangular = "panel rows must form a rectangular 2-D array"
    arr = _float_array(getattr(panel, "values", panel), UsageError, rectangular, lambda a: a.ndim == 2)
    if arr.shape[0] == 0:
        raise UsageError("cannot average an empty panel")
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        mean = arr.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NumericError("pointwise mean is not finite: a value is not, or a sum overflows float64")
    return mean
