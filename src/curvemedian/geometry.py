"""Segment-and-ball geometry for deciding admissible chords of a point cloud.

Everything here reduces to one question: does the straight segment between
two sample points stay inside a union of balls centered at the sample?
Intersecting a segment with one ball is a quadratic in the segment
parameter, so the union test becomes an interval-union sweep on [0, 1].

Balls are treated as closed, with a small additive tolerance on the radius
and on permitted gaps.  Open boundaries are not representable in floating
point, and the closed convention guarantees that a spanning-tree edge is
always covered by the balls around its own two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NumericError, UsageError

__all__ = [
    "Ball",
    "euclidean_distance",
    "segment_ball_intersection",
    "segment_covered",
]


@dataclass(frozen=True)
class Ball:
    """Closed ball with a nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if center.ndim != 1:
            raise UsageError("ball center must be a single point")
        if not np.all(np.isfinite(center)):
            raise UsageError("ball center must be finite")
        if not self.radius >= 0.0:
            raise UsageError(f"ball radius must be nonnegative, got {self.radius}")


def _point(x) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise UsageError("a point must be a flat coordinate vector")
    return p


def euclidean_distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension."""
    pa, pb = _point(a), _point(b)
    if pa.shape != pb.shape:
        raise UsageError(
            f"dimension mismatch: point of dim {pa.size} vs point of dim {pb.size}"
        )
    d = pa - pb
    return float(np.sqrt(np.dot(d, d)))


# float64 elements per coordinate-difference block of _pairwise_distances
_BLOCK = 1 << 18


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an (n, p) array of points.

    Built in row chunks from direct coordinate differences, never from the
    |a|^2 - 2a.b + |b|^2 expansion, which cancels badly far from the origin.
    Only the upper triangle is computed and then mirrored, so the result is
    exactly symmetric with a zero diagonal.
    """
    n, p = pts.shape
    dist = np.zeros((n, n))
    rows = max(1, _BLOCK // max(1, n * p))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = pts[start:stop, None, :] - pts[None, start:, :]
        dist[start:stop, start:] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if not np.isfinite(dist).all():
        raise NumericError("pairwise distances overflow float64; rescale the points")
    upper = np.triu(dist, 1)
    return upper + upper.T


def _lambda_intervals(origins, ends, centers, radii, tol):
    """Per-(segment, ball) parameter intervals of the covered part of each segment.

    All segments are parametrized over [0, 1].  Radii are inflated by `tol`.
    Returns (lo, hi, seg_len) where lo/hi have shape (B, k); entries with an
    empty intersection carry lo=+inf, hi=-inf so they sort last and never
    extend coverage.
    """
    u = ends - origins
    seg_sq = np.einsum("bp,bp->b", u, u)
    r_eff = np.asarray(radii, dtype=float) + tol
    a_sq = np.einsum("bp,bp->b", origins, origins)
    c_sq = np.einsum("kp,kp->k", centers, centers)
    # squared distance origin->center, expanded so no (B, k, p) temp is built
    w_sq = a_sq[:, None] - 2.0 * (origins @ centers.T) + c_sq[None, :]
    b_half = np.einsum("bp,bp->b", u, origins)[:, None] - u @ centers.T
    c_term = w_sq - r_eff[None, :] ** 2

    lo = np.full(w_sq.shape, np.inf)
    hi = np.full(w_sq.shape, -np.inf)

    degen = seg_sq <= 0.0
    if degen.any():
        # a zero-length segment is covered exactly when a ball holds the point
        inside = c_term[degen] <= 0.0
        lo[degen] = np.where(inside, 0.0, np.inf)
        hi[degen] = np.where(inside, 1.0, -np.inf)
    if (~degen).any():
        rows = ~degen
        A = seg_sq[rows][:, None]
        bh = b_half[rows]
        disc = bh * bh - A * c_term[rows]
        ok = disc >= 0.0
        root = np.sqrt(np.where(ok, disc, 0.0))
        left = (-bh - root) / A
        right = (-bh + root) / A
        # intersect with [0, 1] before clipping, else an interval entirely
        # outside the segment would collapse onto an endpoint
        ok &= (right >= 0.0) & (left <= 1.0)
        left = np.clip(left, 0.0, 1.0)
        right = np.clip(right, 0.0, 1.0)
        lo[rows] = np.where(ok, left, np.inf)
        hi[rows] = np.where(ok, right, -np.inf)
    return lo, hi, np.sqrt(seg_sq)


def _union_covers(lo, hi, gap):
    """Whether the interval unions cover [0, 1], one verdict per row.

    `lo`/`hi` have shape (B, k); `gap` is the per-row tolerated gap width in
    parameter units.  Sorted sweep with early failure on the first gap.
    """
    n_rows, n_cols = lo.shape
    if n_cols == 0:
        return np.zeros(n_rows, dtype=bool)
    order = np.argsort(lo, axis=1, kind="stable")
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    reach = np.zeros(n_rows)
    alive = np.ones(n_rows, dtype=bool)
    for col in range(n_cols):
        l = lo[:, col]
        h = hi[:, col]
        pending = alive & (reach < 1.0 - gap)
        failed = pending & (l > reach + gap)
        alive &= ~failed
        take = pending & ~failed
        reach = np.where(take, np.maximum(reach, h), reach)
    return alive & (reach >= 1.0 - gap)


def segment_ball_intersection(a, b, ball: Ball, tol: float = 0.0) -> Optional[Tuple[float, float]]:
    """Parameter interval of the part of segment a->b inside the ball.

    Returns (lo, hi) in [0, 1], or None when the intersection is empty.  The
    ball radius is inflated by `tol`.  For a zero-length segment the answer
    is (0, 1) when the point lies in the ball, None otherwise.
    """
    pa, pb = _point(a), _point(b)
    if pa.shape != pb.shape or pa.shape != ball.center.shape:
        raise UsageError("segment endpoints and ball center must share one dimension")
    if tol < 0.0:
        raise UsageError(f"tolerance must be nonnegative, got {tol}")
    lo, hi, _ = _lambda_intervals(
        pa[None, :], pb[None, :], ball.center[None, :], np.array([ball.radius]), tol
    )
    if not np.isfinite(lo[0, 0]):
        return None
    return float(lo[0, 0]), float(hi[0, 0])


def segment_covered(a, b, balls: Sequence[Ball], tol: Optional[float] = None) -> bool:
    """Whether segment a->b lies inside the union of the given closed balls.

    `tol` inflates every radius and bounds the permitted total gap; it
    defaults to 1e-9 times the segment length.  An empty ball list never
    covers anything.  Adding a ball can only turn False into True.
    """
    pa, pb = _point(a), _point(b)
    if pa.shape != pb.shape:
        raise UsageError("segment endpoints must share one dimension")
    if len(balls) == 0:
        return False
    centers = np.stack([ball.center for ball in balls])
    if centers.shape[1] != pa.size:
        raise UsageError("ball centers must match the segment dimension")
    radii = np.array([ball.radius for ball in balls])
    seg_len = euclidean_distance(pa, pb)
    if tol is None:
        tol = 1e-9 * seg_len
    if tol < 0.0:
        raise UsageError(f"tolerance must be nonnegative, got {tol}")
    lo, hi, _ = _lambda_intervals(pa[None, :], pb[None, :], centers, radii, tol)
    gap = np.array([tol / seg_len if seg_len > 0.0 else 0.0])
    return bool(_union_covers(lo, hi, gap)[0])
