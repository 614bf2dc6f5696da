"""Chord-and-ball geometry for deciding admissible chords of a point cloud.

Everything here reduces to one question: which chords between sample
points stay inside the union of balls centered at the sample?  Intersecting
a chord with one ball is a quadratic in the chord parameter with squared
distances for coefficients, so the union test is a translation- and
scale-free interval-union sweep on [0, 1].

Balls are treated as closed, with a small additive tolerance on the radius
and on permitted gaps.  Open boundaries are not representable in floating
point, and the closed convention guarantees that a spanning-tree edge is
always covered by the balls around its own two endpoints.
"""

from __future__ import annotations

import math
import numbers
import os

import numpy as np

from .errors import NumericError, UsageError


# float64 elements of the (rows x cols x n) sums per block of the midpoint
# prefilter's (min, +) pass
_BLOCK = 1 << 18

# float64 elements of the coordinate-difference tensor per row block of
# `_pairwise_distances`: 512 KB, well inside a 4 MB L2.  Against the former
# 2^18, with the whole square in one block whenever n * n * p <= 2^18, one
# call went 0.46 -> 0.32 ms at n=50, p=100, 5.3 -> 4.2 ms at n=240, p=100,
# 8.6 -> 6.1 ms at n=600, p=2 and 23.3 -> 22.9 ms at n=1200, p=2 (2-vCPU
# Xeon, one BLAS thread); 2^14, 2^15 and 2^17 were slower at some size
_DIST_BLOCK = 1 << 16

# float64 elements (chords x balls) per chunk of the coverage kernel: small, so that
# the per-hit arrays stay small too, yet large enough that the fixed cost per chunk
# (some 80 numpy calls) stays a few percent of its work; 2^15 made coverage 10% slower
# at n=1200.  With n >= 2 balls a chunk holds at most _CHUNK // 2 chords: rows fit uint16
_CHUNK = 1 << 16

# coverage tolerance, as a fraction of the cloud diameter
_REL_TOL = 1e-9

# cloud extents whose squared coordinate differences `_pairwise_distances`
# takes as they are; it rescales the differences of any other cloud
_MIN_EXTENT, _MAX_EXTENT = 2.0**-400, 2.0**400

# n x n float64 matrices live at the peak of `graphs.geodesic_pipeline`,
# inside `build_coverage_graph`: the pipeline's one distance matrix, passed
# to the tree and coverage stages, and its squares make two.  A cap's mask is
# built before the squares (distances, threshold and mask: 2.1), and its few
# candidates and the kernel's scratch (about 2 MB) add little: tracemalloc
# reads 2.92, 2.38 and 2.38 on sim1 clouds of 600, 1000 and 2000 points and
# 2.81 on 1000 collinear points.  Without a cap, the kernel's candidate index
# pairs (two int64 halves) and squared lengths add one and a half when the
# prefilter rejects nothing, and its scratch and per-hit arrays (up to about
# 12 MB) the rest: 4.15 and 3.43 on the sim1 clouds of 600 and 1000 points,
# 4.98 on the collinear ones, where every chord is kept.  Shortest paths peak
# lower: the (E, 3) edge array, 1.5 for a complete graph, the dense weights
# and Floyd-Warshall's buffer.
_PEAK_MATRICES = 6


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


def _cloud(points) -> np.ndarray:
    """The cloud as a finite (n, p) float64 array; a 1-D input is n points in R^1."""
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise UsageError("a point cloud must be an (n, p) array of numbers") from None
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise UsageError("a point cloud must be a nonempty 2-D array (n, p)")
    if not np.all(np.isfinite(pts)):
        raise UsageError("point cloud contains non-finite coordinates")
    return pts


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an (n, p) array of points.

    Built from direct coordinate differences, never from the
    |a|^2 - 2a.b + |b|^2 expansion, which cancels badly far from the origin.
    Row block [start, stop) holds the distances to points start..n-1, from a
    difference tensor of about `_DIST_BLOCK` elements, and is mirrored into
    columns [start, stop), so only the upper triangle and the blocks'
    diagonal squares are computed.  Entry (i, j) is the same einsum over the
    same contiguous coordinates whatever the blocking, so the result is
    exactly symmetric with a zero diagonal.  A cloud whose extent (largest
    coordinate range) lies outside [2^-400, 2^400] has its differences
    multiplied by a power of two that brings the extent into [1/2, 1), and
    its roots divided by it: exact, so that the squares neither underflow
    nor overflow and scaling the cloud by a power of two scales the matrix
    bit for bit.  Refuses, before allocating, a cloud whose pipeline arrays
    would not fit in physical memory.
    """
    n, p = pts.shape
    need, have = _PEAK_MATRICES * 8.0 * n * n, _physical_memory()
    if need > have:
        raise UsageError(
            f"{n} points need about {need / 1e9:.3g} GB of n x n arrays; "
            f"this machine has {have / 1e9:.3g} GB"
        )
    dist = np.zeros((n, n))
    most = -(-n // 2)  # no block spans the whole square
    start = 0
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        extent = float(np.ptp(pts, axis=0).max())
        e = 0 if _MIN_EXTENT <= extent <= _MAX_EXTENT else math.frexp(extent)[1]
        while start < n - 1:
            rows = min(most, max(1, _DIST_BLOCK // max(1, (n - start) * p)))
            stop = min(n, start + rows)
            diff = pts[start:stop, None, :] - pts[None, start:, :]
            if e:
                np.ldexp(diff, -e, out=diff)
            block = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            if e:
                np.ldexp(block, e, out=block)
            dist[start:stop, start:] = block
            dist[start:, start:stop] = block.T
            start = stop
    if not np.isfinite(dist.max()):  # a reduction, where isfinite(dist) would allocate n x n
        raise NumericError("pairwise distances overflow float64; rescale the points")
    return dist


def _tolerance(tol) -> float:
    """The coverage tolerance as a float, refused unless a finite nonnegative real (not a bool)."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < np.inf:
        raise UsageError(f"tolerance must be a finite nonnegative number, got {tol!r}")
    return float(tol)


def _chord_intervals(A, sq, i, j, r, buf):
    """Nonempty parameter intervals of chords inside balls, from squared distances.

    Chord b runs from a = point i[b] to e = point j[b] over [0, 1]; ball k
    has center c_k and radius r[k] (tolerance included).  A[b] = |e - a|^2,
    and rows i[b] and j[b] of `sq` hold w[b, k] = |a - c_k|^2 and
    v[b, k] = |e - c_k|^2, all in units of the largest distance involved,
    so a radius above 1 holds any chord and radii are capped at 2.  The
    point a + t(e - a) is in the ball where A t^2 + 2 h t + w - r^2 <= 0,
    with h = (e - a).(a - c) = (v - A - w) / 2: no coordinate enters.  `buf`
    is `_covered`'s scratch with at least A.size rows.  Returns (row,
    lo, hi) of the pairs that meet, clipped to [0, 1] and sorted by lo, then
    stably by row; a zero-length chord meets a ball holding its point on [0, 1].
    """
    w, v, disc, ac, hit = (b[: A.size] for b in buf)
    np.take(sq, i, axis=0, out=w, mode="clip")
    np.take(sq, j, axis=0, out=v, mode="clip")
    half, c = v, w  # each overwrites its input once that is read
    np.subtract(v, A[:, None], out=half)
    np.subtract(half, w, out=half)
    np.multiply(0.5, half, out=half)
    np.subtract(w, np.minimum(r, 2.0) ** 2, out=c)
    np.multiply(half, half, out=disc)
    np.multiply(A[:, None], c, out=ac)
    np.subtract(disc, ac, out=disc)
    flat = A <= 0.0
    np.greater_equal(disc, 0.0, out=hit)
    hit[flat] = c[flat] <= 0.0
    idx = np.flatnonzero(hit)
    row = idx // sq.shape[1]
    a, h, root = A.take(row), half.take(idx), np.sqrt(disc.take(idx))
    flat = a <= 0.0
    a = np.where(flat, 1.0, a)
    lo = np.where(flat, 0.0, (-h - root) / a)
    hi = np.where(flat, 1.0, (-h + root) / a)
    # intersect with [0, 1] before clipping, else an interval entirely
    # outside the chord would collapse onto an endpoint
    meets = (hi >= 0.0) & (lo <= 1.0)
    row, lo, hi = row[meets], np.clip(lo[meets], 0.0, 1.0), np.clip(hi[meets], 0.0, 1.0)
    order = np.argsort(lo)
    order = order[np.argsort(row.astype(np.uint16).take(order), kind="stable")]
    return row.take(order), lo.take(order), hi.take(order)


def _covered(A, sq, i, j, r, tol):
    """Whether each chord lies in the ball union; arguments as for
    `_chord_intervals`, with `tol` in the same unit.

    Chords are decided in chunks of `_CHUNK` chord-ball pairs, sharing one
    set of kernel buffers.  One sweep per chunk: the reach before an
    interval is the largest hi among the earlier intervals of its chord (0
    for its first).  A chord fails at the first interval starting more than
    gap = tol / length past a reach short of 1 - gap, and is covered when
    its final reach is at least 1 - gap.  Neither verdict depends on the
    order of intervals with equal lo.
    """
    covered = np.empty(A.size, dtype=bool)
    rows = max(1, _CHUNK // sq.shape[1])
    # four float arrays from one block, then the boolean hit mask: allocated
    # once and refilled chunk by chunk, as fresh multi-MB temporaries would
    # come back from the allocator as newly zeroed pages
    shape = (min(rows, A.size), sq.shape[1])
    buf = list(np.empty((4, *shape))) + [np.empty(shape, dtype=bool)]
    for start in range(0, A.size, rows):
        chunk = slice(start, start + rows)
        row, lo, hi = _chord_intervals(A[chunk], sq, i[chunk], j[chunk], r, buf)
        length = np.sqrt(A[chunk])
        gap = np.divide(tol, length, out=np.zeros_like(length), where=length > 0.0)
        target = 1.0 - gap
        # per-chord running max of hi: complex order is by real part (row, never decreasing) first
        upto = np.maximum.accumulate(row + 1j * hi).imag
        ends = np.concatenate(([-1], row, [-1]))
        first = ends[1:] != ends[:-1]  # first[k]: interval k opens its chord, k - 1 closes one
        before = np.where(first[:-1], 0.0, np.concatenate(([0.0], upto[:-1])))
        stuck = (before < target[row]) & (lo > before + gap[row])
        reach = np.zeros(gap.size)
        reach[row[first[1:]]] = upto[first[1:]]  # each chord's last interval
        reach[row[stuck]] = -1.0  # a stuck chord falls short of target > before >= 0
        covered[chunk] = reach >= target
    return covered


def _midpoint_far(sq, r, tol):
    """Chords that `_covered` must reject, found from their midpoints alone.

    `sq` is the (n, n) matrix of squared distances in the kernel's unit, and
    `r` and `tol` are as for `_covered`.  Returns an (n, n) mask whose
    entries (i, j) with i < j flag the chords whose midpoint lies too far
    outside every ball.  For chord (i, j) and ball k let A = sq[i, j] = L^2,
    w = sq[i, k], v = sq[j, k] and R = min(r, 2).  Then
    q_k(t) = A t^2 + (v - w - A) t + w - R_k^2 is the squared distance from
    the point at t to centre k less R_k^2, and its least value over k at
    t = 1/2 is a (min, +) product:

        m = min_k (S[i, k] + S[j, k]) / 2 - A / 4,  S = sq - R^2.

    The chord is far when m > 2 tol + 64 eps / A; a zero-length chord never
    is.  The slack bound:
    - Gap.  q_k is convex with slope v - w at 1/2, and |v - w| =
      |d_jk - d_ik| (d_jk + d_ik) <= 2 L since no distance exceeds 1.  So
      every ball misses the points with |t - 1/2| < m / (2 L): a hole of
      m / L, longer than the allowance tol / L once m > tol.  The hole lies
      inside [0, 1], as m <= q_i(1/2) <= A / 4 gives m / (2 L) <= 1 / 8.
      Doubling tol absorbs the triangle inequality failing by the relative
      rounding of the distances; a chord shorter than that rounding can
      only be far when tol < A / 8, where the shortfall is far below eps.
    - Rounding.  Every coefficient the kernel reads is at most 4 in size,
      so each of its roundings moves q_k by a few eps, or by eps h^2 / A
      through the discriminant, where h^2 / A <= w + O(eps / A) by
      Cauchy-Schwarz.  Its intervals thus hold no point where q_k exceeds
      a few tens of eps / A, and m is computed here to within 8 eps:
      64 eps / A covers both, as A <= 1.
    """
    n = sq.shape[0]
    s = sq - np.minimum(r, 2.0) ** 2
    rounding = 64.0 * np.finfo(float).eps
    far = np.zeros((n, n), dtype=bool)
    rows = min(n, max(1, _BLOCK // (n * n)))
    cols = min(n, max(1, _BLOCK // (rows * n)))
    pair = np.empty((rows, cols, n))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        for j0 in range(i0 + 1, n, cols):
            j1 = min(j0 + cols, n)
            A = sq[i0:i1, j0:j1]
            sums = np.add(s[i0:i1, None, :], s[None, j0:j1, :], out=pair[: i1 - i0, : j1 - j0])
            m = 0.5 * sums.min(axis=2) - 0.25 * A
            far[i0:i1, j0:j1] = (m - 2.0 * tol) * A > rounding
    return far
