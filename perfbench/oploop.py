"""The measuring loop shared by the benchmark and its batch worker."""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

_REF_POINTS = np.random.default_rng(0).random((160, 2))


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not depend on the program.

    It mixes interpreter work (a heap sweep, as in Dijkstra) with numpy work
    (pairwise differences, as in the coverage pass).  A shared host's speed
    drifts by tens of percent over minutes; an operation's wall time divided
    by the reference times taken around it cancels most of that drift.
    """
    t0 = time.perf_counter()
    heap = [((i * 7919) % 1009 / 7.0, i) for i in range(50000)]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    pts = _REF_POINTS
    for _ in range(60):
        diff = pts[:, None, :] - pts[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum()
    return time.perf_counter() - t0


def repeat_for(run_op, seconds: float, min_ops: int, hard_seconds: float) -> list:
    """Call run_op(i) for i = 0, 1, ... until `seconds` have passed.

    run_op returns the wall time of its call.  A call is not started when
    the median call would end past `seconds`, but at least `min_ops` calls
    are made, and none is started after `hard_seconds`.  Returns the
    reference times taken before the first call and after every call, so
    call i lies between refs[i] and refs[i + 1].
    """
    start = time.perf_counter()
    refs = [reference_seconds()]
    walls = []
    while True:
        walls.append(run_op(len(walls)))
        refs.append(reference_seconds())
        elapsed = time.perf_counter() - start
        if elapsed >= hard_seconds:
            break
        if len(walls) >= min_ops and elapsed + statistics.median(walls) > seconds:
            break
    return refs


def relative_walls(ops, refs) -> list:
    """Each op's wall time over the mean of the two reference times around it."""
    return [op["wall"] * 2.0 / (refs[op["slot"]] + refs[op["slot"] + 1]) for op in ops]
