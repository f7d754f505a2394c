"""The calibration kernel that defines the spine's timing unit.

One *calibration unit* (``cu``) is the wall time of one :func:`kernel`
call.  The kernel is the same mix the workloads spend their time in —
small single-threaded BLAS matmuls, elementwise NumPy, and interpreter
overhead (attribute lookups, a dict store) — so when another tenant of a
shared machine steals cycles or evicts caches, kernel and workload slow
down together and their ratio stays put.  Gated timings are therefore
reported as ``op wall / kernel wall`` with the kernel timed immediately
before and after the operations it normalises (see :func:`timed_blocks`).

This module imports nothing from ``repro``: the unit must not move when
the program under test changes.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["kernel", "cal_wall", "timed_blocks", "op_cu", "quartiles",
           "Block", "BLOCK_SECONDS"]

_ITERS = 120
_RNG = np.random.default_rng(20220530)
_X = _RNG.standard_normal((256, 64)).astype(np.float32)
_W = (_RNG.standard_normal((64, 64)) / 8.0).astype(np.float32)

#: seconds of operations between two kernel calls (at least one operation)
BLOCK_SECONDS = 0.1

#: one block: (walls of its successful operations, failed operations, the
#: mean wall of the kernel calls just before and just after them)
Block = Tuple[List[float], int, float]


def kernel() -> float:
    """One calibration unit of work (about 10 ms on the reference box)."""
    x = _X
    sink = {}
    for i in range(_ITERS):
        h = np.tanh(x @ _W)
        h -= h.max(axis=1, keepdims=True)
        e = np.exp(h)
        e /= e.sum(axis=1, keepdims=True)
        sink[i & 7] = e
        x = e
    return float(x[0, 0])


def cal_wall() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def timed_blocks(op: Callable[[], bool], *, seconds: Optional[float] = None,
                 n_ops: Optional[int] = None) -> Iterator[Block]:
    """Alternate kernel calls with short runs of operations.

    ``kernel, ops, kernel, ops, ..., kernel``: each run of operations
    lasts :data:`BLOCK_SECONDS` (at least one operation) and is
    normalised by the two kernel calls around it, so the unit is sampled
    at the pace the machine's speed drifts.  Bunching the kernel calls
    (three before and after 0.6 s of operations) left the same window
    twice as noisy here.

    ``op`` performs one operation and returns whether it succeeded with a
    correct output; the wall time of a failed one is discarded.  Blocks
    are yielded until ``seconds`` have passed or ``n_ops`` operations
    have been attempted.
    """
    end = None if seconds is None else time.perf_counter() + seconds
    attempted = 0
    before = cal_wall()
    while True:
        walls: List[float] = []
        failed = 0
        spent = 0.0
        while spent < BLOCK_SECONDS and (n_ops is None or attempted < n_ops):
            t0 = time.perf_counter()
            ok = op()
            wall = time.perf_counter() - t0
            spent += wall
            attempted += 1
            if ok:
                walls.append(wall)
            else:
                failed += 1
        after = cal_wall()
        yield walls, failed, (before + after) / 2.0
        before = after
        if n_ops is not None and attempted >= n_ops:
            return
        if end is not None and time.perf_counter() >= end:
            return


def op_cu(blocks: List[Block]) -> float:
    """Cost of one operation in cu: the median over blocks of the block's
    mean operation wall divided by its kernel wall."""
    return statistics.median(
        statistics.fmean(walls) / cal for walls, _failed, cal in blocks
        if walls)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them; a
    single value is its own three quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
