"""One workload in one fresh process (started by run.py, not by hand).

Phases, in order: set-up (``import repro`` .. first completed
operation), deep output check, then either the timed window (untraced,
for the end-to-end metrics) or the counted passes (untraced, traced,
counters, probes — for the per-layer metrics), then close and leak
checks.  The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource  # noqa: E402
import statistics  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

from calibrate import Block, op_cu, quartiles, timed_blocks  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: tracebacks of failed operations echoed to stderr before going quiet
_MAX_TRACEBACKS = 3


class _Tally:
    """Attempted / failed operation counts of this process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._shown = 0

    def guard(self, what: str, fn: Callable[[], List[bool]]) -> bool:
        """Run ``fn`` (which returns one outcome per operation it
        checked); a raise is one failed operation, not a crash.  Returns
        whether everything it checked succeeded."""
        try:
            outcomes = fn()
        except Exception:
            outcomes = [False]
            if self._shown < _MAX_TRACEBACKS:
                self._shown += 1
                print(f"[spine] {what} raised:", file=sys.stderr)
                traceback.print_exc()
        self.attempted += len(outcomes)
        self.failed += sum(1 for ok in outcomes if not ok)
        return all(outcomes)


def _raw_stats(blocks: List[Block], work_per_op: float) -> Dict[str, float]:
    """The never-gated diagnostics of an untraced pass."""
    walls = sorted(w for ws, _f, _c in blocks for w in ws)
    cals = [c for _w, _f, c in blocks]
    q1, q2, q3 = quartiles(cals)
    return {
        "bench.cal_ms_p50": q2 * 1e3,
        "bench.cal_ms_iqr": (q3 - q1) * 1e3,
        "bench.raw_op_ms_p50": statistics.median(walls) * 1e3,
        "bench.raw_op_ms_p90": walls[min(len(walls) - 1,
                                         int(0.9 * len(walls)))] * 1e3,
        "bench.raw_work_per_s": work_per_op * len(walls) / sum(walls),
        "bench.blocks": float(len(blocks)),
        "bench.ops": float(len(walls)),
    }


def _window(wl, op: Callable[[], bool], seconds: float, out: Dict) -> None:
    """The timed window: blocks until ``seconds`` have passed."""
    blocks = list(timed_blocks(op, seconds=seconds))
    scores = [wl.work_per_op * len(walls) / (sum(walls) / cal)
              for walls, _failed, cal in blocks if walls]
    q1, q2, q3 = quartiles(scores)
    out["metrics"]["work_per_cu"] = q2
    out["diag"] = {"work_per_cu_q1": q1, "work_per_cu_q3": q3,
                   **_raw_stats(blocks, wl.work_per_op)}


def _layers(wl, op: Callable[[], bool], n_ops: int, first_wall: float,
            out: Dict) -> None:
    """The counted passes behind the per-layer metrics."""
    metrics = out["metrics"]
    plain = list(timed_blocks(op, n_ops=n_ops))
    cu = op_cu(plain)
    op_wall = statistics.median(w for ws, _f, _c in plain for w in ws)
    metrics.update(_raw_stats(plain, wl.work_per_op))
    metrics["bench.op_cu"] = cu

    rec = SpanRecorder()

    def root_op() -> bool:
        idx = rec.begin("op")
        try:
            return op()
        finally:
            rec.end(idx)

    # name -> [calls, total cu, self cu], summed over the traced blocks
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    traced_cu = 0.0
    wl.instrument(rec)
    try:
        for walls, _failed, cal in timed_blocks(root_op, n_ops=n_ops):
            traced_cu += sum(walls) / cal
            totals, block_counts = rec.drain()
            for name, (calls, total_s, self_s) in totals.items():
                row = spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total_s / cal
                row[2] += self_s / cal
            for name, n in block_counts.items():
                counts[name] = counts.get(name, 0) + n
    finally:
        rec.restore()

    column = {"calls": 0, "total": 1, "self": 2}
    for metric, (kind, names) in wl.layers.items():
        metrics[metric] = sum(spans.get(name, [0, 0.0, 0.0])[column[kind]]
                              for name in names) / n_ops
    for metric, count_name in wl.counts.items():
        metrics[metric] = counts.get(count_name, 0) / n_ops
    in_layers = sum(row[2] for name, row in spans.items() if name != "op")
    metrics["bench.trace_overhead"] = traced_cu / n_ops / cu
    metrics["bench.budget_coverage"] = in_layers / traced_cu

    metrics.update(wl.count_op(rec))
    metrics.update(wl.probes(op_wall, cu, first_wall, n_ops))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--traced-ops", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tally = _Tally()
    out: Dict = {"metrics": {}, "diag": {}}

    setup_start = time.perf_counter()
    import repro  # noqa: F401  (the set-up clock covers the import)
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)

    def op() -> bool:
        return tally.guard("operation", lambda: [wl.op()])

    wl.build()
    try:
        t0 = time.perf_counter()
        first_ok = op()
        first_wall = time.perf_counter() - t0
        out["metrics"]["setup_s"] = time.perf_counter() - setup_start
        if first_ok and not args.setup_only:
            tally.guard("output check", wl.verify)
            if args.trace:
                _layers(wl, op, args.traced_ops or wl.traced_ops,
                        first_wall, out)
            else:
                _window(wl, op, args.seconds, out)
    finally:
        tally.guard("close", wl.close)

    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["metrics"]["peak_rss_mb"] = usage / 1024.0
    out["attempted"] = tally.attempted
    out["failed"] = tally.failed
    out["work_unit"] = wl.work_unit
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
