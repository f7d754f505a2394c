"""Schedule metrics derived from the IR, not closed forms.

``critical_path`` runs a zero-communication-latency list schedule over
a validated :class:`~repro.sched.ir.Schedule`: each rank executes its
program order serially, every task starts when both its rank and its
dependencies allow, compute costs follow the unit model (FWD 1, full
BWD 2 — backward-proper is twice forward, the same 2x the DES cost
tables use — a split BWD/W pair 1 each, everything scaled by
``1 / n_chunks`` so virtual chunks carry proportionally less work).
On 1F1B this reproduces the classic closed form
``(S - 1) / (m + S - 1)`` exactly, and it generalizes to any valid
DAG — so no schedule needs a special-cased formula.

``peak_resident_activations`` walks each physical rank's program order
and counts microbatches whose forward ran but whose releasing backward
(``W`` when the backward is split, else ``BWD``) has not: the honest
per-rank memory estimate the searcher scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .builders import build_schedule
from .ir import BWD, FWD, W, Schedule, Task, required_deps

__all__ = ["CriticalPath", "critical_path", "unit_cost",
           "peak_resident_activations", "ir_bubble_fraction"]


def unit_cost(schedule: Schedule) -> Callable[[Task], float]:
    """The unit compute-cost model (see module docstring)."""
    scale = 1.0 / schedule.n_chunks

    def cost(task: Task) -> float:
        if task.kind == FWD:
            return scale
        if task.kind == BWD:
            return scale if schedule.has_w(task.stage, task.mb) \
                else 2.0 * scale
        if task.kind == W:
            return scale
        return 0.0  # comm: zero latency in the analytic model

    return cost


@dataclass(frozen=True)
class CriticalPath:
    """List-schedule outcome: makespan, per-rank busy time, bubble."""

    makespan: float
    busy: Tuple[float, ...]          #: per-rank total compute time
    bubble_fraction: float           #: 1 - mean(busy) / makespan


def critical_path(schedule: Schedule,
                  cost: Optional[Callable[[Task], float]] = None
                  ) -> CriticalPath:
    """Execute the schedule's program orders against the cost model.

    Deterministic greedy sweep: repeatedly run, on the lowest-numbered
    rank whose next task has all dependencies finished, that task at
    ``max(rank clock, dependency finishes)``.  Valid schedules always
    complete (the validator's cycle/FIFO checks guarantee a feasible
    linearization); a wedge here is therefore a hard error.
    """
    cost = cost or unit_cost(schedule)
    S = schedule.n_stages
    pos = [0] * S
    clock = [0.0] * S
    busy = [0.0] * S
    finish: Dict[Task, float] = {}
    remaining = sum(len(order) for order in schedule.rank_order)
    while remaining:
        progressed = False
        for rank in range(S):
            order = schedule.rank_order[rank]
            while pos[rank] < len(order):
                task = order[pos[rank]]
                deps = required_deps(schedule, task)
                if any(d not in finish for d in deps):
                    break
                start = clock[rank]
                for d in deps:
                    start = max(start, finish[d])
                dur = cost(task)
                finish[task] = start + dur
                clock[rank] = start + dur
                busy[rank] += dur
                pos[rank] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - excluded by validation
            stuck = [schedule.rank_order[r][pos[r]] for r in range(S)
                     if pos[r] < len(schedule.rank_order[r])]
            raise RuntimeError(
                f"{schedule.name}: list schedule wedged at {stuck[:4]}")
    makespan = max(clock) if S else 0.0
    mean_busy = sum(busy) / S if S else 0.0
    bubble = 0.0 if makespan <= 0 else 1.0 - mean_busy / makespan
    return CriticalPath(makespan=makespan, busy=tuple(busy),
                        bubble_fraction=bubble)


def peak_resident_activations(schedule: Schedule) -> Tuple[int, ...]:
    """Per physical rank: peak count of forwards awaiting their release.

    Counts in program order — a forward's activation stays resident
    until the matching ``W`` (split backward) or ``BWD`` (full backward)
    executes *on that rank* — so the estimate is per-rank honest rather
    than a global op count.
    """
    peaks: List[int] = []
    for order in schedule.rank_order:
        live = 0
        peak = 0
        for task in order:
            if task.kind == FWD:
                live += 1
                peak = max(peak, live)
            elif task.kind == BWD and not schedule.has_w(task.stage,
                                                        task.mb):
                live -= 1
            elif task.kind == W:
                live -= 1
        peaks.append(peak)
    return tuple(peaks)


def ir_bubble_fraction(n_stages: int, n_microbatches: int,
                       name: str = "1f1b") -> float:
    """Bubble fraction of a *shipped* schedule, derived from its IR.

    For the 1F1B default it coincides with the closed form
    ``(S - 1) / (m + S - 1)`` (Narayanan et al.) on every grid (pinned
    by tests), but unlike the closed form it also prices GPipe,
    interleaved and zero-bubble schedules.
    """
    if n_stages < 1 or n_microbatches < 1:
        raise ValueError("need at least one stage and one microbatch")
    return critical_path(
        build_schedule(name, n_stages, n_microbatches)).bubble_fraction
