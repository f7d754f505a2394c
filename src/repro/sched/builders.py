"""Builders: the five shipped schedules expressed as pure data.

Three express what the paper compares — the AxoNN message-driven
schedule (Algorithm 2, linearized by an abstract unit-cost simulation of
its dispatch rule) and the two static flushing schedules of Megatron-LM
and DeepSpeed, 1F1B and GPipe, whose per-stage compute order has exactly
one source, :func:`flushing_order`: the IR builders expand it and the
DES baselines (:mod:`repro.baselines.frameworks`) walk what they build.
Two exist *only* as data: interleaved virtual-stage 1F1B
(``n_chunks`` chunks per rank, chunk placement ``stage % n_stages``)
and a ZB-H1-style zero-bubble schedule (backward split into the input-
gradient ``BWD`` and the deferred weight-gradient ``W``, which fills
the cooldown bubbles).

The new schedules are derived by a deterministic list-scheduling
simulation over the task DAG (unit costs, eager-backward priority,
per-rank in-flight caps) rather than a closed-form trace: the simulator
produces one *feasible execution*, and executing its per-rank
linearization with blocking FIFO receives is deadlock-free by
construction — which the validator (FIFO consistency) and the model
checker then prove independently.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD, W,
                 Schedule, Task, validate)

__all__ = ["SCHEDULE_NAMES", "build_schedule", "schedule_chunks",
           "flushing_order", "axonn_ir", "one_f_one_b_ir", "gpipe_ir",
           "interleaved_ir", "zero_bubble_ir"]


def _expand_compute_order(name: str, n_stages: int, n_virtual: int,
                          n_microbatches: int,
                          compute_order: Sequence[Sequence[Task]],
                          activation_limit: Optional[int] = None,
                          ) -> Schedule:
    """Attach the canonical comm tasks to per-rank *compute* orders.

    Every cross-rank FWD/BWD gets its RECV immediately before and its
    SEND immediately after — the shape of a hand-written flushing rank
    program, which is what keeps compiled 1F1B/GPipe on the golden
    traces recorded from one.
    """
    last = n_virtual - 1

    def crosses(boundary: int) -> bool:
        return (boundary % n_stages) != ((boundary + 1) % n_stages)

    rank_order: List[Tuple[Task, ...]] = []
    for order in compute_order:
        full: List[Task] = []
        for task in order:
            v, mb = task.stage, task.mb
            if task.kind == FWD:
                if v > 0 and crosses(v - 1):
                    full.append(Task(RECV_ACT, v, mb))
                full.append(task)
                if v < last and crosses(v):
                    full.append(Task(SEND_ACT, v, mb))
            elif task.kind == BWD:
                if v < last and crosses(v):
                    full.append(Task(RECV_GRAD, v, mb))
                full.append(task)
                if v > 0 and crosses(v - 1):
                    full.append(Task(SEND_GRAD, v, mb))
            else:  # W: pure compute, no comm attached
                full.append(task)
        rank_order.append(tuple(full))

    schedule = Schedule(
        name=name, n_stages=n_stages, n_virtual=n_virtual,
        n_microbatches=n_microbatches, rank_order=tuple(rank_order),
        activation_limit=activation_limit)
    validate(schedule)
    return schedule


# ---------------------------------------------------------------------------
# The two flushing baselines.
# ---------------------------------------------------------------------------

def flushing_order(name: str, stage: int, n_stages: int,
                   n_microbatches: int) -> List[Task]:
    """Compute order of ``stage`` under a static flushing schedule —
    what Megatron-LM and DeepSpeed run (paper Section VIII): a
    precomputed order, weights updated only after every microbatch
    has drained.

    * ``"1f1b"`` (PipeDream-Flush): stage *i* warms up with
      ``S - 1 - i`` forwards, alternates one-forward-one-backward, then
      drains — in-flight activations bounded by the pipeline depth;
    * ``"gpipe"``: the warm-up is the whole batch — all forwards, then
      all backwards — so in-flight activations grow with ``m``.

    Unlike AxoNN's message-driven scheduler the order is *fixed*: a
    stage that could run a ready forward while waiting for a gradient
    simply waits — one of the two structural disadvantages the paper
    attributes to the baselines (the other: blocking NCCL sends).
    """
    if name not in ("1f1b", "gpipe"):
        raise ValueError(f"unknown flushing schedule {name!r}")
    if not 0 <= stage < n_stages:
        raise ValueError(f"stage {stage} outside [0, {n_stages})")
    if n_microbatches < 1:
        raise ValueError("need at least one microbatch")
    m = n_microbatches
    warmup = m if name == "gpipe" else min(n_stages - 1 - stage, m)
    order = [Task(FWD, stage, mb) for mb in range(warmup)]
    for mb in range(m - warmup):
        order += [Task(FWD, stage, warmup + mb), Task(BWD, stage, mb)]
    order += [Task(BWD, stage, mb) for mb in range(m - warmup, m)]
    return order


def one_f_one_b_ir(n_stages: int, n_microbatches: int) -> Schedule:
    """1F1B in the IR (peak residency on rank r is ``n_stages - r``)."""
    orders = [flushing_order("1f1b", stage, n_stages, n_microbatches)
              for stage in range(n_stages)]
    return _expand_compute_order(
        "1f1b", n_stages, n_stages, n_microbatches, orders,
        activation_limit=n_stages)


def gpipe_ir(n_stages: int, n_microbatches: int) -> Schedule:
    """GPipe in the IR: all forwards, flush, all backwards (every
    microbatch resident at the flush point)."""
    orders = [flushing_order("gpipe", stage, n_stages, n_microbatches)
              for stage in range(n_stages)]
    return _expand_compute_order(
        "gpipe", n_stages, n_stages, n_microbatches, orders,
        activation_limit=n_microbatches)


# ---------------------------------------------------------------------------
# AxoNN's message-driven schedule, linearized.
# ---------------------------------------------------------------------------

def axonn_ir(n_stages: int, n_microbatches: int,
             pipeline_limit: Optional[int] = None) -> Schedule:
    """Algorithm 2's message-driven dispatch as a static schedule.

    A unit-cost abstract simulation replays the paper's rule — stage 0
    injects ``pipeline_limit`` forwards then alternates on returning
    gradients, middle stages react to arrival order, the last stage runs
    the backward immediately after each forward — and records each
    rank's op sequence.  The linearization of a feasible message-driven
    execution, run statically, keeps the same overlap structure; the DES
    comparison of the two is exactly the paper's static-vs-dynamic
    scheduling ablation (see :mod:`repro.sched.des`).
    """
    S, m = n_stages, n_microbatches
    if S < 1 or m < 1:
        raise ValueError("need n_stages >= 1 and n_microbatches >= 1")
    limit = min(S if pipeline_limit is None else pipeline_limit, m)
    orders: List[List[Task]] = [[] for _ in range(S)]
    if S == 1:
        for mb in range(m):
            orders[0] += [Task(FWD, 0, mb), Task(BWD, 0, mb)]
        return _expand_compute_order("axonn", 1, 1, m, orders,
                                     activation_limit=limit)

    # Merged-inbox arrival queues: (avail_time, send_seq, plane, mb).
    # send_seq breaks simultaneous-arrival ties deterministically.
    inbox: List[List[Tuple[float, int, str, int]]] = [[] for _ in range(S)]
    free_at = [0.0] * S
    seq = 0

    def post(dst: int, when: float, plane: str, mb: int) -> None:
        nonlocal seq
        inbox[dst].append((when, seq, plane, mb))
        seq += 1

    def run(rank: int, task: Task, cost: float) -> float:
        """Execute one op on ``rank`` starting no earlier than now."""
        orders[rank].append(task)
        free_at[rank] += cost
        return free_at[rank]

    queue = list(range(m))
    injected = 0
    for _ in range(limit):
        mb = queue[injected]
        injected += 1
        done = run(0, Task(FWD, 0, mb), 1.0)
        post(1, done, "F", mb)

    pending = [0] * S
    pending[0] = m - injected  # stage 0 still owes these injections
    expected = [m * (2 if 0 < r < S - 1 else 1) for r in range(S)]
    handled = [0] * S
    while any(handled[r] < expected[r] for r in range(1, S)) \
            or handled[0] < m or pending[0] > 0:
        # Earliest processable arrival across ranks (message-driven rule:
        # each rank handles its merged inbox in arrival order).
        best = None
        for r in range(S):
            if not inbox[r]:
                continue
            when, sq, plane, mb = min(inbox[r])
            start = max(when, free_at[r])
            if best is None or (start, sq) < (best[0], best[1]):
                best = (start, sq, r, (when, sq, plane, mb))
        if best is None:  # pragma: no cover - defended by construction
            raise RuntimeError("axonn linearization wedged")
        start, _sq, r, entry = best
        inbox[r].remove(entry)
        _when, _sq2, plane, mb = entry
        free_at[r] = max(free_at[r], start)
        handled[r] += 1
        if plane == "F":
            if r == S - 1:
                run(r, Task(FWD, r, mb), 1.0)
                done = run(r, Task(BWD, r, mb), 2.0)
                post(r - 1, done, "B", mb)
            else:
                done = run(r, Task(FWD, r, mb), 1.0)
                post(r + 1, done, "F", mb)
        else:
            done = run(r, Task(BWD, r, mb), 2.0)
            if r == 0:
                if injected < m:
                    mb2 = queue[injected]
                    injected += 1
                    pending[0] -= 1
                    done2 = run(0, Task(FWD, 0, mb2), 1.0)
                    post(1, done2, "F", mb2)
            else:
                post(r - 1, done, "B", mb)
    return _expand_compute_order("axonn", S, S, m, orders,
                                 activation_limit=limit)


# ---------------------------------------------------------------------------
# List-scheduling derivation for the data-only schedules.
# ---------------------------------------------------------------------------

def _list_schedule(n_stages: int, n_microbatches: int, n_chunks: int,
                   split_w: bool,
                   cap: Callable[[int], int]) -> List[List[Task]]:
    """Derive per-rank compute orders by simulating a greedy executor.

    Unit costs (FWD 1, full BWD 2, split BWD/W 1 each); eager-backward
    priority with ``W`` as idle filler; new forwards gated by the
    per-rank in-flight cap.  Cross-rank readiness honors per-channel
    FIFO (a message is consumable only at the head of its channel), so
    the recorded orders are FIFO-consistent by construction.

    Each rank keeps its ready set indexed rather than rescanning the
    pending tasks: a task's same-rank prerequisite (the ``FWD`` under a
    ``BWD``, the ``BWD`` under a ``W``) has always finished by the time
    the rank is idle again, so the only candidates are the two channel
    heads, the next stage-0 injection, and two heaps — backwards of the
    last virtual stage (no message gates them) and ``W`` tasks — keyed by
    the same ``(mb, -stage)`` / ``(mb, stage)`` priorities the picks
    use.  Each decision is O(log m).
    """
    S, m, V = n_stages, n_microbatches, n_chunks
    last = V * S - 1
    orders: List[List[Task]] = [[] for _ in range(S)]
    busy_until = [0] * S
    inflight = [0] * S
    # Per-rank F / B channels: (avail_time, stage, mb) in production
    # order; only the head is consumable, once it has arrived.
    chan_f: List[Deque[Tuple[int, int, int]]] = [deque() for _ in range(S)]
    chan_b: List[Deque[Tuple[int, int, int]]] = [deque() for _ in range(S)]
    tail_b: List[List[Tuple[int, int]]] = [[] for _ in range(S)]
    ready_w: List[List[Tuple[int, int]]] = [[] for _ in range(S)]
    injected = 0  # stage-0 forwards start in microbatch order

    def pick(rank: int, now: int) -> Optional[Tuple[Task, int]]:
        # eager backward: drain before growing residency
        q = chan_b[rank]
        keys = [(q[0][2], -q[0][1])] if q and q[0][0] <= now else []
        keys += tail_b[rank][:1]
        if keys:
            mb, neg_v = min(keys)
            return Task(BWD, -neg_v, mb), 1 if split_w else 2
        if inflight[rank] < cap(rank):
            q = chan_f[rank]
            keys = [(q[0][2], q[0][1])] if q and q[0][0] <= now else []
            if rank == 0 and injected < m:
                keys.append((injected, 0))
            if keys:
                mb, v = min(keys)
                return Task(FWD, v, mb), 1
        if ready_w[rank]:
            mb, v = ready_w[rank][0]
            return Task(W, v, mb), 1
        return None

    def start(rank: int, task: Task, cost: int, now: int) -> None:
        nonlocal injected
        done = now + cost
        busy_until[rank] = done
        orders[rank].append(task)
        v, mb = task.stage, task.mb
        if task.kind == FWD:
            inflight[rank] += 1
            if v > 0:
                chan_f[rank].popleft()
            else:
                injected += 1
            if v < last:
                chan_f[(v + 1) % S].append((done, v + 1, mb))
            else:
                heapq.heappush(tail_b[rank], (mb, -v))
        elif task.kind == BWD:
            if v < last:
                chan_b[rank].popleft()
            else:
                heapq.heappop(tail_b[rank])
            if split_w:
                heapq.heappush(ready_w[rank], (mb, v))
            else:
                inflight[rank] -= 1
            if v > 0:
                chan_b[(v - 1) % S].append((done, v - 1, mb))
        else:  # W
            heapq.heappop(ready_w[rank])
            inflight[rank] -= 1

    pending = (3 if split_w else 2) * V * S * m
    limit = 16 * pending + 64
    now = 0
    guard = 0
    while pending:
        guard += 1
        if guard > limit:
            raise RuntimeError(
                f"list scheduler wedged at t={now} with {pending} "
                f"tasks pending")  # pragma: no cover - defensive
        for rank in range(S):
            if busy_until[rank] > now:
                continue
            picked = pick(rank, now)
            if picked is not None:
                start(rank, *picked, now)
                pending -= 1
        # Decision points only change at task-finish times (arrivals land
        # exactly when their producer finishes), so jump to the next one;
        # with nothing in flight and nothing started, the DAG is wedged
        # and the guard above turns the stall into a hard error.
        future = [b for b in busy_until if b > now]
        now = min(future) if future else now + 1
    return orders


def interleaved_ir(n_stages: int, n_microbatches: int,
                   n_chunks: int = 2) -> Schedule:
    """Interleaved virtual-stage 1F1B: ``n_chunks`` model chunks per
    rank (chunk c's stage for rank r is ``c * n_stages + r``), shrinking
    the warm-up/cool-down bubble by the chunk count at the price of
    more in-flight activations and wrap-around messages.

    The per-rank order is the canonical Megatron-LM interleaved
    schedule: ``2 * (S - r - 1) + (V - 1) * S`` warm-up forwards in
    chunk-round-robin order (chunks advance every ``S`` microbatches),
    1F1B alternation with the backward chunk order reversed, then the
    cool-down drain.  Like the reference implementation it requires the
    microbatch count to divide evenly into rounds of ``n_stages``.
    """
    S, m, V = n_stages, n_microbatches, n_chunks
    if S < 2:
        raise ValueError("interleaved schedule needs n_stages >= 2")
    if V < 2:
        raise ValueError("interleaved schedule needs n_chunks >= 2")
    if m % S != 0:
        raise ValueError(
            f"interleaved schedule needs n_microbatches ({m}) divisible "
            f"by n_stages ({S}) — the Megatron-LM round constraint")
    total = m * V

    def fwd_step(rank: int, k: int) -> Task:
        group, within = divmod(k, S * V)
        chunk, idx = divmod(within, S)
        return Task(FWD, chunk * S + rank, group * S + idx)

    def bwd_step(rank: int, j: int) -> Task:
        group, within = divmod(j, S * V)
        chunk, idx = divmod(within, S)
        return Task(BWD, (V - 1 - chunk) * S + rank, group * S + idx)

    orders: List[List[Task]] = []
    limit = 1
    for r in range(S):
        warmup = min(total, 2 * (S - r - 1) + (V - 1) * S)
        limit = max(limit, min(total, warmup + 1))
        order = [fwd_step(r, k) for k in range(warmup)]
        for i in range(total - warmup):
            order.append(fwd_step(r, warmup + i))
            order.append(bwd_step(r, i))
        for j in range(total - warmup, total):
            order.append(bwd_step(r, j))
        orders.append(order)
    return _expand_compute_order(
        "interleaved", S, V * S, m, orders, activation_limit=limit)


def zero_bubble_ir(n_stages: int, n_microbatches: int) -> Schedule:
    """ZB-H1-style zero-bubble 1F1B: the backward is split into the
    input-gradient ``BWD`` (on the critical path) and the deferred
    weight-gradient ``W`` (idle filler), keeping 1F1B's activation
    residency while shrinking its cool-down bubble."""
    orders = _list_schedule(
        n_stages, n_microbatches, 1, split_w=True,
        cap=lambda r: min(n_stages - r, n_microbatches))
    return _expand_compute_order(
        "zb-h1", n_stages, n_stages, n_microbatches, orders,
        activation_limit=n_stages)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[int, int], Schedule]] = {
    "axonn": axonn_ir,
    "1f1b": one_f_one_b_ir,
    "gpipe": gpipe_ir,
    "interleaved": interleaved_ir,
    "zb-h1": zero_bubble_ir,
}

#: The shipped schedules, in presentation order.
SCHEDULE_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


def schedule_chunks(name: str) -> int:
    """Virtual chunks per rank for a named schedule (1 unless
    interleaved)."""
    return 2 if name == "interleaved" else 1


@functools.lru_cache(maxsize=8)
def build_schedule(name: str, n_stages: int,
                   n_microbatches: int) -> Schedule:
    """Build (and validate) a shipped schedule by name.

    A schedule is an immutable value of its arguments, so the last few
    built are shared: a sweep (the DES baselines across models, a
    trainer across steps) builds each one once.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown schedule {name!r}; shipped: "
            f"{', '.join(SCHEDULE_NAMES)}") from None
    return builder(n_stages, n_microbatches)
