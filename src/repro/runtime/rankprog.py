"""The paper's two rank programs, as standalone, backend-agnostic
generators.

* :func:`inter_layer_step` is Algorithm 2 (INTER_LAYER_PARALLEL_STEP):
  message-driven, it runs whatever has arrived.
* :func:`lower_rank` is the static walk: it runs one rank's task order
  of a validated :class:`~repro.sched.ir.Schedule` — the schedule is
  plain data, and this is where it becomes a program.

Both are plain generator functions over an explicit ``send`` callable
and a :class:`~repro.runtime.stage.PipelineStage`, so the cooperative
backend (:class:`~repro.runtime.transport.RankTransport`), the
multiprocessing backend (:mod:`repro.runtime.parallel`) and the model
checker (:mod:`repro.analysis.model`) drive *the same code* — the
strongest possible guarantee that every backend computes the same
schedule, and that the checker proves the walk that runs on real cores.
Neither is tied to the trainer: a worker process cannot pickle a bound
generator, and must not drag the whole trainer (optimizer state, every
other rank's stage) across a fork boundary either.

The generators yield :data:`~repro.runtime.transport.RECV` (block for the
next message) and, in Algorithm 2, :data:`~repro.runtime.transport.POLL`
(take the next message already buffered, or None), and are resumed with
:class:`~repro.runtime.transport.Packet` objects; they never touch a
transport beyond the injected ``send``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Tracer
from ..sched.ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD,
                        Schedule)
from .grid import RankGrid
from .stage import PipelineStage
from .tp import RecordFn, ShardMap, TPComm, tp_follower_step
from .transport import POLL, RECV

__all__ = ["TAG_FWD", "TAG_BWD", "inter_layer_step", "lower_rank",
           "rank_program", "traced_passes"]

TAG_FWD = "forward"
TAG_BWD = "backward"

#: send callable signature: send(dst, tag, microbatch, data)
SendFn = Callable[[int, str, int, Optional[np.ndarray]], None]


def traced_passes(stage: PipelineStage, rank: int,
                  tracer: Optional[Tracer],
                  tp: Optional[TPComm] = None) -> Tuple[Callable, Callable]:
    """``(forward, backward)`` of ``stage`` as a walk calls them —
    Algorithm 2's and a static schedule's (:func:`lower_rank`) alike;
    both take a group of microbatches.  When tracing, each call is one
    compute span on ``rank`` carrying ``microbatches`` and ``width``,
    named ``fwd{mb}`` / ``bwd{mb}`` for a group of one (the performance
    model's event names) and ``fwd{a}+{b}+…`` for a wider group; with
    ``tp`` (this rank leads a tensor-parallel group; the
    :class:`~repro.runtime.tp.TPComm` of ``stage``'s chunk) every forward
    then carries the group's weight all-gather and every backward its
    gradient reduce-scatter, one per microbatch."""
    fwd, bwd = stage.forward, stage.backward
    if tracer is not None and tracer.enabled:
        def span(kind: str, mbs: Sequence[int]):
            return tracer.span(rank, "compute",
                               kind + "+".join(map(str, mbs)),
                               category="compute", microbatch=mbs[0],
                               stage=stage.stage_index,
                               microbatches=tuple(mbs), width=len(mbs))

        def fwd(mbs, *args, **kwargs):
            with span("fwd", mbs):
                return stage.forward(mbs, *args, **kwargs)

        def bwd(mbs, *args):
            with span("bwd", mbs):
                return stage.backward(mbs, *args)

    if tp is not None and tp.peers:
        base_fwd, base_bwd = fwd, bwd

        def fwd(mbs, *args, **kwargs):
            out = base_fwd(mbs, *args, **kwargs)
            tp.emit_weights(mbs)
            return out

        def bwd(mbs, *args):
            g = base_bwd(mbs, *args)
            tp.emit_grads(mbs)
            return g

    return fwd, bwd


def inter_layer_step(rank: int, grid: RankGrid, stage: PipelineStage,
                     send: SendFn,
                     microbatches: List[Tuple[np.ndarray, np.ndarray]],
                     total_microbatches: int, pipeline_limit: int,
                     loss_scale: float = 1.0,
                     tracer: Optional[Tracer] = None,
                     tp: Optional[TPComm] = None, *,
                     concurrent_peers: bool) -> Generator:
    """INTER_LAYER_PARALLEL_STEP for GPU ``g^{i,j}`` (Algorithm 2).

    ``send`` is the transport's non-blocking send with the source rank
    already bound; ``loss_scale`` is the mixed-precision scale in effect
    for the batch (1.0 for fp32).  The caller owns delivering packets into
    the generator in per-channel FIFO order — everything else about the
    schedule is decided here, identically on every backend.

    Each wake-up blocks once (``yield RECV``), then drains whatever else
    is already buffered (``yield POLL`` until None) and runs it as
    groups: the ready gradients as backward passes — one per run of
    consecutive members of one forward group, since the rest of a group
    may still be on the wire — then the ready activations as one forward
    pass.  The width is whatever has arrived: nothing waits for a group
    to fill.  The first stage injects as many fresh microbatches as it
    just retired (see ``inject``).

    ``concurrent_peers`` states whether a send can start the receiver's
    work before this rank next yields: True where every rank runs on its
    own core (a process worker), False where no rank runs until the
    sender yields (:class:`~repro.runtime.transport.RankTransport`).  It
    decides only how the first stage starts fresh microbatches; every
    other rank's passes and every rank's send sequence are the same
    under both.

    With ``tp`` (a :class:`~repro.runtime.tp.TPComm`; ``g_intra > 1``),
    this rank is its tensor-parallel group's *lead*: each forward also
    emits the group's weight all-gather, each backward the gradient
    reduce-scatter.  The followers send nothing back, so the lead's walk
    is the dense walk plus those sends.
    """
    prev_rank = grid.prev_in_pipeline(rank)
    next_rank = grid.next_in_pipeline(rank)
    m = len(microbatches)
    queue = deque(range(m))  # microbatch ids still to inject
    divisor = float(total_microbatches)

    def targets_of(mbs: Sequence[int]) -> List[np.ndarray]:
        return [microbatches[mb][1] for mb in mbs]

    fwd, bwd = traced_passes(stage, rank, tracer, tp)

    # Degenerate pipeline: a single stage runs everything locally, one
    # microbatch at a time (nothing arrives to group).
    if grid.g_inter == 1:
        for mb in queue:
            fwd([mb], [microbatches[mb][0]], targets=targets_of([mb]),
                loss_divisor=divisor, loss_scale=loss_scale)
            bwd([mb])
        return

    # microbatch -> (its forward group's id, its place in the group)
    member: Dict[int, Tuple[int, int]] = {}

    def forward(mbs: List[int], xs: Sequence[np.ndarray]) -> None:
        """A non-last stage's forward group, its outputs sent on."""
        for i, mb in enumerate(mbs):
            member[mb] = (mbs[0], i)
        outs = fwd(mbs, xs)
        for mb, out in zip(mbs, outs):
            send(next_rank, TAG_FWD, mb, out)

    def inject(k: int) -> None:
        """The first stage starts the next ``k`` fresh microbatches.  With
        ``concurrent_peers`` each gets its own pass and is sent on as soon
        as it exists: the next stage starts on it while this rank runs the
        next, where a group would hold the first back until the last was
        done.  Without, the ``k`` reach the next stage together whatever
        this rank does before it yields, so they run as one stacked pass.
        """
        fresh = [queue.popleft() for _ in range(min(k, len(queue)))]
        width = 1 if concurrent_peers else max(len(fresh), 1)
        for at in range(0, len(fresh), width):
            mbs = fresh[at:at + width]
            forward(mbs, [microbatches[mb][0] for mb in mbs])

    # Warm-up (lines 3-9): the first stage injects pipeline_limit
    # microbatches.
    if grid.is_first_stage(rank):
        inject(pipeline_limit)

    # Expected message count: every stage processes m forward and m
    # backward passes; each non-boundary arrival is a message.
    expected = 0
    if prev_rank is not None:
        expected += m  # forward activations from upstream
    if next_rank is not None:
        expected += m  # output gradients from downstream

    # Steady state (lines 11-31): message-driven dispatch over what has
    # arrived.
    received = 0
    while received < expected:
        pkt = yield RECV
        acts: List = []
        grads: List = []
        while pkt is not None:
            received += 1
            if pkt.src == prev_rank and pkt.tag == TAG_FWD:
                acts.append(pkt)
            elif pkt.src == next_rank and pkt.tag == TAG_BWD:
                grads.append(pkt)
            else:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"rank {rank} received unexpected packet {pkt}")
            pkt = yield POLL
        for run in _backward_runs(grads, member):
            mbs = [p.microbatch for p in run]
            grad_in = bwd(mbs, [p.data for p in run])
            if prev_rank is not None:
                for mb, g in zip(mbs, grad_in):
                    send(prev_rank, TAG_BWD, mb, g)
        if grads and prev_rank is None:
            inject(len(grads))  # lines 23-26
        if not acts:
            continue
        mbs = [p.microbatch for p in acts]
        xs = [p.data for p in acts]
        if next_rank is None:
            fwd(mbs, xs, targets=targets_of(mbs), loss_divisor=divisor,
                loss_scale=loss_scale)
            grad_in = bwd(mbs)  # BACKWARD(1), line 16
            for mb, g in zip(mbs, grad_in):
                send(prev_rank, TAG_BWD, mb, g)
        else:
            forward(mbs, xs)


def _backward_runs(grads: List, member: Dict[int, Tuple[int, int]]
                   ) -> List[List]:
    """Split arrived gradient packets, in arrival order, into runs of
    consecutive members of one forward group — what one backward pass
    may cover."""
    runs: List[List] = []
    last = None
    for pkt in grads:
        group, place = member.pop(pkt.microbatch)
        if last == (group, place - 1):
            runs[-1].append(pkt)
        else:
            runs.append([pkt])
        last = (group, place)
    return runs


def lower_rank(schedule: Schedule, grid: RankGrid, rank: int,
               stages: Dict[int, object], send: SendFn,
               microbatches: List[Tuple[np.ndarray, np.ndarray]],
               total_microbatches: int, loss_scale: float = 1.0,
               tracer: Optional[Tracer] = None,
               tp: Optional[Dict[int, TPComm]] = None) -> Generator:
    """One rank's program for a static schedule: the single walk of the
    schedule's task order on this rank.

    ``stages`` maps virtual stage -> stage object for the stages this
    rank owns (symbolic stages work too — the model checker lowers the
    very same way).  ``send``, ``loss_scale`` and ``tracer`` mean what
    they do to :func:`inter_layer_step`.  With ``tp`` (virtual stage ->
    that chunk's :class:`~repro.runtime.tp.TPComm`) this rank leads a
    tensor-parallel group and every pass carries the group's collective.

    A static schedule must consume the *specific* message each receive
    task names, while a rank's inbox is one FIFO in arrival order
    (wall-time nondeterministic on real rings), so whatever arrives
    ahead of the expected message waits in a stash keyed by (tag,
    microbatch).  Tags are ``"F"`` / ``"B"`` (activation / gradient),
    qualified with the receiving virtual stage (``"F@3"``) when a rank
    owns several chunks.  Numerics are independent of arrival order, so
    losses and weights are bit-identical across backends while receive
    timestamps legitimately differ; what every run of a schedule shares
    is each rank's send order and each channel's receive order (pinned
    in ``tests/test_sched.py``).

    ``W`` tasks are ordering-only on the functional substrate: the numpy
    autograd computes input and weight gradients together inside
    ``BWD``, so a split schedule executes the full backward there and
    ``W`` marks the point where the weight gradient is *scheduled* to
    materialize.  The DES (:mod:`repro.sched.des`) prices the two halves
    separately — that is where zero-bubble's benefit is measured.
    """
    i, j = grid.coord_of(rank)
    last = schedule.n_virtual - 1
    divisor = float(total_microbatches)
    passes = {v: traced_passes(stage, rank, tracer, (tp or {}).get(v))
              for v, stage in stages.items()}

    def tag(plane: str, v: int) -> str:
        return plane if schedule.n_chunks == 1 else f"{plane}@{v}"

    held: Dict[Tuple[str, int, int], object] = {}
    stash: Dict[Tuple[str, int], object] = {}
    for task in schedule.rank_order[i]:
        v, mb = task.stage, task.mb
        if task.kind in (RECV_ACT, RECV_GRAD):
            plane = "F" if task.kind == RECV_ACT else "B"
            key = (tag(plane, v), mb)
            while key not in stash:
                pkt = yield RECV
                stash[(pkt.tag, pkt.microbatch)] = pkt.data
            held[(plane, v, mb)] = stash.pop(key)
        elif task.kind == FWD:
            if v == 0:
                data = microbatches[mb][0]
            elif schedule.crosses(v - 1):
                data = held.pop(("F", v, mb))
            else:  # same-rank boundary: local handoff
                data = held.pop(("out", v - 1, mb))
            forward = passes[v][0]
            if v == last:
                forward([mb], [data], targets=[microbatches[mb][1]],
                        loss_divisor=divisor, loss_scale=loss_scale)
            else:
                held[("out", v, mb)] = forward([mb], [data])[0]
        elif task.kind == SEND_ACT:
            send(grid.rank_of(schedule.placement(v + 1), j), tag("F", v + 1),
                 mb, held.pop(("out", v, mb)))
        elif task.kind == BWD:
            if v == last:
                grad = None
            elif schedule.crosses(v):
                grad = held.pop(("B", v, mb))
            else:
                grad = held.pop(("gin", v + 1, mb))
            grad_in = passes[v][1]([mb], None if grad is None else [grad])
            if v > 0:
                held[("gin", v, mb)] = grad_in[0]
        elif task.kind == SEND_GRAD:
            send(grid.rank_of(schedule.placement(v - 1), j), tag("B", v - 1),
                 mb, held.pop(("gin", v, mb)))
        # W: ordering-only here (see the docstring); the weight
        # gradient was materialized by the stage's full backward.
    if stash:  # pragma: no cover - defensive
        # The stash must not hide an orphan from the transport's check.
        raise RuntimeError(
            f"rank {rank} finished its order holding unexpected "
            f"messages {sorted(stash)}")


def rank_program(rank: int, grid: RankGrid, stage: Optional[PipelineStage],
                 send: SendFn,
                 microbatches: List[Tuple[np.ndarray, np.ndarray]],
                 total_microbatches: int, pipeline_limit: int,
                 schedule: Optional[Schedule], loss_scale: float = 1.0,
                 tracer: Optional[Tracer] = None,
                 record: Optional[RecordFn] = None, *,
                 concurrent_peers: bool) -> Generator:
    """GPU ``rank``'s program for a batch's inter-layer phase: the one
    binding of the walks above that both backends call.

    A tensor-parallel follower (it holds no ``stage``) gets the reactive,
    receive-only :func:`~repro.runtime.tp.tp_follower_step` over the
    lead's passes: ``len(microbatches)`` per chunk.  Every other rank
    walks ``stage``: the static order ``schedule`` (:func:`lower_rank`)
    or, when None, Algorithm 2 (:func:`inter_layer_step`) — with
    ``g_intra > 1`` as its group's lead, sending the pieces a
    :class:`~repro.runtime.tp.ShardMap` of each dense chunk names.
    ``record(rank, op, key, nbytes)`` is the backend's sink for the
    group's collectives.  ``concurrent_peers`` is the backend's answer
    to whether a send can start the receiver's work before this rank
    next yields (see :func:`inter_layer_step`); the static walk and a
    follower ignore it.
    """
    n_chunks = 1 if schedule is None else schedule.n_chunks
    tp: Dict[int, TPComm] = {}
    if grid.g_intra > 1:
        if not grid.is_tp_lead(rank):
            return tp_follower_step(rank, grid,
                                    TPComm(rank, grid, send, record=record),
                                    n_chunks * len(microbatches))
        tp = {v: TPComm(rank, grid, send, ShardMap(chunk, grid.g_intra),
                        record, chunk=None if n_chunks == 1 else v)
              for v, chunk in stage.chunks.items()}
    if schedule is not None:
        return lower_rank(schedule, grid, rank, stage.chunks, send,
                          microbatches, total_microbatches,
                          loss_scale=loss_scale, tracer=tracer, tp=tp)
    return inter_layer_step(rank, grid, stage, send, microbatches,
                            total_microbatches, pipeline_limit,
                            loss_scale=loss_scale, tracer=tracer,
                            tp=next(iter(tp.values()), None),
                            concurrent_peers=concurrent_peers)
