"""Algorithm 2 as a standalone, backend-agnostic rank program.

``INTER_LAYER_PARALLEL_STEP`` used to live inside
:class:`~repro.runtime.engine.AxoNNTrainer` as a bound method, which tied
it to the cooperative scheduler: a worker process cannot pickle a bound
generator, and must not drag the whole trainer (optimizer state, every
other rank's stage) across a fork boundary either.  This module is the
extraction: a plain generator function over an explicit ``send`` callable
and a :class:`~repro.runtime.stage.PipelineStage`, so the cooperative
backend (:class:`~repro.runtime.transport.RankTransport`) and the
multiprocessing backend (:mod:`repro.runtime.parallel`) drive *the same
code* — the strongest possible guarantee that the two backends compute
the same schedule.

The generator yields :data:`~repro.runtime.transport.RECV` and is resumed
with :class:`~repro.runtime.transport.Packet` objects; it never touches a
transport beyond the injected ``send``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, List, Optional, Tuple

import numpy as np

from ..obs import RuntimeTracer
from .grid import RankGrid
from .stage import PipelineStage
from .tp import TPComm
from .transport import RECV

__all__ = ["TAG_FWD", "TAG_BWD", "inter_layer_step", "traced_passes"]

TAG_FWD = "forward"
TAG_BWD = "backward"

#: send callable signature: send(dst, tag, microbatch, data)
SendFn = Callable[[int, str, int, Optional[np.ndarray]], None]


def traced_passes(stage: PipelineStage, rank: int,
                  tracer: Optional[RuntimeTracer],
                  tp: Optional[TPComm] = None) -> Tuple[Callable, Callable]:
    """``(forward, backward)`` of ``stage`` as a walk calls them —
    Algorithm 2's here and a static schedule's
    (:func:`repro.sched.compile.lower_rank`) alike.  When tracing, each
    call is a ``fwd{mb}`` / ``bwd{mb}`` compute span on ``rank`` (the
    performance model's event names); with ``tp`` (this rank leads a
    tensor-parallel group) every forward then carries the group's weight
    all-gather and every backward its gradient reduce-scatter."""
    fwd, bwd = stage.forward, stage.backward
    if tracer is not None and tracer.enabled:
        def fwd(mb, *args, **kwargs):
            with tracer.span(rank, "compute", f"fwd{mb}", category="compute",
                             microbatch=mb, stage=stage.stage_index):
                return stage.forward(mb, *args, **kwargs)

        def bwd(mb, *args):
            with tracer.span(rank, "compute", f"bwd{mb}", category="compute",
                             microbatch=mb, stage=stage.stage_index):
                return stage.backward(mb, *args)

    if tp is not None and tp.peers:
        base_fwd, base_bwd = fwd, bwd

        def fwd(mb, *args, **kwargs):
            out = base_fwd(mb, *args, **kwargs)
            tp.emit_weights(mb)
            return out

        def bwd(mb, *args):
            g = base_bwd(mb, *args)
            tp.emit_grads(mb)
            return g

    return fwd, bwd


def inter_layer_step(rank: int, grid: RankGrid, stage: PipelineStage,
                     send: SendFn,
                     microbatches: List[Tuple[np.ndarray, np.ndarray]],
                     total_microbatches: int, pipeline_limit: int,
                     loss_scale: float = 1.0,
                     tracer: Optional[RuntimeTracer] = None,
                     tp: Optional[TPComm] = None) -> Generator:
    """INTER_LAYER_PARALLEL_STEP for GPU ``g^{i,j}`` (Algorithm 2).

    ``send`` is the transport's non-blocking send with the source rank
    already bound; ``loss_scale`` is the mixed-precision scale in effect
    for the batch (1.0 for fp32).  The caller owns delivering packets into
    the generator in per-channel FIFO order — everything else about the
    schedule is decided here, identically on every backend.

    With ``tp`` (a :class:`~repro.runtime.tp.TPComm`; ``g_intra > 1``),
    this rank is its tensor-parallel group's *lead*: each forward also
    emits the group's weight all-gather, each backward the gradient
    reduce-scatter, and the followers' :data:`~repro.runtime.tp.TAG_TP_ACK`
    replies are absorbed by the same receive loop.
    """
    prev_rank = grid.prev_in_pipeline(rank)
    next_rank = grid.next_in_pipeline(rank)
    m = len(microbatches)
    queue = deque(range(m))  # microbatch ids still to inject
    divisor = float(total_microbatches)

    def inputs_of(mb: int) -> np.ndarray:
        return microbatches[mb][0]

    def targets_of(mb: int) -> np.ndarray:
        return microbatches[mb][1]

    fwd, bwd = traced_passes(stage, rank, tracer, tp)
    tp_acks = 0 if tp is None else m * tp.acks_per_microbatch

    # Degenerate pipeline: a single stage runs everything locally; with a
    # tensor-parallel group the lead still drains the followers' acks.
    if grid.g_inter == 1:
        for mb in queue:
            fwd(mb, inputs_of(mb), targets=targets_of(mb),
                loss_divisor=divisor, loss_scale=loss_scale)
            bwd(mb)
        for _ in range(tp_acks):
            pkt = yield RECV
            if not tp.absorbs(pkt):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"rank {rank} received unexpected packet {pkt}")
        return
        yield  # pragma: no cover - makes this function a generator

    # Warm-up (lines 3-9): the first stage injects pipeline_limit
    # microbatches.
    if grid.is_first_stage(rank):
        for _ in range(min(pipeline_limit, m)):
            mb = queue.popleft()
            out = fwd(mb, inputs_of(mb))
            send(next_rank, TAG_FWD, mb, out)

    # Expected message count: every stage processes m forward and m
    # backward passes; each non-boundary arrival is a message.
    expected = 0
    if prev_rank is not None:
        expected += m  # forward activations from upstream
    if next_rank is not None:
        expected += m  # output gradients from downstream
    expected += tp_acks  # intra-group acknowledgements

    # Steady state (lines 11-31): message-driven dispatch.
    received = 0
    while received < expected:
        pkt = yield RECV
        received += 1
        if pkt.src == prev_rank and pkt.tag == TAG_FWD:
            mb = pkt.microbatch
            if grid.is_last_stage(rank):
                fwd(mb, pkt.data, targets=targets_of(mb),
                    loss_divisor=divisor, loss_scale=loss_scale)
                grad_in = bwd(mb)  # BACKWARD(1), line 16
                send(prev_rank, TAG_BWD, mb, grad_in)
            else:
                out = fwd(mb, pkt.data)
                send(next_rank, TAG_FWD, mb, out)
        elif pkt.src == next_rank and pkt.tag == TAG_BWD:
            mb = pkt.microbatch
            grad_in = bwd(mb, pkt.data)
            if grid.is_first_stage(rank):
                if queue:  # inject a fresh microbatch (lines 23-26)
                    nxt = queue.popleft()
                    out = fwd(nxt, inputs_of(nxt))
                    send(next_rank, TAG_FWD, nxt, out)
            else:
                send(prev_rank, TAG_BWD, mb, grad_in)
        elif tp is not None and tp.absorbs(pkt):
            pass  # intra-group acknowledgement; already counted
        else:  # pragma: no cover - defensive
            raise RuntimeError(
                f"rank {rank} received unexpected packet {pkt}"
            )
