"""Compiler: lower a validated schedule to executable rank programs.

One generator, :func:`lower_rank`, walks a rank's task order.  It is an
ordinary rank program with the interface of Algorithm 2's
:func:`~repro.runtime.rankprog.inter_layer_step` — a
``send(dst, tag, microbatch, data)`` callable and ``yield RECV`` — so
whatever drives one drives the other: the cooperative scheduler
(:meth:`RankTransport.run <repro.runtime.transport.RankTransport.run>`,
with its sweep clock, fault injection, heartbeats and strict orphan
check), a rank worker of :mod:`repro.runtime.parallel` over the
shared-memory rings, and the model checker
(:func:`repro.analysis.model.scheduled_model`), which therefore proves
the walk that runs on real cores.

A static schedule must consume the *specific* message each receive task
names, while a rank's inbox is one FIFO in arrival order (wall-time
nondeterministic on real rings), so whatever arrives ahead of the
expected message waits in a stash keyed by (tag, microbatch).  Tags are
``"F"`` / ``"B"`` (activation / gradient), qualified with the receiving
virtual stage (``"F@3"``) when a rank owns several chunks.  Numerics are
independent of arrival order, so losses and weights are bit-identical
across backends while receive timestamps legitimately differ; what every
run of a schedule shares is each rank's send order and each channel's
receive order (pinned in ``tests/test_sched.py``).

``W`` tasks are ordering-only on the functional substrate: the numpy
autograd computes input and weight gradients together inside ``BWD``,
so a split schedule executes the full backward there and ``W`` marks
the point where the weight gradient is *scheduled* to materialize.  The
DES (:mod:`repro.sched.des`) prices the two halves separately — that is
where zero-bubble's benefit is measured.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..obs import RuntimeTracer
from ..runtime.grid import RankGrid
from ..runtime.rankprog import SendFn, traced_passes
from ..runtime.tp import TPComm
from ..runtime.transport import RECV
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD,
                 Schedule)

__all__ = ["lower_rank"]


def lower_rank(schedule: Schedule, grid: RankGrid, rank: int,
               stages: Dict[int, object], send: SendFn,
               microbatches: List[Tuple[np.ndarray, np.ndarray]],
               total_microbatches: int, loss_scale: float = 1.0,
               tracer: Optional[RuntimeTracer] = None,
               tp: Optional[TPComm] = None) -> Generator:
    """One rank's program: the single walk of a schedule's task order.

    ``stages`` maps virtual stage -> stage object for the stages this
    rank owns (symbolic stages work too — the model checker lowers the
    very same way).  ``send``, ``loss_scale``, ``tracer`` and ``tp`` mean
    what they do to :func:`~repro.runtime.rankprog.inter_layer_step`:
    with ``tp`` this rank leads a tensor-parallel group, every pass
    carries the group's collective and the followers' acks are absorbed
    by the same receives.
    """
    i, j = grid.coord_of(rank)
    last = schedule.n_virtual - 1
    divisor = float(total_microbatches)
    passes = {v: traced_passes(stage, rank, tracer, tp)
              for v, stage in stages.items()}
    acks = 0 if tp is None else len(microbatches) * tp.acks_per_microbatch

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
                if tp is not None and tp.absorbs(pkt):
                    acks -= 1
                else:
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
        # W: ordering-only here (see module docstring); the weight
        # gradient was materialized by the stage's full backward.
    # The followers reflect the last passes' collectives after the order
    # has nothing left to receive.
    while acks:
        pkt = yield RECV
        if not tp.absorbs(pkt):  # pragma: no cover - defensive
            raise RuntimeError(
                f"rank {rank} received unexpected packet {pkt}")
        acks -= 1
    if stash:  # pragma: no cover - defensive
        # The stash must not hide an orphan from the transport's check.
        raise RuntimeError(
            f"rank {rank} finished its order holding unexpected "
            f"messages {sorted(stash)}")
