"""Compiler: lower a validated schedule to executable rank programs.

One generator, :func:`lower_rank`, walks a rank's task order; the
substrate enters only through its ``send`` callable and its ``recv``
sub-generator, so both backends of
:class:`~repro.runtime.engine.AxoNNTrainer` (``schedule=...``) and the
model checker execute the very same walk:

* **cooperative** (:func:`plane_recv` + :func:`pump`): a receive is a
  ``yield "F"`` / ``yield "B"`` wait on one of two tag planes — a static
  schedule must receive the *specific* expected message, so forward and
  backward traffic get separate inboxes (two MPI tags) and the pump pops
  from the matching plane only.  Because the builders attach each
  receive immediately before and each send immediately after its
  compute task, compiled 1F1B/GPipe reproduce the trace a hand-written
  flushing rank program records, event for event (golden digests in
  ``tests/test_sched.py``).

* **process** (:func:`stash_recv`, driven by a rank worker of
  :mod:`repro.runtime.parallel`): the single-FIFO ``yield RECV``
  protocol of the shared-memory rings.  Real rings deliver in arrival
  order, which is nondeterministic in wall time, so the ``recv``
  reorders through a small stash keyed by (tag, microbatch); numerics
  are unchanged, so losses and weights stay bit-identical to the
  cooperative run while the *receive* timestamps legitimately differ.

``W`` tasks are ordering-only on the functional substrate: the numpy
autograd computes input and weight gradients together inside ``BWD``,
so a split schedule executes the full backward there and ``W`` marks
the point where the weight gradient is *scheduled* to materialize.  The
DES (:mod:`repro.sched.des`) prices the two halves separately — that is
where zero-bubble's benefit is measured.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..analysis.protocol import describe_deadlock
from ..obs import RuntimeTracer
from ..runtime.grid import RankGrid
from ..runtime.rankprog import traced_passes
from ..runtime.transport import RECV, DeadlockError, RankTransport
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD,
                 Schedule)

__all__ = ["lower_rank", "plane_recv", "plane_tag", "pump", "stash_recv"]


def plane_tag(schedule: Schedule, plane: str, stage: int) -> str:
    """Wire tag for a message into virtual ``stage`` on ``plane``.

    The cooperative substrate always uses the bare plane ("F"/"B") — the
    plane *is* the inbox, and single-chunk tags must match the golden
    flushing traces byte-for-byte.  The process substrate shares one
    FIFO per channel, so multi-chunk schedules qualify the tag with the
    receiving virtual stage to keep stash keys unambiguous.
    """
    if schedule.n_chunks == 1:
        return plane
    return f"{plane}@{stage}"


def lower_rank(schedule: Schedule, grid: RankGrid, rank: int,
               stages: Dict[int, object], send: Callable, recv: Callable,
               microbatches: List[Tuple[np.ndarray, np.ndarray]],
               total_microbatches: int, loss_scale: float = 1.0,
               tracer: Optional[RuntimeTracer] = None) -> Generator:
    """One rank's program: the single walk of a schedule's task order.

    ``stages`` maps virtual stage -> stage object for the stages this
    rank owns (symbolic stages work too — the model checker lowers the
    very same way).  The substrate enters through two callables only:
    ``send(dst, plane, stage, mb, data)`` emits a message on ``plane``
    ("F"/"B") into virtual ``stage`` on rank ``dst``, and
    ``recv(plane, stage, mb)`` is a sub-generator that yields the
    substrate's receive requests until that message is in hand and
    returns its payload.  ``loss_scale`` and ``tracer`` mean what they
    do to :func:`~repro.runtime.rankprog.inter_layer_step`.
    """
    i, j = grid.coord_of(rank)
    last = schedule.n_virtual - 1
    divisor = float(total_microbatches)
    passes = {v: traced_passes(stage, rank, tracer)
              for v, stage in stages.items()}
    held: Dict[Tuple[str, int, int], object] = {}
    for task in schedule.rank_order[i]:
        v, mb = task.stage, task.mb
        if task.kind == RECV_ACT:
            held[("act", v, mb)] = yield from recv("F", v, mb)
        elif task.kind == RECV_GRAD:
            held[("grad", v, mb)] = yield from recv("B", v, mb)
        elif task.kind == FWD:
            if v == 0:
                data = microbatches[mb][0]
            elif schedule.crosses(v - 1):
                data = held.pop(("act", v, mb))
            else:  # same-rank boundary: local handoff
                data = held.pop(("out", v - 1, mb))
            forward = passes[v][0]
            if v == last:
                forward(mb, data, targets=microbatches[mb][1],
                        loss_divisor=divisor, loss_scale=loss_scale)
            else:
                held[("out", v, mb)] = forward(mb, data)
        elif task.kind == SEND_ACT:
            send(grid.rank_of(schedule.placement(v + 1), j), "F", v + 1, mb,
                 held.pop(("out", v, mb)))
        elif task.kind == BWD:
            if v == last:
                grad = None
            elif schedule.crosses(v):
                grad = held.pop(("grad", v, mb))
            else:
                grad = held.pop(("gin", v + 1, mb))
            grad_in = passes[v][1](mb, grad)
            if v > 0:
                held[("gin", v, mb)] = grad_in
        elif task.kind == SEND_GRAD:
            send(grid.rank_of(schedule.placement(v - 1), j), "B", v - 1, mb,
                 held.pop(("gin", v, mb)))
        # W: ordering-only here (see module docstring); the weight
        # gradient was materialized by the stage's full backward.


def plane_recv(plane: str, stage: int, mb: int) -> Generator:
    """Cooperative ``recv`` for :func:`lower_rank`.  Each plane is a
    FIFO the validator proved consistent, so the wait names only the
    plane — which also keeps the model checker's proofs linear."""
    pkt = yield plane
    return pkt.data


def stash_recv(schedule: Schedule) -> Callable:
    """Process-substrate ``recv`` for :func:`lower_rank`: one rank's
    single FIFO under the ``yield RECV`` protocol.  Ring arrival order
    is wall-time nondeterministic, so whatever arrives ahead of the
    message the schedule expects waits in a stash keyed by
    (:func:`plane_tag`, microbatch)."""
    stash: Dict[Tuple[str, int], object] = {}

    def recv(plane: str, stage: int, mb: int) -> Generator:
        key = (plane_tag(schedule, plane, stage), mb)
        while key not in stash:
            pkt = yield RECV
            stash[(pkt.tag, pkt.microbatch)] = pkt.data
        return stash.pop(key)

    return recv


def pump(nets: Dict[str, RankTransport],
         programs: Dict[int, Generator]) -> None:
    """Drive rank programs with *tag-aware* receives.

    ``nets`` maps each tag plane ("F", "B") to its transport.  A rank
    program yields a plane to wait for the next message of that tag; the
    pump pops from the matching transport only.  (A message-driven
    scheduler would take whichever arrives first — the structural
    difference between AxoNN and the flushing baselines, here in
    executable form.)  Raises :class:`~repro.runtime.transport.
    DeadlockError` when every unfinished rank waits on an empty plane.
    """
    live = dict(programs)
    waiting: Dict[int, str] = {}  # rank -> plane; absent until first yield
    heard_from: Dict[int, set] = {rank: set() for rank in live}
    while live:
        progressed = False
        for rank in sorted(live):
            gen = live[rank]
            while True:
                pkt = None  # a fresh generator starts on send(None)
                if rank in waiting:
                    net = nets[waiting[rank]]
                    if not net.inboxes[rank]:
                        break
                    pkt = net.inboxes[rank].popleft()
                    if net.recorder is not None:
                        net.recorder.record_recv(rank, pkt.src, pkt.tag,
                                                 pkt.microbatch)
                    if net.tracer is not None:
                        net._trace_delivery(pkt)
                    heard_from[rank].add(pkt.src)
                progressed = True
                try:
                    request = gen.send(pkt)
                except StopIteration:
                    del live[rank]
                    break
                if request not in nets:
                    raise RuntimeError(
                        f"rank {rank} yielded {request!r}; rank programs "
                        f"may only yield a tag plane "
                        f"({', '.join(map(repr, nets))})")
                waiting[rank] = request
        if live and not progressed:
            stuck = sorted(live)
            wait_for = {rank: sorted(heard_from[rank]) for rank in stuck}
            orphans = [pkt for net in nets.values()
                       for inbox in net.inboxes for pkt in inbox]
            sent = sum(net.messages_sent for net in nets.values())
            raise DeadlockError(
                describe_deadlock(stuck, wait_for, orphans, sent),
                stuck=stuck, wait_for=wait_for, orphans=orphans)
