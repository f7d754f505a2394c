"""Compiler: lower a validated schedule to executable rank programs.

One generator, :func:`lower_rank`, walks a rank's task order; the
substrate enters only through its ``send`` callable and its ``recv``
sub-generator, so both backends and the model checker execute the very
same walk:

* **cooperative** (:func:`plane_recv` + :func:`pump`): a receive is a
  ``yield "F"`` / ``yield "B"`` wait on one of two tag planes — a static
  schedule must receive the *specific* expected message, so forward and
  backward traffic get separate inboxes (two MPI tags) and the pump pops
  from the matching plane only.  Because the builders attach each
  receive immediately before and each send immediately after its
  compute task, compiled 1F1B/GPipe reproduce the trace a hand-written
  flushing rank program records, event for event (golden digests in
  ``tests/test_sched.py``).

* **process** (:func:`_sched_worker` + :meth:`ScheduledPipelineTrainer`
  with ``backend="process"``): a module-level worker program per rank
  over :class:`~repro.runtime.parallel.ProcessTransport`'s single-FIFO
  ``yield RECV`` protocol.  Real rings deliver in arrival order, which
  is nondeterministic in wall time, so the worker's ``recv`` reorders
  through a small stash keyed by (tag, microbatch); numerics are
  unchanged, so losses and weights stay bit-identical to the
  cooperative run while the *receive* timestamps legitimately differ.

``W`` tasks are ordering-only on the functional substrate: the numpy
autograd computes input and weight gradients together inside ``BWD``,
so a split schedule executes the full backward there and ``W`` marks
the point where the weight gradient is *scheduled* to materialize.  The
DES (:mod:`repro.sched.des`) prices the two halves separately — that is
where zero-bubble's benefit is measured.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from ..analysis.protocol import describe_deadlock
from ..nn import AdamW, GPTConfig, num_layer_slots
from ..runtime.grid import RankGrid, split_batch
from ..runtime.stage import PipelineStage
from ..runtime.transport import RECV, DeadlockError, RankTransport
from .builders import SCHEDULE_NAMES, build_schedule, schedule_chunks
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD,
                 Schedule, validate)

__all__ = ["lower_rank", "plane_recv", "plane_tag", "pump",
           "ScheduledPipelineTrainer"]


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
               total_microbatches: int) -> Generator:
    """One rank's program: the single walk of a schedule's task order.

    ``stages`` maps virtual stage -> stage object for the stages this
    rank owns (symbolic stages work too — the model checker lowers the
    very same way).  The substrate enters through two callables only:
    ``send(dst, plane, stage, mb, data)`` emits a message on ``plane``
    ("F"/"B") into virtual ``stage`` on rank ``dst``, and
    ``recv(plane, stage, mb)`` is a sub-generator that yields the
    substrate's receive requests until that message is in hand and
    returns its payload.
    """
    i, j = grid.coord_of(rank)
    last = schedule.n_virtual - 1
    divisor = float(total_microbatches)
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
            stage = stages[v]
            if v == last:
                stage.forward(mb, data, targets=microbatches[mb][1],
                              loss_divisor=divisor)
            else:
                held[("out", v, mb)] = stage.forward(mb, data)
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
            grad_in = stages[v].backward(mb, grad)
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


class ScheduledPipelineTrainer:
    """Train any valid IR schedule: the static-schedule executor.

    The schedule is *data*: pass a shipped schedule name ("axonn",
    "1f1b", "gpipe", "interleaved", "zb-h1") or a validated
    :class:`~repro.sched.ir.Schedule` instance (e.g. a search winner).
    Every schedule flushes, so strict optimizer semantics hold and the
    losses must coincide with :class:`~repro.runtime.SerialTrainer`'s:
    schedules differ in *when* work happens, never in what is computed.
    Virtual chunks build one :class:`PipelineStage` per virtual stage
    (``n_virtual`` must not exceed the model's layer slots).

    ``backend="process"`` runs each rank program in its own OS process
    over shared-memory rings; the parent stays the parameter master and
    applies gradients, so results are bit-identical to the cooperative
    backend (dropout must be 0 there — workers are stateless per batch
    and cannot carry the RNG streams across batches).
    """

    def __init__(self, cfg: GPTConfig, g_inter: int, g_data: int = 1,
                 microbatch_size: int = 1, lr: float = 1e-3,
                 betas: Tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.01,
                 schedule: Union[str, Schedule] = "1f1b",
                 checkpoint_activations: bool = False, recorder=None,
                 backend: str = "cooperative"):
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if backend not in ("cooperative", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.cfg = cfg
        self.grid = RankGrid(g_inter, g_data)
        self.microbatch_size = microbatch_size
        self.recorder = recorder
        self.backend = backend
        self.checkpoint_activations = checkpoint_activations
        if isinstance(schedule, Schedule):
            validate(schedule)
            if schedule.n_stages != g_inter:
                raise ValueError(
                    f"schedule {schedule.name!r} is built for "
                    f"{schedule.n_stages} stages, trainer has {g_inter}")
            self.schedule_name = schedule.name
            self._fixed_schedule: Optional[Schedule] = schedule
            self.n_virtual = schedule.n_virtual
        else:
            self.schedule_name = schedule
            self._fixed_schedule = None
            if schedule not in SCHEDULE_NAMES:
                raise ValueError(
                    f"unknown schedule {schedule!r}; shipped: "
                    f"{', '.join(SCHEDULE_NAMES)}")
            self.n_virtual = schedule_chunks(schedule) * g_inter
        if self.n_virtual > num_layer_slots(cfg):
            raise ValueError(
                f"{self.n_virtual} virtual stages exceed the model's "
                f"{num_layer_slots(cfg)} layer slots")
        if backend == "process" and cfg.dropout > 0:
            raise ValueError(
                "process backend needs dropout=0.0 (stateless workers "
                "cannot carry dropout RNG streams across batches)")
        self._schedule_cache: Dict[int, Schedule] = {}
        #: stages keyed by (virtual stage, data-parallel column)
        self.stages: Dict[Tuple[int, int], PipelineStage] = {}
        self.optimizers: Dict[int, AdamW] = {}
        for rank in range(self.grid.world_size):
            i, j = self.grid.coord_of(rank)
            params = []
            for v in range(self.n_virtual):
                if v % g_inter != i:
                    continue
                stage = PipelineStage(
                    cfg, v, self.n_virtual,
                    checkpoint_activations=checkpoint_activations)
                self.stages[(v, j)] = stage
                params.extend(stage.parameters())
            self.optimizers[rank] = AdamW(params, lr=lr, betas=betas,
                                          weight_decay=weight_decay)
        self.batches_trained = 0
        self._transport = None

    # ------------------------------------------------------------------
    def _schedule_for(self, m: int) -> Schedule:
        if self._fixed_schedule is not None:
            if self._fixed_schedule.n_microbatches != m:
                raise ValueError(
                    f"schedule {self.schedule_name!r} is built for "
                    f"{self._fixed_schedule.n_microbatches} microbatches "
                    f"per shard, this batch has {m}")
            return self._fixed_schedule
        sched = self._schedule_cache.get(m)
        if sched is None:
            sched = build_schedule(self.schedule_name, self.grid.g_inter, m)
            self._schedule_cache[m] = sched
        return sched

    def _rank_stages(self, rank: int) -> Dict[int, PipelineStage]:
        i, j = self.grid.coord_of(rank)
        return {v: self.stages[(v, j)] for v in range(self.n_virtual)
                if v % self.grid.g_inter == i}

    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One scheduled pipeline pass + all-reduce + optimizer step."""
        groups, total_mb = split_batch(x, y, self.grid.g_data,
                                       self.microbatch_size)
        sched = self._schedule_for(len(groups[0]))
        for stage in self.stages.values():
            stage.microbatch_losses.clear()
        for opt in self.optimizers.values():
            opt.zero_grad()

        if self.backend == "process":
            self._run_process(sched, groups, total_mb)
        else:
            self._run_cooperative(sched, groups, total_mb)

        # Data-parallel all-reduce (sum), identical to the AxoNN engine:
        # one collective per parameter slot of each pipeline rank's
        # column, recorded before the numeric loop so the protocol
        # verifier's column check applies unchanged.
        if self.grid.g_data > 1:
            for i in range(self.grid.g_inter):
                column = self.grid.data_parallel_ranks(i)
                param_lists = [self.optimizers[r].params for r in column]
                if self.recorder is not None:
                    for slot in range(len(param_lists[0])):
                        for r in column:
                            self.recorder.record_collective(
                                r, "allreduce_fp32", key=(i, slot))
                for params in zip(*param_lists):
                    grads = [p.grad for p in params if p.grad is not None]
                    if not grads:
                        continue
                    total = np.sum(grads, axis=0)
                    for p in params:
                        p.grad = total.copy()
        for opt in self.optimizers.values():
            opt.step()
        self.batches_trained += 1

        last = self.n_virtual - 1
        losses = [
            loss
            for (v, _j), stage in self.stages.items()
            if v == last
            for loss in stage.microbatch_losses.values()
        ]
        return float(np.mean(losses))

    def _run_cooperative(self, sched: Schedule, groups, total_mb: int):
        world = self.grid.world_size
        # Two tag planes so a static schedule receives exactly the
        # message it expects; the pump merges them per rank.
        nets = {plane: RankTransport(world, recorder=self.recorder)
                for plane in ("F", "B")}
        programs = {}
        for rank in range(world):
            _i, j = self.grid.coord_of(rank)
            send = (lambda dst, plane, _stage, mb, data, _r=rank:
                    nets[plane].send(_r, dst, plane, mb, data))
            programs[rank] = lower_rank(
                sched, self.grid, rank, self._rank_stages(rank),
                send, plane_recv, groups[j], total_mb)
        pump(nets, programs)

    # -- process backend ---------------------------------------------------
    def _run_process(self, sched: Schedule, groups, total_mb: int):
        from ..runtime.parallel import ProcessTransport, ProgramSpec
        if self._transport is None:
            self._transport = ProcessTransport(self.grid.world_size,
                                               recorder=self.recorder)
        programs = {}
        for rank in range(self.grid.world_size):
            _i, j = self.grid.coord_of(rank)
            params = {v: [p.data for p in stage.parameters()]
                      for v, stage in self._rank_stages(rank).items()}
            programs[rank] = ProgramSpec(
                _sched_worker, self.cfg, sched, self.grid.g_inter,
                self.grid.g_data, params, groups[j], total_mb,
                self.checkpoint_activations)
        results = self._transport.run(programs)
        for rank, reply in results.items():
            for v, grads in reply["grads"].items():
                for p, g in zip(self.stages[(v,
                                             self.grid.coord_of(rank)[1])]
                                .parameters(), grads):
                    p.grad = None if g is None else g
            for v, losses in reply["losses"].items():
                stage = self.stages[(v, self.grid.coord_of(rank)[1])]
                stage.microbatch_losses.update(losses)

    def close(self) -> None:
        """Shut down process-backend resources; idempotent."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- diagnostics -----------------------------------------------------
    def gather_state(self, j: int = 0) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for v in range(self.n_virtual):
            for name, p in self.stages[(v, j)].named_parameters():
                state[name] = p.data.copy()
        return state


def _sched_worker(rank: int, send, cfg: GPTConfig, sched: Schedule,
                  g_inter: int, g_data: int,
                  params: Dict[int, List[np.ndarray]],
                  microbatches, total_mb: int,
                  checkpoint_activations: bool):
    """Module-level process-backend rank program (ProgramSpec target).

    Rebuilds this rank's virtual stages, loads the shipped parameters,
    runs :func:`lower_rank` under the single-FIFO ``yield RECV``
    protocol (reordering through a (tag, microbatch) stash — ring
    arrival order is wall-time nondeterministic), and returns gradients
    and losses for the parent to apply.  The walk is the cooperative
    backend's, so the numerics are bit-identical to it.
    """
    grid = RankGrid(g_inter, g_data)
    stages: Dict[int, PipelineStage] = {}
    for v, arrays in params.items():
        stage = PipelineStage(cfg, v, sched.n_virtual,
                              checkpoint_activations=checkpoint_activations)
        for p, arr in zip(stage.parameters(), arrays):
            np.copyto(p.data, arr)
        stages[v] = stage
    stash: Dict[Tuple[str, int], object] = {}

    def tagged_send(dst: int, plane: str, stage: int, mb: int, data):
        send(dst, plane_tag(sched, plane, stage), mb, data)

    def stash_recv(plane: str, stage: int, mb: int):
        key = (plane_tag(sched, plane, stage), mb)
        while key not in stash:
            pkt = yield RECV
            stash[(pkt.tag, pkt.microbatch)] = pkt.data
        return stash.pop(key)

    yield from lower_rank(sched, grid, rank, stages, tagged_send,
                          stash_recv, microbatches, total_mb)
    last = sched.n_virtual - 1
    return {
        "grads": {v: [p.grad for p in stage.parameters()]
                  for v, stage in stages.items()},
        "losses": {v: dict(stage.microbatch_losses)
                   for v, stage in stages.items() if v == last},
    }
