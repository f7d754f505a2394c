"""Pre-run communication model checker (skeleton extraction + exploration).

:mod:`repro.obs.protocol` verifies traces of runs that *already
happened*; this module certifies a schedule/config *before* spending a run
on it.  Three pieces:

* **Comm-skeleton extraction** (:func:`extract_skeleton`) — run the
  ensemble once, with abstract payloads, on the real cooperative
  transport (:class:`~repro.runtime.transport.RankTransport`) and read
  each rank's sends, receives and collectives off its
  :class:`~repro.obs.protocol.TraceRecorder`.
  Crucially the models drive the *real* generators — Algorithm 2's
  :func:`~repro.runtime.rankprog.inter_layer_step`, the static walk
  :func:`~repro.runtime.rankprog.lower_rank` and the serving
  engine's scheduler / prefill / shard programs — with symbolic stages, so
  the skeleton cannot drift from the runtime (the cross-validation
  tests pin op-for-op agreement with
  :class:`~repro.obs.protocol.TraceRecorder` traces of actual runs).

* **Model checking** (:func:`check_model`) — exhaustively explore the
  interleavings of the skeleton ensemble.  The state is the vector of
  per-channel consumed counts (a channel is a directed ``(src, dst,
  plane)`` FIFO), which is exactly the Mazurkiewicz-trace quotient: all
  interleavings that merely commute independent deliveries hash to the
  same state, a partial-order reduction that keeps every small config
  (``g_inter x g_data <= 8``, ``microbatches <= 4``) in the low thousands
  of states.  A ``yield POLL`` is a choice point — any deliverable channel
  head, or None (a message sent need not have arrived) — so a rank's
  arrivals may be grouped into drains every possible way; while a rank
  drains, where its drain began is part of the state.  Rank behaviour is
  memoized per (rank, consumed counts, drain start) and
  reconstructed by witness replay on a fresh program; a global append-only
  per-channel send log cross-checks every replay (two interleavings that
  reach the same counts must produce identical channel prefixes —
  divergence means the program is not confluent and the quotient would be
  unsound, so it raises :class:`ModelError` instead of mis-verifying).
  The checker proves deadlock-freedom and complete matching, checks
  per-group tensor-parallel collective order, and on failure emits a
  wait-for-graph counterexample with the full interleaving op trace
  (:class:`DeadlockWitness`).

* **Built-in models** — :func:`axonn_model` (optionally followed by
  :func:`column_model`, Algorithm 1's column reduce and overflow
  verdict, the real :class:`~repro.runtime.column.ColumnStep`),
  :func:`scheduled_model`
  (every IR schedule, 1F1B / GPipe included), :func:`serve_model` (one
  shell for both placements of the one server), and the seeded
  :func:`deadlock_mutant_model` (a last stage that defers each backward
  send until the *next* forward arrives, so the final gradient is never
  sent — every interleaving deadlocks, and the checker must say exactly
  where) and :func:`full_group_mutant_model` (a first stage that awaits a
  full group of ``pipeline_limit`` gradients before a backward — the
  checker must refute it whenever ``m % pipeline_limit != 0``).

``python -m repro verify`` sweeps :func:`builtin_models` with these
checks; ``pytest -m lint`` pins the acceptance bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Generator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..nn import LossScaler, Parameter
from ..obs.protocol import (ProtocolError, TraceRecorder,
                            check_collective_order, describe_deadlock)
from ..runtime.column import ColumnStep, make_optimizer
from ..runtime.grid import RankGrid
from ..runtime.rankprog import (TAG_BWD, TAG_FWD, inter_layer_step,
                                rank_program)
from ..runtime.transport import (POLL, RECV, DeadlockError, Packet,
                                 RankTransport)
from ..sched.builders import build_schedule
from ..sched.ir import Schedule
from ..serve.engine import PipelineServer, Request

__all__ = [
    "CheckResult",
    "CommModel",
    "DeadlockWitness",
    "ModelError",
    "Skeleton",
    "SkeletonOp",
    "axonn_model",
    "builtin_models",
    "check_model",
    "column_model",
    "compare_with_trace",
    "deadlock_mutant_model",
    "extract_skeleton",
    "full_group_mutant_model",
    "scheduled_model",
    "serve_model",
]

#: the plane of ordinary ``yield RECV`` traffic — Algorithm 2's, a
#: compiled schedule's and the serving engine's alike.
P2P = "p2p"

#: pseudo-plane for in-stream collective records (tensor-parallel groups);
#: these never enter an inbox or a channel — they are ordering marks.
COLLECTIVE_PLANE = "__collective__"

#: model-side plane routing for tensor-parallel traffic.  The runtime
#: multiplexes weight and gradient messages over one FIFO per lead ->
#: follower pair; their interleaving there depends on the schedule, which
#: would make per-channel content interleaving-dependent and the
#: checker's counts-quotient unsound.  Per-direction planes restore
#: confluence — each plane's send sequence is schedule-independent — at
#: the cost of exploring a *superset* of the real FIFO's delivery orders,
#: which is sound for deadlock-freedom and matching (the follower accepts
#: the messages in any order).
_TP_PLANES = {"tp_wgt": "W", "tp_grad": "G"}

Channel = Tuple[int, int, str]  # (src, dst, plane)


class ModelError(RuntimeError):
    """The model could not be checked: a rank program yielded something
    that is not a receive request, sent to an invalid destination,
    diverged between interleavings (non-confluent behaviour, which would
    make the counts-quotient unsound), or the state space exceeded
    ``max_states``."""


@dataclass(frozen=True)
class SkeletonOp:
    """One typed channel operation of a rank's communication skeleton."""

    kind: str                      # "send" | "recv" | "collective"
    rank: int
    peer: Optional[int] = None
    tag: str = ""
    microbatch: Any = None
    key: Any = None
    plane: str = P2P

    def __str__(self) -> str:
        if self.kind == "send":
            return (f"send {self.rank} -> {self.peer} tag={self.tag!r} "
                    f"microbatch={self.microbatch}")
        if self.kind == "recv":
            return (f"recv {self.rank} <- {self.peer} tag={self.tag!r} "
                    f"microbatch={self.microbatch}")
        return (f"collective rank={self.rank} op={self.tag!r} "
                f"key={self.key!r}")


@dataclass(frozen=True)
class _Msg:
    src: int
    dst: int
    tag: str
    microbatch: Any
    plane: str
    data: Any = None


class _Capture:
    """The symbolic transport: every model's programs send through one of
    these.  Signature-compatible with ``RankTransport.send`` so the real
    generators run unmodified.  Bound to a ``transport`` (skeleton
    extraction), it forwards each send there and remembers the plane of
    each ``(src, dst, tag)``; otherwise sends accumulate in ``sent`` for
    the explorer to drain after each generator resume."""

    def __init__(self, n_ranks: int,
                 transport: Optional[RankTransport] = None):
        self.n_ranks = n_ranks
        self.transport = transport
        self.planes: Dict[Tuple[int, int, str], str] = {}
        self.sent: List[_Msg] = []

    def send(self, src: int, dst: int, tag: str, microbatch: Any,
             data: Any = None, *, plane: str = P2P) -> None:
        if not (0 <= src < self.n_ranks and 0 <= dst < self.n_ranks):
            raise ModelError(f"send outside rank space: {src} -> {dst}")
        if src == dst:
            raise ModelError(f"rank {src} sent to itself (tag={tag!r})")
        if self.transport is None:
            self.sent.append(_Msg(src, dst, tag, microbatch, plane, data))
        else:
            self.planes[(src, dst, tag)] = plane
            self.transport.send(src, dst, tag, microbatch, data)

    def collective(self, rank: int, op: str, key: Any) -> None:
        """Record an in-stream collective (e.g. a tensor-parallel weight
        all-gather) at its position in the rank's op sequence.  Rides the
        same buffer as sends so the explorer sees it in program order, but
        never becomes a deliverable message."""
        if self.transport is None:
            self.sent.append(_Msg(rank, rank, op, None, COLLECTIVE_PLANE,
                                  key))
        else:
            self.transport.recorder.record_collective(rank, op, key=key)

    def drain(self) -> List[_Msg]:
        out, self.sent = self.sent, []
        return out


class _SymbolicStage:
    """Duck-typed :class:`~repro.runtime.stage.PipelineStage` that computes
    nothing: payloads are abstract (one ``None`` per member of a group),
    only the communication structure matters.  ``chunks`` maps each of
    ``n_virtual`` virtual stages to itself (a static walk reads only its
    own), and ``layers`` is empty, so a tensor-parallel lead's
    :class:`~repro.runtime.tp.ShardMap` names no bytes."""

    layers: Tuple = ()

    def __init__(self, n_virtual: int = 1):
        self.chunks = {v: self for v in range(n_virtual)}

    def forward(self, mbs: Sequence[Any], xs: Any, targets: Any = None,
                loss_divisor: Any = None,
                loss_scale: Any = None) -> List[None]:
        return [None] * len(mbs)

    def backward(self, mbs: Sequence[Any], grads: Any = None) -> List[None]:
        return [None] * len(mbs)


class _SymbolicServeStage:
    """Duck-typed :class:`~repro.runtime.stage.InferenceStage`: the last
    shard samples from the returned logits, so hand it a fixed tiny
    distribution (greedy requests make the choice deterministic).  The
    KV-handoff surface exports empty blocks (KV content is irrelevant to
    communication structure) and accepts them."""

    def start_request(self, rid: int) -> None:
        return None

    def finish_request(self, rid: int) -> None:
        return None

    def forward(self, rids: Sequence[int], xs: Sequence[Any]) -> np.ndarray:
        return np.zeros((len(rids), 1, 2))

    def export_kv(self, rid: int) -> Tuple[int, Dict[int, Any]]:
        return 1, {}

    def import_kv(self, rid: int, pos: int, blocks: Dict[int, Any]) -> None:
        return None


@dataclass
class CommModel:
    """A parameterized ensemble of rank programs plus its collective plan.

    ``make_programs(capture)`` must build *fresh* generators each call
    (the checker replays prefixes on new instances); ``collectives`` maps
    rank -> ordered ``(op, key)`` list (what the engine's data-parallel
    phase records after the transport run), which skeleton extraction
    appends for :func:`compare_with_trace`."""

    name: str
    n_ranks: int
    make_programs: Callable[[_Capture], Dict[int, Generator]]
    collectives: Dict[int, List[Tuple[str, Any]]] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    #: tensor-parallel groups whose in-stream ``tp_*`` collective sequences
    #: (captured during skeleton extraction) must agree member-for-member
    tp_groups: List[List[int]] = field(default_factory=list)
    #: ranks whose programs are *sinks*: they always wait on an
    #: unrestricted receive ("any"), send nothing, and finish after a
    #: fixed delivery count in any arrival order.  The explorer fires
    #: deliveries to these ranks eagerly (a sound partial-order
    #: reduction; see :class:`_Explorer`).
    sink_ranks: FrozenSet[int] = frozenset()
    #: the phase every rank enters once its program here has returned —
    #: Algorithm 1's column reduce and optimizer step — checked as a
    #: model of its own (see :func:`check_model`)
    then: Optional["CommModel"] = None

    def describe(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.config.items())
        return f"{self.name}[{args}]"


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _close_all(programs: Dict[int, Generator]) -> None:
    for gen in programs.values():
        gen.close()


def _dp_collective_plan(grid: RankGrid, param_slots: Any
                        ) -> Dict[int, List[Tuple[str, Any]]]:
    """What every trainer's data-parallel phase records after the
    transport run: one ``allreduce_fp32`` per parameter slot (an int, or
    one per stage) on each rank of a grid column."""
    slots = ([param_slots] * grid.g_inter if isinstance(param_slots, int)
             else list(param_slots))
    collectives: Dict[int, List[Tuple[str, Any]]] = {}
    if grid.g_data > 1:
        for i in range(grid.g_inter):
            plan = [("allreduce_fp32", (i, slot)) for slot in range(slots[i])]
            for r in grid.data_parallel_ranks(i):
                collectives[r] = list(plan)
    return collectives


def _training_model(name: str, grid: RankGrid, m: int,
                    config: Dict[str, Any], param_slots: Any,
                    schedule: Optional[Schedule] = None,
                    limit: Optional[int] = None,
                    concurrent_peers: bool = True) -> CommModel:
    """A training grid's ensemble, each rank bound by the *real*
    :func:`~repro.runtime.rankprog.rank_program` both backends call:
    Algorithm 2 under ``limit`` (``schedule`` None) or the static walk of
    ``schedule`` on symbolic stages, a follower's receive-only program,
    and every ``tp_*`` collective captured in-stream for the per-group
    order check.  ``concurrent_peers`` picks the binding: True is the
    process backend's, False the cooperative backend's."""
    n_virtual = 1 if schedule is None else schedule.n_virtual

    def make(capture: _Capture) -> Dict[int, Generator]:
        programs: Dict[int, Generator] = {}
        for rank in range(grid.world_size):
            send = (lambda dst, tag, mb, data, _r=rank:
                    capture.send(_r, dst, tag, mb, data,
                                 plane=_TP_PLANES.get(tag.partition("@")[0],
                                                      P2P)))
            stage = _SymbolicStage(n_virtual) \
                if grid.is_tp_lead(rank) else None
            programs[rank] = rank_program(
                rank, grid, stage, send, [(None, None)] * m, m * grid.g_data,
                limit, schedule,
                record=lambda r, op, key, nbytes: capture.collective(
                    r, op, key),
                concurrent_peers=concurrent_peers)
        return programs

    tp_groups: List[List[int]] = []
    sinks: FrozenSet[int] = frozenset()
    if grid.g_intra > 1:
        config["g_intra"] = grid.g_intra
        tp_groups = [grid.tp_group(i, j) for j in range(grid.g_data)
                     for i in range(grid.g_inter)]
        # TP followers run tp_follower_step: always `yield RECV` ("any"),
        # never a send, done after 2m deliveries per chunk in any order.
        sinks = frozenset(r for r in range(grid.world_size)
                          if not grid.is_tp_lead(r))
    return CommModel(name, grid.world_size, make,
                     _dp_collective_plan(grid, param_slots), config,
                     tp_groups=tp_groups, sink_ranks=sinks)


def column_model(grid: RankGrid, param_slots: Any = 1,
                 precision: str = "fp32") -> CommModel:
    """Algorithm 1's end of a batch on every lead rank of ``grid``: the
    *real* :meth:`~repro.runtime.column.ColumnStep.run` — the column
    reduce, under ``precision="mixed"`` also the grid's overflow verdict
    along each pipeline and back — over one-element parameters
    (``param_slots`` per stage, one fp16 chunk each).  Its messages ride
    their own ``dp`` plane, as on the process backend's ``"dp"`` rings."""
    slots = ([param_slots] * grid.g_inter if isinstance(param_slots, int)
             else list(param_slots))

    def make(capture: _Capture) -> Dict[int, Generator]:
        programs: Dict[int, Generator] = {}
        for rank in range(grid.world_size):
            if not grid.is_tp_lead(rank):
                continue
            i, _j = grid.coord_of(rank)
            params = [Parameter(np.zeros(1, dtype=np.float32))
                      for _ in range(slots[i])]
            for p in params:
                p.grad = np.zeros(1, dtype=np.float32)
            opt = make_optimizer(params, precision, False, 1,
                                 LossScaler(dynamic=False))
            send = (lambda dst, tag, mb, data, _r=rank:
                    capture.send(_r, dst, tag, mb, data, plane="dp"))
            programs[rank] = ColumnStep(grid, rank, params, opt, 1).run(send)
        return programs

    return CommModel(f"column-{precision}", grid.world_size, make,
                     config={"g_inter": grid.g_inter, "g_data": grid.g_data,
                             "g_intra": grid.g_intra, "slots": slots})


def axonn_model(g_inter: int, g_data: int, microbatches: int,
                pipeline_limit: Optional[int] = None,
                param_slots: Any = 1, g_intra: int = 1,
                precision: Optional[str] = None,
                concurrent_peers: bool = True) -> CommModel:
    """AxoNN's message-driven Algorithm 2 — the *real*
    :func:`~repro.runtime.rankprog.inter_layer_step` generator over
    symbolic stages.  ``microbatches`` is the per-rank (per data-parallel
    shard) count, matching ``AxoNNTrainer``; ``param_slots`` (int or
    per-stage sequence) sizes the recorded all-reduce plan for
    cross-validation against a real trace.

    With ``g_intra > 1`` the grid gains its tensor-parallel axis: group
    leads run Algorithm 2 with a :class:`~repro.runtime.tp.TPComm`
    (emitting the per-microbatch weight all-gather and gradient
    reduce-scatter) beside their followers, bound as both backends bind
    them (:func:`_training_model`).

    With ``precision`` (``"fp32"`` or ``"mixed"``) the model also holds
    what every lead runs after its walk, :func:`column_model`, as its
    :attr:`~CommModel.then` phase.

    ``concurrent_peers`` is the binding's keyword (True: the process
    workers'; False: the cooperative trainer's).  Only a
    tensor-parallel lead's skeleton differs between the two: its grouped
    warm-up emits both weight all-gathers before its forward sends."""
    grid = RankGrid(g_inter, g_data, g_intra)
    m = microbatches
    if m < 1:
        raise ValueError("microbatches must be >= 1")
    limit = g_inter if pipeline_limit is None else pipeline_limit
    model = _training_model(
        "axonn", grid, m,
        {"g_inter": g_inter, "g_data": g_data, "m": m, "limit": limit},
        param_slots, limit=limit, concurrent_peers=concurrent_peers)
    if not concurrent_peers:
        model.config["concurrent_peers"] = False
    if precision is not None:
        model.config["precision"] = precision
        model.then = column_model(grid, param_slots, precision)
    return model


def scheduled_model(schedule: Any, g_inter: int, g_data: int,
                    microbatches: int, param_slots: Any = 1,
                    g_intra: int = 1) -> CommModel:
    """Any IR schedule, lowered by the *real* compiler.

    ``schedule`` is a shipped builder name or a validated
    :class:`~repro.sched.ir.Schedule` instance (e.g. a search
    perturbation).  Drives :func:`repro.runtime.rankprog.lower_rank` — the
    rank program both backends of ``AxoNNTrainer(schedule=...)`` execute
    — with symbolic stages over the same ``p2p`` plane and ``yield RECV``
    waits as Algorithm 2, so every schedule, shipped or searched, gets
    the identical deadlock-freedom / complete-matching proof, of the walk
    that runs; ``g_intra > 1`` adds the tensor-parallel axis exactly as
    in :func:`axonn_model`.  Raises ``ValueError`` for grids the builder
    rejects (e.g. interleaved needs ``microbatches % g_inter == 0``).
    """
    grid = RankGrid(g_inter, g_data, g_intra)
    m = microbatches
    if isinstance(schedule, Schedule):
        if schedule.n_stages != g_inter or schedule.n_microbatches != m:
            raise ValueError(
                f"schedule {schedule.name} is for "
                f"{schedule.n_stages}x{schedule.n_microbatches}, not "
                f"{g_inter}x{m}")
        sched, schedule = schedule, schedule.name
    else:
        sched = build_schedule(schedule, g_inter, m)
    return _training_model(
        f"sched-{schedule}", grid, m,
        {"g_inter": g_inter, "g_data": g_data, "m": m}, param_slots, sched)


def serve_model(g_inter: int, n_requests: int, max_new_tokens: int = 2,
                max_batch: int = 2, pipeline_limit: Optional[int] = None,
                max_active: Optional[int] = None, g_prefill: int = 0,
                prefill_limit: Optional[int] = None) -> CommModel:
    """The serving engine's continuous-batching pipeline in either
    placement — the *real* scheduler / prefill / shard programs over a
    shell :class:`~repro.serve.engine.PipelineServer` with symbolic
    stages and greedy requests.

    With ``g_prefill >= 1`` this is the proof disaggregation leans on: KV
    pieces (``TAG_KV``) flowing home to the scheduler, merged ingests
    (``TAG_INGEST``) relayed through the decode pipe, and decode groups
    interleaving with them must be deadlock-free under *every* delivery
    order, for any request count the bounded window can produce.
    """
    if g_inter < 1 or g_prefill < 0:
        raise ValueError("need g_inter >= 1 and g_prefill >= 0")
    if g_prefill + g_inter < 2:
        raise ValueError("serve model needs two ranks (a one-rank world "
                         "never communicates)")
    if n_requests < 1 or max_new_tokens < 1:
        raise ValueError("need at least one request and one token")

    def make(capture: _Capture) -> Dict[int, Generator]:
        shell = object.__new__(PipelineServer)
        shell.cfg = None
        shell.g_inter = g_inter
        shell.g_prefill = g_prefill
        shell.max_batch = max_batch
        shell.pipeline_limit = max(
            1, pipeline_limit if pipeline_limit is not None else g_inter)
        shell.prefill_limit = max(
            1, prefill_limit if prefill_limit is not None else g_prefill)
        shell.max_active = (max_active if max_active is not None
                            else max_batch * shell.pipeline_limit)
        shell.tracer = None
        shell.recorder = None
        shell.stages = [_SymbolicServeStage() for _ in range(g_inter)]
        shell.prefill_stages = [_SymbolicServeStage()
                                for _ in range(g_prefill)]
        reqs = {
            rid: Request(rid, np.zeros(1, dtype=np.int64), max_new_tokens,
                         greedy=True, seed=rid)
            for rid in range(n_requests)
        }
        order = [reqs[rid] for rid in range(n_requests)]
        results: Dict[int, List[int]] = {rid: [] for rid in range(n_requests)}
        programs: Dict[int, Generator] = {
            0: PipelineServer._scheduler_program(shell, capture, reqs,
                                                 order, results)}
        for r in range(1, g_prefill):
            programs[r] = PipelineServer._prefill_program(shell, r, capture)
        for j in range(0 if g_prefill else 1, g_inter):
            programs[g_prefill + j] = PipelineServer._shard_program(
                shell, j, capture, reqs)
        return programs

    config = {"g_inter": g_inter, "requests": n_requests,
              "tokens": max_new_tokens, "max_batch": max_batch}
    if g_prefill:
        config["g_prefill"] = g_prefill
    return CommModel("serve", g_prefill + g_inter, make, config=config)


def _deferred_backward_tail(capture: _Capture, grid: RankGrid, rank: int,
                            m: int) -> Generator:
    """The seeded bug: the last stage holds each gradient until the *next*
    forward arrives — so the final microbatch's backward is never sent and
    the first stage starves (every interleaving deadlocks)."""
    prev_rank = grid.prev_in_pipeline(rank)
    pending = None
    for _ in range(m):
        pkt = yield RECV
        if pending is not None:
            capture.send(rank, prev_rank, TAG_BWD, pending, None)
        pending = pkt.microbatch
    # bug: the backward for `pending` is never sent.


def deadlock_mutant_model(g_inter: int = 2, microbatches: int = 2,
                          pipeline_limit: Optional[int] = None) -> CommModel:
    """AxoNN with the deferred-backward tail mutant spliced in — the
    checker must produce a wait-for-graph counterexample for this."""
    if g_inter < 2:
        raise ValueError("the mutant needs a real pipeline (g_inter >= 2)")
    grid = RankGrid(g_inter, 1)
    m = microbatches
    limit = g_inter if pipeline_limit is None else pipeline_limit
    last = grid.world_size - 1

    def make(capture: _Capture) -> Dict[int, Generator]:
        programs: Dict[int, Generator] = {}
        for rank in range(last):
            send = (lambda dst, tag, mb, data, _r=rank:
                    capture.send(_r, dst, tag, mb, data))
            programs[rank] = inter_layer_step(
                rank, grid, _SymbolicStage(), send, [(None, None)] * m,
                m, limit, concurrent_peers=True)
        programs[last] = _deferred_backward_tail(capture, grid, last, m)
        return programs

    return CommModel("axonn-deadlock-mutant", grid.world_size, make,
                     config={"g_inter": g_inter, "g_data": 1, "m": m})


def _full_group_head(send: Callable, grid: RankGrid, rank: int, m: int,
                     limit: int) -> Generator:
    """The seeded bug: a first stage that awaits a *full* group of
    ``limit`` gradients before it runs a backward — a width rule where
    Algorithm 2 takes whatever has arrived.  Whenever ``m % limit != 0``
    the last group never fills and the first stage starves."""
    next_rank = grid.next_in_pipeline(rank)
    injected = retired = 0
    while retired < m:
        for mb in range(injected, min(retired + limit, m)):
            send(next_rank, TAG_FWD, mb, None)
        injected = min(retired + limit, m)
        for _ in range(limit):  # bug: waits for the group to fill
            yield RECV
        retired += limit


def full_group_mutant_model(g_inter: int = 2, microbatches: int = 3,
                            pipeline_limit: int = 2) -> CommModel:
    """Algorithm 2 with the full-group head mutant spliced in as the first
    stage: deadlock-free exactly when ``microbatches % pipeline_limit ==
    0``, so the checker proving the real walk at every ``m`` is proof that
    its width is emergent, not awaited."""
    if g_inter < 2:
        raise ValueError("the mutant needs a real pipeline (g_inter >= 2)")
    grid = RankGrid(g_inter, 1)
    m = microbatches

    def make(capture: _Capture) -> Dict[int, Generator]:
        programs: Dict[int, Generator] = {}
        for rank in range(grid.world_size):
            send = (lambda dst, tag, mb, data, _r=rank:
                    capture.send(_r, dst, tag, mb, data))
            programs[rank] = (
                _full_group_head(send, grid, rank, m, pipeline_limit)
                if rank == 0 else inter_layer_step(
                    rank, grid, _SymbolicStage(), send, [(None, None)] * m,
                    m, pipeline_limit, concurrent_peers=True))
        return programs

    return CommModel("axonn-full-group-mutant", grid.world_size, make,
                     config={"g_inter": g_inter, "g_data": 1, "m": m,
                             "limit": pipeline_limit})


def builtin_models(max_world: int = 8, max_microbatches: int = 4,
                   include_serve: bool = True) -> List[CommModel]:
    """Every built-in variant at every small config: message-driven
    AxoNN and each shipped IR schedule over all
    ``g_inter x g_data <= max_world``, ``m <= max_microbatches``, plus
    small serving pipelines."""
    models: List[CommModel] = []

    def add_schedules(g_inter: int, g_data: int, m: int,
                      g_intra: int = 1) -> None:
        # Every shipped IR schedule through the real compiler; a grid a
        # schedule rejects (interleaved: m % g_inter != 0 or a depth-one
        # pipeline) is skipped, not special-cased.
        for sched_name in ("axonn", "1f1b", "gpipe", "interleaved", "zb-h1"):
            try:
                models.append(scheduled_model(sched_name, g_inter, g_data, m,
                                              g_intra=g_intra))
            except ValueError:
                continue

    for g_inter in range(1, max_world + 1):
        for g_data in range(1, max_world // g_inter + 1):
            for m in range(1, max_microbatches + 1):
                models.append(axonn_model(g_inter, g_data, m))
                add_schedules(g_inter, g_data, m)
            # Algorithm 1's end of the batch after the walk, in both
            # precisions: the column reduce, and under mixed precision the
            # overflow verdict along every pipeline and back.  The walk is
            # the m=1 one (its interleavings are covered above).  Two
            # parameter slots per stage give a column two owners up to
            # g_data=3; past that one owner (a star) keeps the product of
            # arrival orders small.
            for precision in ("fp32", "mixed"):
                models.append(axonn_model(
                    g_inter, g_data, 1, precision=precision,
                    param_slots=min(2, g_data) if g_data <= 3 else 1))
    # 4D variants: every decomposition with a real tensor-parallel axis.
    # TP traffic is per-microbatch homogeneous (one weight all-gather, one
    # gradient reduce-scatter), so m=2 already exercises every fwd/bwd
    # overlap the TP weave can produce; deeper m only multiplies pipeline
    # interleavings the 2D models above cover.
    for g_intra in (2, 4):
        for g_inter in range(1, max_world // g_intra + 1):
            for g_data in range(1, max_world // (g_intra * g_inter) + 1):
                for m in range(1, min(2, max_microbatches) + 1):
                    models.append(axonn_model(g_inter, g_data, m,
                                              g_intra=g_intra))
                    add_schedules(g_inter, g_data, m, g_intra)
                # The cooperative binding: a first stage that starts its
                # fresh microbatches as one pass emits the group's weight
                # all-gathers before its forward sends.  That differs from
                # the binding above only at a real pipeline with m >= 2;
                # deeper m adds the grouped re-injection.
                if g_inter > 1:
                    for m in range(2, max_microbatches + 1):
                        models.append(axonn_model(
                            g_inter, g_data, m, g_intra=g_intra,
                            concurrent_peers=False))
                # the leads' end of the batch; followers hold no state
                models.append(axonn_model(g_inter, g_data, 1,
                                          g_intra=g_intra,
                                          precision="mixed"))
    if include_serve:
        for g_inter in range(2, max_world + 1):
            models.append(serve_model(g_inter, n_requests=3,
                                      max_new_tokens=2, max_batch=2))
        # The disaggregated KV-handoff protocol at every single-prefill
        # split (the fleet smoke configs: KV merging is then local, the
        # scheduler has a single inbound source, and the model is
        # confluent).  Multi-rank prefill pools give the scheduler two
        # inbound sources (KV pieces and tokens) whose arrival order
        # steers its program — inherently non-confluent, so those splits
        # are covered by the runtime token-identity tests instead.
        for g_decode in range(1, max_world):
            models.append(serve_model(g_decode, n_requests=3,
                                      max_new_tokens=2, max_batch=2,
                                      g_prefill=1))
    return models


# ---------------------------------------------------------------------------
# Skeleton extraction
# ---------------------------------------------------------------------------

@dataclass
class Skeleton:
    """Per-rank typed channel-op sequences plus the channel graph."""

    model: str
    ops: Dict[int, List[SkeletonOp]]
    channels: List[Channel]

    def components(self) -> List[List[int]]:
        """Connected components of the channel graph (isolated ranks are
        singletons) — columns of the grid never interact, so the checker
        explores each component separately instead of their product."""
        parent = {r: r for r in self.ops}

        def find(r: int) -> int:
            while parent[r] != r:
                parent[r] = parent[parent[r]]
                r = parent[r]
            return r

        for src, dst, _plane in self.channels:
            parent[find(src)] = find(dst)
        groups: Dict[int, List[int]] = {}
        for r in self.ops:
            groups.setdefault(find(r), []).append(r)
        return sorted(sorted(g) for g in groups.values())


def _wait_kind(request: Any, rank: int) -> str:
    if request == RECV:
        return "any"
    if request == POLL:
        return "poll"
    raise ModelError(f"rank {rank} yielded {request!r}; rank programs may "
                     f"only yield RECV / POLL")


def extract_skeleton(model: CommModel) -> Skeleton:
    """Run the ensemble once on the cooperative transport itself — a
    :class:`~repro.runtime.transport.RankTransport` with a
    :class:`~repro.obs.protocol.TraceRecorder` — and read every channel op
    off the recorder, so per-rank op order is what a real run records.
    Leftover messages are left to the explorer's "never received" verdict
    (``strict=False``); a deadlock or a bad yield raises
    :class:`ModelError`."""
    recorder = TraceRecorder()
    capture = _Capture(model.n_ranks, RankTransport(
        model.n_ranks, recorder=recorder, strict=False))
    programs = model.make_programs(capture)
    try:
        capture.transport.run(programs)
    except (DeadlockError, ProtocolError) as exc:
        raise ModelError(f"skeleton extraction failed:\n{exc}") from exc
    ops: Dict[int, List[SkeletonOp]] = {r: [] for r in programs}
    channels: Dict[Channel, None] = {}
    for e in recorder.events:
        if e.kind == "collective":
            ops[e.rank].append(SkeletonOp("collective", e.rank, tag=e.tag,
                                          key=e.key))
            continue
        ch = (e.rank, e.peer) if e.kind == "send" else (e.peer, e.rank)
        plane = capture.planes[ch + (e.tag,)]
        if e.kind == "send":
            channels.setdefault(ch + (plane,))
        ops[e.rank].append(SkeletonOp(e.kind, e.rank, e.peer, e.tag,
                                      e.microbatch, plane=plane))
    for rank, plan in model.collectives.items():
        for op, key in plan:
            ops[rank].append(SkeletonOp("collective", rank, tag=op, key=key))
    return Skeleton(model.describe(), ops, sorted(channels))


def compare_with_trace(skeleton: Skeleton,
                       trace: TraceRecorder) -> List[str]:
    """Op-for-op cross-validation of a skeleton against a recorded trace
    of an actual run; returns human-readable mismatches (empty == the
    static model matches the runtime)."""
    def from_skeleton(rank: int) -> List[Tuple]:
        return [(o.kind, o.peer, o.tag, o.microbatch, o.key)
                for o in skeleton.ops.get(rank, [])]

    def from_trace(rank: int) -> List[Tuple]:
        return [(e.kind, e.peer, e.tag, e.microbatch, e.key)
                for e in trace.events_of(rank)]

    ranks = sorted(set(skeleton.ops) | {e.rank for e in trace.events})
    problems: List[str] = []
    for rank in ranks:
        want, got = from_skeleton(rank), from_trace(rank)
        if want == got:
            continue
        n = min(len(want), len(got))
        idx = next((i for i in range(n) if want[i] != got[i]), n)
        a = want[idx] if idx < len(want) else "<nothing>"
        b = got[idx] if idx < len(got) else "<nothing>"
        problems.append(
            f"rank {rank} diverges at op #{idx}: model {a!r} vs trace "
            f"{b!r} (model has {len(want)} ops, trace {len(got)})")
    return problems


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

@dataclass
class DeadlockWitness:
    """A concrete deadlocking interleaving: the wait-for graph plus the
    full op trace that reaches it."""

    message: str
    stuck: List[int]
    wait_for: Dict[int, List[int]]
    trace: List[SkeletonOp]


@dataclass
class CheckResult:
    """Verdict of :func:`check_model` for one model/config."""

    model: str
    config: Dict[str, Any]
    deadlock_free: bool
    matching_complete: bool
    collectives_consistent: bool
    states: int
    terminals: int
    violations: List[str]
    counterexample: Optional[DeadlockWitness] = None

    @property
    def ok(self) -> bool:
        return (self.deadlock_free and self.matching_complete
                and self.collectives_consistent)

    def __str__(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (f"{verdict} {self.model}: states={self.states} "
                f"terminals={self.terminals} "
                f"deadlock_free={self.deadlock_free} "
                f"matching_complete={self.matching_complete} "
                f"collectives_consistent={self.collectives_consistent}")


@dataclass
class _Behavior:
    """What a rank does after consuming a given multiset of channel
    prefixes: its next wait (or finished), its cumulative per-channel send
    counts, and the witness (delivery / None-poll sequence) that
    reproduces this state on a fresh generator."""

    wait: str
    finished: bool
    out_counts: Dict[Channel, int]
    witness: Tuple[Tuple, ...]
    #: the local key this behaviour is cached under
    key: Tuple = ()


class _Explorer:
    """DFS over the counts-quotient state graph of one component."""

    def __init__(self, model: CommModel, ranks: Sequence[int],
                 max_states: int):
        self.model = model
        self.ranks = sorted(ranks)
        self.max_states = max_states
        self.log: Dict[Channel, List[Tuple[str, Any, Any]]] = {}
        self.in_channels: Dict[int, List[Channel]] = {r: [] for r in self.ranks}
        # (rank, local key) -> _Behavior; the local key is the rank's own
        # consumed counts (+ where its drain began, while it drains),
        # which fully determines its generator state
        # because behaviour is confluent (guarded in _log_sends / _step).
        self.cache: Dict[Tuple[int, Tuple], _Behavior] = {}
        # (id of a cached _Behavior, event) -> the _Behavior it leads to
        self.steps: Dict[Tuple[int, Tuple], _Behavior] = {}
        self.states = 0
        self.terminals = 0
        self.leftover_violations: Dict[str, None] = {}
        self.counterexample: Optional[DeadlockWitness] = None

    # -- witness replay ----------------------------------------------------
    def _log_sends(self, capture: _Capture,
                   out_counts: Dict[Channel, int]) -> None:
        for msg in capture.drain():
            if msg.plane == COLLECTIVE_PLANE:
                continue  # ordering mark, not a deliverable message
            ch = (msg.src, msg.dst, msg.plane)
            k = out_counts.get(ch, 0)
            seq = self.log.setdefault(ch, [])
            if k < len(seq):
                if (seq[k][0], seq[k][1]) != (msg.tag, msg.microbatch):
                    raise ModelError(
                        f"{self.model.describe()}: non-confluent send on "
                        f"channel {ch} at position {k}: one interleaving "
                        f"sent (tag={seq[k][0]!r}, microbatch={seq[k][1]}),"
                        f" another (tag={msg.tag!r}, "
                        f"microbatch={msg.microbatch}); the counts-quotient"
                        f" is unsound for this model")
            else:
                seq.append((msg.tag, msg.microbatch, msg.data))
                if ch[1] in self.in_channels and \
                        ch not in self.in_channels[ch[1]]:
                    self.in_channels[ch[1]].append(ch)
            out_counts[ch] = k + 1

    def _replay(self, rank: int, witness: Tuple[Tuple, ...]) -> _Behavior:
        capture = _Capture(self.model.n_ranks)
        programs = self.model.make_programs(capture)
        gen = programs[rank]
        out_counts: Dict[Channel, int] = {}
        wait = ""
        finished = False
        try:
            try:
                request = next(gen)
            except StopIteration:
                finished = True
            self._log_sends(capture, out_counts)
            if not finished:
                wait = _wait_kind(request, rank)
            for event in witness:
                try:
                    if event[0] == "deliver":
                        ch, idx = event[1], event[2]
                        tag, mb, data = self.log[ch][idx]
                        request = gen.send(Packet(
                            src=ch[0], dst=ch[1], tag=tag, microbatch=mb,
                            data=data))
                    else:
                        request = gen.send(None)
                except StopIteration:
                    finished = True
                self._log_sends(capture, out_counts)
                if finished:
                    break
                wait = _wait_kind(request, rank)
        finally:
            _close_all(programs)
        return _Behavior(wait, finished, out_counts, witness)

    def _behavior(self, rank: int, key: Tuple,
                  witness: Tuple[Tuple, ...]) -> _Behavior:
        beh = self.cache.get((rank, key))
        if beh is None:
            beh = self._replay(rank, witness)
            beh.key = key
            self.cache[(rank, key)] = beh
        return beh

    # -- state plumbing ----------------------------------------------------
    @staticmethod
    def _local_key(rank: int, consumed: Dict[Channel, int]) -> Tuple:
        return tuple(sorted((c, n) for c, n in consumed.items()
                            if c[1] == rank and n))

    @staticmethod
    def _state_key(consumed: Dict[Channel, int]) -> FrozenSet:
        # counts only ever grow from 1, so no zero entries to drop
        return frozenset(consumed.items())

    @staticmethod
    def _draining(beh: _Behavior) -> bool:
        return beh.wait == "poll" and not beh.finished

    def _produced(self, ch: Channel, behaviors: Dict[int, _Behavior]) -> int:
        return behaviors[ch[0]].out_counts.get(ch, 0) \
            if ch[0] in behaviors else 0

    def _enabled(self, consumed: Dict[Channel, int],
                 behaviors: Dict[int, _Behavior]) -> List[Tuple]:
        actions: List[Tuple] = []
        for rank in self.ranks:
            beh = behaviors[rank]
            if beh.finished:
                continue
            for ch in self.in_channels[rank]:
                # Every wait accepts every plane: the runtime's single
                # FIFO per rank pair delivers whatever arrives next.
                if consumed.get(ch, 0) < self._produced(ch, behaviors):
                    actions.append(("deliver", ch, rank))
        return actions

    # -- the search --------------------------------------------------------
    def run(self) -> None:
        consumed0: Dict[Channel, int] = {}
        behaviors0 = {
            r: self._behavior(r, self._local_key(r, consumed0), ())
            for r in self.ranks}
        for r, beh in behaviors0.items():
            if self._draining(beh):
                raise ModelError(f"{self.model.describe()}: rank {r} polls "
                                 f"before its first blocking receive")
        root = self._state_key(consumed0)
        seen = {root}
        # Each frame carries its own dicts; parents reconstruct the
        # counterexample path.
        stack = [(consumed0, behaviors0)]
        parents: Dict[FrozenSet, Tuple[Optional[FrozenSet], List[Tuple]]] = {
            root: (None, [])}
        while stack:
            consumed, behaviors = stack.pop()
            skey = self._state_key(consumed)
            self.states += 1
            if self.states > self.max_states:
                raise ModelError(
                    f"{self.model.describe()}: state space exceeded "
                    f"{self.max_states} states")
            actions = self._enabled(consumed, behaviors)
            # Partial-order reduction: deliveries to sink ranks are fired
            # eagerly, one at a time, instead of branching against
            # everything else.  Sound because a sink (a) always waits on
            # "any", so a pending delivery to it can never be disabled by
            # other actions — any "deadlock" with one pending is no
            # deadlock at all; (b) sends nothing, so firing a delivery to
            # it early or late leaves every other rank's enabled actions
            # and every channel's contents the same; and (c) finishes
            # after a fixed count in any arrival order, so the one order
            # it is fed stands for all.  Hence every deadlock /
            # leftover-terminal reachable in the full graph is reachable
            # with sink deliveries front-run.
            eager = [a for a in actions if a[2] in self.model.sink_ranks]
            if eager:
                actions = [min(eager)]
            if not actions:
                if all(b.finished for b in behaviors.values()):
                    self.terminals += 1
                    self._check_terminal(consumed, behaviors)
                else:
                    self._build_counterexample(skey, parents, behaviors)
                    return
                continue
            for action in actions:
                rank = action[2]
                for nc, beh, steps in self._successors(
                        rank, action, consumed, behaviors):
                    nkey = self._state_key(nc)
                    if nkey in seen:
                        continue
                    seen.add(nkey)
                    nb = dict(behaviors)
                    nb[rank] = beh
                    parents[nkey] = (skey, steps)
                    stack.append((nc, nb))

    def _successors(self, rank: int, action: Tuple,
                    consumed: Dict[Channel, int],
                    behaviors: Dict[int, _Behavior]):
        """The states ``rank``'s delivery ``action`` leads to, as
        ``(consumed, behaviour, steps)``.

        An action that leaves the rank waiting on ``POLL`` opens a
        *drain*, explored as one macro step that ends at the drain's None:
        every multiset of the messages pending for the rank may be taken
        before it, the empty one included.  Running the drain alone is a
        partial-order reduction, sound because a draining rank sends
        nothing until its None (checked in :meth:`_step`): another rank's
        action taken mid-drain was enabled before the drain began and
        commutes with it, and a message that only becomes pending
        mid-drain is that action taken first."""
        nc = dict(consumed)
        ch = action[1]
        idx = nc.get(ch, 0)
        nc[ch] = idx + 1
        event: Tuple = ("deliver", ch, idx)
        start = self._local_key(rank, consumed)
        beh = self._step(rank, behaviors[rank], event, nc, start)
        steps = [action + (event,)]
        if not self._draining(beh):
            yield nc, beh, steps
            return
        # Every way the drain goes on: None now, or one more pending
        # message from the first-th in-channel on (order within a drain
        # is immaterial, so each multiset is taken once, in channel order).
        channels = self.in_channels[rank]
        todo = [(beh, nc, steps, 0)]
        while todo:
            beh, nc, steps, first = todo.pop()
            done = self._step(rank, beh, ("none",), nc, start)
            if self._draining(done):
                raise ModelError(f"{self.model.describe()}: rank {rank} "
                                 f"polls again after a None without "
                                 f"blocking")
            yield nc, done, steps + [("none", None, rank, ("none",))]
            for i in range(first, len(channels)):
                ch = channels[i]
                idx = nc.get(ch, 0)
                if idx >= self._produced(ch, behaviors):
                    continue
                more = dict(nc)
                more[ch] = idx + 1
                event = ("deliver", ch, idx)
                nxt = self._step(rank, beh, event, more, start)
                taken = steps + [("deliver", ch, rank, event)]
                if self._draining(nxt):
                    todo.append((nxt, more, taken, i))
                else:
                    yield more, nxt, taken

    def _step(self, rank: int, old_beh: _Behavior, event: Tuple,
              consumed: Dict[Channel, int], start: Tuple) -> _Behavior:
        """``rank``'s behaviour after ``event`` (``consumed`` already
        includes it).  A draining rank is keyed by its counts and
        ``start``, its local key when the drain began; any other rank by
        its counts alone, as without POLL: what it has sent is what it has
        consumed, however its drains grouped it (guarded: two groupings
        that reach the same counts must agree)."""
        step = (id(old_beh), event)  # cached behaviours live as long
        beh = self.steps.get(step)
        if beh is None:
            fresh = self._replay(rank, old_beh.witness + (event,))
            fresh.key = self._local_key(rank, consumed)
            if self._draining(fresh):
                if fresh.out_counts != old_beh.out_counts:
                    raise ModelError(
                        f"{self.model.describe()}: rank {rank} sent while "
                        f"draining its inbox with POLL; the checker needs "
                        f"a drain to send nothing until its None")
                fresh.key += (start,)
            beh = self.cache.setdefault((rank, fresh.key), fresh)
            if (beh.wait, beh.finished, beh.out_counts) != \
                    (fresh.wait, fresh.finished, fresh.out_counts):
                raise ModelError(
                    f"{self.model.describe()}: non-confluent drains at "
                    f"rank {rank}: two groupings of the same arrivals "
                    f"left it in different states; the counts-quotient "
                    f"is unsound for this model")
            self.steps[step] = beh
        return beh

    def _check_terminal(self, consumed: Dict[Channel, int],
                        behaviors: Dict[int, _Behavior]) -> None:
        for rank in self.ranks:
            for ch, produced in behaviors[rank].out_counts.items():
                left = produced - consumed.get(ch, 0)
                if left > 0:
                    self.leftover_violations.setdefault(
                        f"channel {ch[0]} -> {ch[1]} (plane {ch[2]!r}): "
                        f"{left} sent message(s) never received in a "
                        f"terminal interleaving")

    def _build_counterexample(
            self, skey: FrozenSet,
            parents: Dict[FrozenSet, Tuple[Optional[FrozenSet], List[Tuple]]],
            behaviors: Dict[int, _Behavior]) -> None:
        path: List[Tuple] = []
        key: Optional[FrozenSet] = skey
        while key is not None:
            prev, steps = parents[key]
            path[:0] = steps
            key = prev
        trace, orphans, sent = self._replay_path(path)
        stuck = sorted(r for r in self.ranks if not behaviors[r].finished)
        wait_for = {
            r: sorted({ch[0] for ch in self.in_channels[r]})
            for r in stuck}
        message = describe_deadlock(stuck, wait_for, orphans, sent)
        self.counterexample = DeadlockWitness(message, stuck, wait_for,
                                              trace)

    def _replay_path(self, path: Sequence[Tuple]
                     ) -> Tuple[List[SkeletonOp], List[_Msg], int]:
        """Re-run the deadlocking interleaving on one full fresh ensemble
        to produce an honest op trace and the undelivered packets."""
        capture = _Capture(self.model.n_ranks)
        programs = self.model.make_programs(capture)
        trace: List[SkeletonOp] = []
        consumed: Dict[Channel, int] = {}
        sent = 0

        def drain() -> None:
            nonlocal sent
            for msg in capture.drain():
                if msg.plane == COLLECTIVE_PLANE:
                    trace.append(SkeletonOp("collective", msg.src,
                                            tag=msg.tag, key=msg.data))
                    continue
                trace.append(SkeletonOp("send", msg.src, msg.dst, msg.tag,
                                        msg.microbatch, plane=msg.plane))
                sent += 1

        try:
            for rank in self.ranks:
                try:
                    next(programs[rank])
                except StopIteration:
                    pass
                drain()
            for action in path:
                rank = action[2]
                gen = programs[rank]
                try:
                    if action[0] == "deliver":
                        ch = action[1]
                        idx = consumed.get(ch, 0)
                        consumed[ch] = idx + 1
                        tag, mb, data = self.log[ch][idx]
                        trace.append(SkeletonOp("recv", rank, ch[0], tag,
                                                mb, plane=ch[2]))
                        gen.send(Packet(src=ch[0], dst=ch[1], tag=tag,
                                        microbatch=mb, data=data))
                    else:
                        gen.send(None)  # an empty POLL: no channel op
                except StopIteration:
                    pass
                drain()
        finally:
            _close_all(programs)
        orphans = [
            _Msg(ch[0], ch[1], tag, mb, ch[2])
            for ch, seq in sorted(self.log.items())
            for (tag, mb, _data) in seq[consumed.get(ch, 0):]
        ]
        return trace, orphans, sent


def check_model(model: CommModel, max_states: int = 200_000) -> CheckResult:
    """Exhaustively explore the interleavings of ``model`` and prove (or
    refute, with a counterexample) deadlock-freedom, complete matching,
    and per-group tensor-parallel collective-order consistency.

    A model's :attr:`~CommModel.then` phase is checked after it, on its
    own, and the verdicts are joined.  That is sound for the
    composition: a rank enters the phase only once its program here has
    returned, the two phases share no channel, and a program here never
    receives what the next one sends — so every interleaving of the
    composition commutes to one that finishes this phase first, and a
    deadlock of the composition is a deadlock of one phase.  Exploring
    them apart keeps each phase's own component decomposition: the walk
    splits by pipeline, the column reduce by column, and neither pays
    for the product of the other's interleavings."""
    # Skeleton extraction gives the channel graph; the checker then
    # explores each connected component separately (disjoint components
    # share no channel, so deadlocks and matching compose).  When the
    # deterministic extraction itself deadlocks, fall back to exploring
    # the whole system — the DFS will surface the counterexample.
    components: List[List[int]]
    skeleton: Optional[Skeleton] = None
    try:
        skeleton = extract_skeleton(model)
        components = skeleton.components()
    except ModelError:
        components = [list(range(model.n_ranks))]

    states = terminals = 0
    violations: List[str] = []
    counterexample: Optional[DeadlockWitness] = None
    deadlock_free = True
    for component in components:
        explorer = _Explorer(model, component, max_states - states)
        explorer.run()
        states += explorer.states
        terminals += explorer.terminals
        violations.extend(explorer.leftover_violations)
        if explorer.counterexample is not None:
            deadlock_free = False
            if counterexample is None:
                counterexample = explorer.counterexample
            violations.append(
                f"deadlock: ranks {explorer.counterexample.stuck} blocked")
            break
    matching_complete = deadlock_free and not any(
        "never received" in v for v in violations)

    collective_violations: List[str] = []
    if model.tp_groups and skeleton is not None:
        # The in-stream tp_* collectives captured during extraction: every
        # member of a tensor-parallel group must have recorded the same
        # (op, key) sequence.  Per-channel FIFO makes the follower's record
        # order the lead's emission order in *every* interleaving, so the
        # deterministic extraction is a sound witness.
        trace = TraceRecorder()
        for rank in sorted(skeleton.ops):
            for o in skeleton.ops[rank]:
                if o.kind == "collective" and o.tag.startswith("tp_"):
                    trace.record_collective(rank, o.tag, key=o.key)
        collective_violations = [
            str(v) for v in check_collective_order(trace, model.tp_groups,
                                                   tags=("tp_",))]
        violations.extend(collective_violations)

    result = CheckResult(
        model=model.describe(), config=dict(model.config),
        deadlock_free=deadlock_free, matching_complete=matching_complete,
        collectives_consistent=not collective_violations,
        states=states, terminals=terminals, violations=violations,
        counterexample=counterexample)
    if model.then is None or not deadlock_free:
        return result
    after = check_model(model.then, max_states - states)
    result.deadlock_free = after.deadlock_free
    result.matching_complete = matching_complete and after.matching_complete
    result.collectives_consistent = (result.collectives_consistent
                                     and after.collectives_consistent)
    result.states += after.states
    result.terminals += after.terminals
    result.violations += after.violations
    result.counterexample = after.counterexample
    return result
