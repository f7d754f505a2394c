"""The schedule IR: pipeline schedules as data.

A :class:`Schedule` describes one inter-layer execution plan as plain
data — per-(virtual stage, microbatch) typed tasks with explicit
dependency edges plus a per-physical-rank execution order — instead of
control flow baked into a trainer.  The same instance lowers to rank
programs on both substrates (:mod:`repro.sched.compile`,
:mod:`repro.sched.des`), can be perturbed and searched
(:mod:`repro.sched.search`), and extracts a communication skeleton for
the model checker (:func:`repro.analysis.model.scheduled_model`).

Task kinds (JaxPP-style, arXiv 2412.14374):

``FWD``/``BWD``
    the forward / backward pass of one microbatch through one *virtual*
    stage (``n_virtual = n_chunks * n_stages``; chunk placement is
    ``rank = stage % n_stages``, so ``n_chunks == 1`` reduces to the
    classic one-stage-per-rank pipeline);
``W``
    the optional zero-bubble split: when present, ``BWD`` computes only
    the input gradient and ``W`` the deferred weight gradient
    (ZB-H1-style);
``SEND_ACT``/``RECV_ACT`` and ``SEND_GRAD``/``RECV_GRAD``
    the boundary activation / gradient messages.  They exist exactly
    where a stage boundary crosses ranks; a same-rank boundary
    (``n_stages == 1``) is a local handoff with a direct compute edge.

The :func:`validate` pass rejects malformed DAGs **before anything
runs**: unknown/misplaced/duplicated tasks, missing dataflow
dependencies, dependency-or-program-order cycles, per-rank in-flight
activation overflow against a declared ``activation_limit``, and
per-channel FIFO inconsistencies (each directed (src, dst, plane)
channel must be consumed in exactly the order it is produced — the
property that makes blocking FIFO receives deadlock-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
                    Optional, Tuple)

__all__ = ["FWD", "BWD", "W", "SEND_ACT", "RECV_ACT", "SEND_GRAD",
           "RECV_GRAD", "COMPUTE_KINDS", "COMM_KINDS", "KINDS",
           "Task", "Schedule", "ScheduleError", "validate",
           "required_deps"]

FWD = "FWD"
BWD = "BWD"
W = "W"
SEND_ACT = "SEND_ACT"
RECV_ACT = "RECV_ACT"
SEND_GRAD = "SEND_GRAD"
RECV_GRAD = "RECV_GRAD"

COMPUTE_KINDS = (FWD, BWD, W)
COMM_KINDS = (SEND_ACT, RECV_ACT, SEND_GRAD, RECV_GRAD)
KINDS = COMPUTE_KINDS + COMM_KINDS


class ScheduleError(ValueError):
    """A malformed schedule: raised by :func:`validate` before any run."""


class Task(NamedTuple):
    """One typed unit of work: ``kind`` on virtual ``stage`` for ``mb``.

    A tuple rather than a frozen dataclass because tasks are dictionary
    keys throughout: building and validating a 2048-microbatch program
    (what the DES baselines walk at the paper's batch size) hashes each
    task some thirty times, and a Python-level ``__hash__`` doubled that
    cost.
    """

    kind: str
    stage: int   #: virtual stage index, 0 .. n_virtual - 1
    mb: int      #: microbatch index, 0 .. n_microbatches - 1

    def __repr__(self) -> str:  # compact: FWD(v=2, mb=0) -> FWD[2,0]
        return f"{self.kind}[{self.stage},{self.mb}]"


@dataclass
class Schedule:
    """One pipeline schedule as data.

    ``rank_order[r]`` is physical rank ``r``'s program: the exact task
    sequence its rank program executes.  ``deps`` holds the explicit
    dependency edges (``task -> set of prerequisite tasks``); builders
    materialize at least the dataflow-required edges
    (:func:`required_deps`), and may add more to constrain the search.
    ``activation_limit``, when set, bounds the per-rank number of
    resident forward activations (a FWD holds its activation until the
    matching BWD — or W, when the backward is split).
    """

    name: str
    n_stages: int           #: physical pipeline ranks
    n_virtual: int          #: virtual stages (n_chunks * n_stages)
    n_microbatches: int
    rank_order: Tuple[Tuple[Task, ...], ...]
    deps: Mapping[Task, FrozenSet[Task]]
    activation_limit: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    # -- structure helpers ---------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return self.n_virtual // self.n_stages

    def placement(self, stage: int) -> int:
        """Physical rank owning virtual ``stage``."""
        return stage % self.n_stages

    def virtual_stages_of(self, rank: int) -> List[int]:
        return [v for v in range(self.n_virtual)
                if self.placement(v) == rank]

    def crosses(self, stage: int) -> bool:
        """Does the boundary between ``stage`` and ``stage + 1`` cross
        ranks (i.e. needs a message rather than a local handoff)?"""
        return self.placement(stage) != self.placement(stage + 1)

    def tasks(self) -> Iterable[Task]:
        for order in self.rank_order:
            yield from order

    def task_set(self) -> FrozenSet[Task]:
        return frozenset(self.tasks())

    def has_w(self, stage: int, mb: int) -> bool:
        return Task(W, stage, mb) in self.deps

    def describe(self) -> str:
        return (f"{self.name}[S={self.n_stages} V={self.n_chunks} "
                f"m={self.n_microbatches} tasks={sum(map(len, self.rank_order))}]")


def required_deps(schedule: Schedule, task: Task) -> FrozenSet[Task]:
    """The dataflow-mandated prerequisites of ``task``.

    These edges are forced by what the task *means*; a schedule missing
    any of them would read data that does not exist yet.  Builders may
    add further (ordering-only) edges on top.
    """
    v, mb, last = task.stage, task.mb, schedule.n_virtual - 1
    need: List[Task] = []
    if task.kind == FWD:
        if v > 0:
            need.append(Task(RECV_ACT, v, mb) if schedule.crosses(v - 1)
                        else Task(FWD, v - 1, mb))
    elif task.kind == RECV_ACT:
        need.append(Task(SEND_ACT, v - 1, mb))
    elif task.kind == SEND_ACT:
        need.append(Task(FWD, v, mb))
    elif task.kind == BWD:
        need.append(Task(FWD, v, mb))
        if v < last:
            need.append(Task(RECV_GRAD, v, mb) if schedule.crosses(v)
                        else Task(BWD, v + 1, mb))
    elif task.kind == RECV_GRAD:
        need.append(Task(SEND_GRAD, v + 1, mb))
    elif task.kind == SEND_GRAD:
        need.append(Task(BWD, v, mb))
    elif task.kind == W:
        need.append(Task(BWD, v, mb))
    return frozenset(need)


def _required_tasks(schedule: Schedule) -> FrozenSet[Task]:
    """Every task the dataflow *demands* exist (W stays optional)."""
    req: List[Task] = []
    last = schedule.n_virtual - 1
    for v in range(schedule.n_virtual):
        for mb in range(schedule.n_microbatches):
            req.append(Task(FWD, v, mb))
            req.append(Task(BWD, v, mb))
            if v < last and schedule.crosses(v):
                req.append(Task(SEND_ACT, v, mb))
                req.append(Task(RECV_GRAD, v, mb))
            if v > 0 and schedule.crosses(v - 1):
                req.append(Task(RECV_ACT, v, mb))
                req.append(Task(SEND_GRAD, v, mb))
    return frozenset(req)


def channel_of(schedule: Schedule, task: Task) -> Tuple[int, int, str]:
    """The directed (src_rank, dst_rank, plane) channel of a comm task."""
    v = task.stage
    if task.kind == SEND_ACT:
        return (schedule.placement(v), schedule.placement(v + 1), "F")
    if task.kind == RECV_ACT:
        return (schedule.placement(v - 1), schedule.placement(v), "F")
    if task.kind == SEND_GRAD:
        return (schedule.placement(v), schedule.placement(v - 1), "B")
    if task.kind == RECV_GRAD:
        return (schedule.placement(v + 1), schedule.placement(v), "B")
    raise ValueError(f"{task} is not a communication task")


def validate(schedule: Schedule) -> None:
    """Reject a malformed schedule; raises :class:`ScheduleError`.

    Checks, in order: shape sanity, task well-formedness and placement,
    required-task coverage, missing dataflow dependencies, cycles over
    (deps union per-rank program order), per-channel FIFO consistency,
    and per-rank in-flight activation overflow.
    """
    S, VS, m = schedule.n_stages, schedule.n_virtual, schedule.n_microbatches
    if S < 1 or m < 1:
        raise ScheduleError(
            f"{schedule.name}: need n_stages >= 1 and n_microbatches >= 1 "
            f"(got {S}, {m})")
    if VS < S or VS % S != 0:
        raise ScheduleError(
            f"{schedule.name}: n_virtual ({VS}) must be a positive "
            f"multiple of n_stages ({S})")
    if len(schedule.rank_order) != S:
        raise ScheduleError(
            f"{schedule.name}: rank_order has {len(schedule.rank_order)} "
            f"entries for {S} ranks")

    # -- task well-formedness & placement -----------------------------------
    seen: Dict[Task, int] = {}
    for rank, order in enumerate(schedule.rank_order):
        for task in order:
            if task.kind not in KINDS:
                raise ScheduleError(
                    f"{schedule.name}: unknown task kind {task.kind!r}")
            if not (0 <= task.stage < VS):
                raise ScheduleError(
                    f"{schedule.name}: {task} names virtual stage outside "
                    f"[0, {VS})")
            if not (0 <= task.mb < m):
                raise ScheduleError(
                    f"{schedule.name}: {task} names microbatch outside "
                    f"[0, {m})")
            if schedule.placement(task.stage) != rank:
                raise ScheduleError(
                    f"{schedule.name}: {task} scheduled on rank {rank} but "
                    f"stage {task.stage} lives on rank "
                    f"{schedule.placement(task.stage)}")
            if task in seen:
                raise ScheduleError(
                    f"{schedule.name}: duplicate task {task}")
            seen[task] = rank

    present = frozenset(seen)
    missing = _required_tasks(schedule) - present
    if missing:
        example = sorted(missing, key=lambda t: (t.stage, t.mb, t.kind))[0]
        raise ScheduleError(
            f"{schedule.name}: {len(missing)} required task(s) absent, "
            f"e.g. {example}")

    # -- dependency coverage -------------------------------------------------
    for task in present:
        declared = schedule.deps.get(task, frozenset())
        for dep in declared:
            if dep not in present:
                raise ScheduleError(
                    f"{schedule.name}: {task} depends on absent task {dep}")
        lacking = required_deps(schedule, task) - declared
        if lacking:
            raise ScheduleError(
                f"{schedule.name}: {task} is missing required "
                f"dependency {sorted(lacking, key=repr)[0]}")

    # -- cycle check over deps + program order ------------------------------
    succ: Dict[Task, List[Task]] = {t: [] for t in present}
    indeg: Dict[Task, int] = {t: 0 for t in present}

    def edge(a: Task, b: Task) -> None:
        succ[a].append(b)
        indeg[b] += 1

    for task in present:
        for dep in schedule.deps.get(task, frozenset()):
            edge(dep, task)
    for order in schedule.rank_order:
        for a, b in zip(order, order[1:]):
            edge(a, b)
    frontier = [t for t in present if indeg[t] == 0]
    done = 0
    while frontier:
        t = frontier.pop()
        done += 1
        for s in succ[t]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if done != len(present):
        stuck = sorted((t for t in present if indeg[t] > 0),
                       key=lambda t: (t.stage, t.mb, t.kind))
        raise ScheduleError(
            f"{schedule.name}: dependency/program-order cycle through "
            f"{stuck[0]} ({len(stuck)} tasks involved)")

    # -- per-channel FIFO consistency ---------------------------------------
    # A blocking plane-FIFO receive is only sound when every channel is
    # consumed in production order; a swap here is a latent deadlock (or a
    # mis-delivery) that must be rejected statically.
    sends: Dict[Tuple[int, int, str], List[Tuple[int, int]]] = {}
    recvs: Dict[Tuple[int, int, str], List[Tuple[int, int]]] = {}
    for order in schedule.rank_order:
        for task in order:
            if task.kind in (SEND_ACT, SEND_GRAD):
                key = (task.stage, task.mb)
                sends.setdefault(channel_of(schedule, task), []).append(key)
            elif task.kind == RECV_ACT:
                recvs.setdefault(channel_of(schedule, task), []).append(
                    (task.stage - 1, task.mb))
            elif task.kind == RECV_GRAD:
                recvs.setdefault(channel_of(schedule, task), []).append(
                    (task.stage + 1, task.mb))
    for chan in set(sends) | set(recvs):
        if sends.get(chan, []) != recvs.get(chan, []):
            src, dst, plane = chan
            raise ScheduleError(
                f"{schedule.name}: FIFO mismatch on channel "
                f"{src}->{dst} plane {plane}: sent "
                f"{sends.get(chan, [])[:4]}... but consumed "
                f"{recvs.get(chan, [])[:4]}...")

    # -- in-flight activation overflow --------------------------------------
    if schedule.activation_limit is not None:
        limit = schedule.activation_limit
        for rank, order in enumerate(schedule.rank_order):
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
            if peak > limit:
                raise ScheduleError(
                    f"{schedule.name}: rank {rank} holds {peak} in-flight "
                    f"activations, over the declared limit {limit}")
