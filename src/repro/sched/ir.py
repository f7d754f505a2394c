"""The schedule IR: pipeline schedules as data.

A :class:`Schedule` describes one inter-layer execution plan as plain
data — per-(virtual stage, microbatch) typed tasks placed in a
per-physical-rank execution order — instead of control flow baked into
a trainer.  It stores no dependency edges: what a task needs follows
from what it *means*, and :func:`required_deps` is that rule, written
once.  The same instance lowers to rank programs on both substrates
(:func:`repro.runtime.rankprog.lower_rank`, :mod:`repro.sched.des`),
can be perturbed and searched (:mod:`repro.sched.search`), and extracts
a communication skeleton for the model checker
(:func:`repro.analysis.model.scheduled_model`).

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

The :func:`validate` pass rejects malformed schedules **before anything
runs**: unknown/misplaced/duplicated tasks, messages on a boundary that
does not cross ranks, absent required tasks, cycles over the rule and
per-rank program order, per-channel FIFO inconsistencies (each directed
(src, dst, plane) channel must be consumed in exactly the order it is
produced — the property that makes blocking FIFO receives
deadlock-free), and per-rank in-flight activation overflow against a
declared ``activation_limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, \
    Set, Tuple

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

    A tuple rather than a frozen dataclass because tasks are set members
    throughout: validating a 2048-microbatch program (what the DES
    baselines walk at the paper's batch size) hashes each task several
    times, and a Python-level ``__hash__`` doubled that cost.
    """

    kind: str
    stage: int   #: virtual stage index, 0 .. n_virtual - 1
    mb: int      #: microbatch index, 0 .. n_microbatches - 1

    def __repr__(self) -> str:  # compact: FWD(v=2, mb=0) -> FWD[2,0]
        return f"{self.kind}[{self.stage},{self.mb}]"


@dataclass(frozen=True)
class Schedule:
    """One pipeline schedule as an immutable value.

    ``rank_order[r]`` is physical rank ``r``'s program: the exact task
    sequence its rank program executes.  That program is all a schedule
    holds; a task's prerequisites are :func:`required_deps`, and whether
    a backward is split is whether its ``W`` is in the program
    (:meth:`has_w`).  ``activation_limit``, when set, bounds the per-rank
    number of resident forward activations (a FWD holds its activation
    until the matching BWD — or W, when the backward is split).
    """

    name: str
    n_stages: int           #: physical pipeline ranks
    n_virtual: int          #: virtual stages (n_chunks * n_stages)
    n_microbatches: int
    rank_order: Tuple[Tuple[Task, ...], ...]
    activation_limit: Optional[int] = None

    # -- structure helpers ---------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return self.n_virtual // self.n_stages

    def placement(self, stage: int) -> int:
        """Physical rank owning virtual ``stage``."""
        return stage % self.n_stages

    def crosses(self, stage: int) -> bool:
        """Does the boundary between ``stage`` and ``stage + 1`` cross
        ranks (i.e. needs a message rather than a local handoff)?"""
        return self.placement(stage) != self.placement(stage + 1)

    def tasks(self) -> Iterable[Task]:
        for order in self.rank_order:
            yield from order

    @cached_property
    def _w_tasks(self) -> FrozenSet[Task]:
        return frozenset(t for t in self.tasks() if t.kind == W)

    def has_w(self, stage: int, mb: int) -> bool:
        """Is this backward split, i.e. is its ``W`` in the program?"""
        return Task(W, stage, mb) in self._w_tasks

    def describe(self) -> str:
        return (f"{self.name}[S={self.n_stages} V={self.n_chunks} "
                f"m={self.n_microbatches} tasks={sum(map(len, self.rank_order))}]")


def required_deps(schedule: Schedule, task: Task) -> Tuple[Task, ...]:
    """The prerequisites of ``task``: the one dataflow rule.

    Each is forced by what the task *means*; running ``task`` before any
    of them would read data that does not exist yet.  A schedule stores
    no edges of its own, so this is every dependency there is.
    """
    kind, v, mb = task
    if kind == FWD:
        if v == 0:
            return ()
        return (Task(RECV_ACT, v, mb) if schedule.crosses(v - 1)
                else Task(FWD, v - 1, mb),)
    if kind == BWD:
        if v == schedule.n_virtual - 1:
            return (Task(FWD, v, mb),)
        return (Task(FWD, v, mb), Task(RECV_GRAD, v, mb)
                if schedule.crosses(v) else Task(BWD, v + 1, mb))
    if kind == SEND_ACT:
        return (Task(FWD, v, mb),)
    if kind == RECV_ACT:
        return (Task(SEND_ACT, v - 1, mb),)
    if kind == RECV_GRAD:
        return (Task(SEND_GRAD, v + 1, mb),)
    return (Task(BWD, v, mb),)  # SEND_GRAD and W


def _boundary(task: Task) -> int:
    """The boundary ``b`` (between stages ``b`` and ``b + 1``) a comm
    task's message crosses."""
    return task.stage if task.kind in (SEND_ACT, RECV_GRAD) \
        else task.stage - 1


def _required_tasks(schedule: Schedule) -> Iterable[Task]:
    """Every task the dataflow *demands* exist (W stays optional)."""
    for v in range(schedule.n_virtual):
        for mb in range(schedule.n_microbatches):
            yield Task(FWD, v, mb)
            yield Task(BWD, v, mb)
            if v < schedule.n_virtual - 1 and schedule.crosses(v):
                yield Task(SEND_ACT, v, mb)
                yield Task(RECV_GRAD, v, mb)
            if v > 0 and schedule.crosses(v - 1):
                yield Task(RECV_ACT, v, mb)
                yield Task(SEND_GRAD, v, mb)


def channel_of(schedule: Schedule, task: Task) -> Tuple[int, int, str]:
    """The directed (src_rank, dst_rank, plane) channel of a comm task."""
    if task.kind not in COMM_KINDS:
        raise ValueError(f"{task} is not a communication task")
    b = _boundary(task)
    lo, hi = schedule.placement(b), schedule.placement(b + 1)
    return (lo, hi, "F") if task.kind in (SEND_ACT, RECV_ACT) \
        else (hi, lo, "B")


def validate(schedule: Schedule) -> None:
    """Reject a malformed schedule; raises :class:`ScheduleError`.

    Checks, in order: shape sanity, task well-formedness and placement
    (a message must name a boundary that crosses ranks), required-task
    coverage, cycles over the rule and per-rank program order,
    per-channel FIFO consistency, and per-rank in-flight activation
    overflow.
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

    # -- task well-formedness & placement; each channel's two sequences ----
    # A message is named by its sender's (stage, microbatch).
    seen: Set[Task] = set()
    n_w = 0
    sends: Dict[Tuple[int, int, str], List[Tuple[int, int]]] = {}
    recvs: Dict[Tuple[int, int, str], List[Tuple[int, int]]] = {}
    for rank, order in enumerate(schedule.rank_order):
        for task in order:
            kind, v, mb = task
            if kind not in KINDS:
                raise ScheduleError(
                    f"{schedule.name}: unknown task kind {kind!r}")
            if not (0 <= v < VS):
                raise ScheduleError(
                    f"{schedule.name}: {task} names virtual stage outside "
                    f"[0, {VS})")
            if not (0 <= mb < m):
                raise ScheduleError(
                    f"{schedule.name}: {task} names microbatch outside "
                    f"[0, {m})")
            if schedule.placement(v) != rank:
                raise ScheduleError(
                    f"{schedule.name}: {task} scheduled on rank {rank} but "
                    f"stage {v} lives on rank {schedule.placement(v)}")
            if task in seen:
                raise ScheduleError(
                    f"{schedule.name}: duplicate task {task}")
            seen.add(task)
            if kind == W:
                n_w += 1
            elif kind in COMM_KINDS:
                b = _boundary(task)
                if not (0 <= b < VS - 1 and schedule.crosses(b)):
                    raise ScheduleError(
                        f"{schedule.name}: {task} names no stage boundary "
                        f"that crosses ranks")
                side = sends if kind in (SEND_ACT, SEND_GRAD) else recvs
                sender = b if kind in (SEND_ACT, RECV_ACT) else b + 1
                side.setdefault(channel_of(schedule, task), []).append(
                    (sender, mb))

    # Every present task is now well-formed and unique, so a count of the
    # non-W ones detects an absent required task.
    crossings = sum(schedule.crosses(b) for b in range(VS - 1))
    if len(seen) - n_w != 2 * m * (VS + 2 * crossings):
        missing = [t for t in _required_tasks(schedule) if t not in seen]
        example = min(missing, key=lambda t: (t.stage, t.mb, t.kind))
        raise ScheduleError(
            f"{schedule.name}: {len(missing)} required task(s) absent, "
            f"e.g. {example}")

    # -- cycle check: run every program against the rule ---------------------
    # Each rank executes its order; a task fires once its prerequisites
    # have.  Stuck programs with work left are a cycle through rule edges
    # and program order.
    fired: Set[Task] = set()
    pos = [0] * S
    moved = True
    while moved:
        moved = False
        for rank, order in enumerate(schedule.rank_order):
            k = pos[rank]
            while k < len(order) and fired.issuperset(
                    required_deps(schedule, order[k])):
                fired.add(order[k])
                k += 1
            moved |= k > pos[rank]
            pos[rank] = k
    if len(fired) != len(seen):
        stuck = [t for t in seen if t not in fired]
        raise ScheduleError(
            f"{schedule.name}: dependency/program-order cycle through "
            f"{min(stuck, key=lambda t: (t.stage, t.mb, t.kind))} "
            f"({len(stuck)} tasks involved)")

    # -- per-channel FIFO consistency ---------------------------------------
    # A blocking plane-FIFO receive is only sound when every channel is
    # consumed in production order; a swap here is a latent deadlock (or a
    # mis-delivery) that must be rejected statically.
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
