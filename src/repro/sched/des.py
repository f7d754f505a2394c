"""Lower a schedule onto the DES performance twin.

:func:`run_schedule_phase` is the DES's one *static* pipeline walk (the
message-driven one is :func:`repro.core.phases.run_pipeline_phase`): one
simulated GPU per *physical* rank walks its program order.  Compute
tasks go through :func:`~repro.core.phases.stage_pass` with whatever
:class:`~repro.core.phases.StageCost` table the caller prices a pass by
— :func:`virtual_stage_costs` for the schedule search,
:func:`~repro.core.phases.stage_costs` of a Megatron-LM / DeepSpeed
configuration for the baselines — perturbed by the same
:func:`~repro.core.phases.jitter_factor` the message-driven/static
ablation uses; comm tasks become :class:`Messenger` sends and stash-
reordered receives (the wire delivers in arrival order, programs
consume in schedule order — exactly the process-backend discipline).  A
send is awaited iff the backend's point-to-point is blocking: NCCL holds
the sender's compute stream for the wire time, so the rank's next kernel
must queue behind it; ``MPI_Isend`` returns at once.

Zero-bubble pricing: when a schedule splits ``W`` out of ``BWD``, the
backward is halved between the two tasks, so ``W`` can fill what would
otherwise be drain bubble — this is where ZB-H1's win over 1F1B is
measured (the functional substrate deliberately does not split; see
:func:`repro.runtime.rankprog.lower_rank`).

Activation residency is tracked per rank in bytes of boundary-sized
activations (+1 per ``FWD``, released at ``W`` when split else ``BWD``)
— the searcher's memory objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Generator, List, Optional, Sequence, Set, Tuple

from ..cluster import Machine, summit
from ..comm import Message, Messenger
from ..core import AxoNNConfig, WEAK_SCALING_MODELS
from ..core.phases import StageCost, stage_costs, stage_pass
from .ir import BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD, W, \
    Schedule

__all__ = ["SchedSimResult", "run_schedule_phase", "simulate_schedule",
           "virtual_stage_costs"]

#: span label stem of each compute kind (``stage_pass``'s ``kind``)
_PASS = {FWD: "fwd", BWD: "bwd", W: "wgrad"}


@dataclass(frozen=True)
class SchedSimResult:
    """Outcome of one simulated batch of a schedule."""

    schedule: str
    makespan: float                      #: seconds for the whole batch
    busy: Tuple[float, ...]              #: per-rank compute-stream time
    bubble_fraction: float               #: 1 - mean(busy) / makespan
    peak_activation_bytes: Tuple[int, ...]  #: per-rank residency peak

    @property
    def peak_memory(self) -> int:
        return max(self.peak_activation_bytes, default=0)


def virtual_stage_costs(schedule: Schedule, spec=None,
                        microbatch_size: int = 1) -> List[StageCost]:
    """Cost table for the schedule's *virtual* pipeline.

    Builds the existing :func:`stage_costs` for a ``n_virtual``-deep
    pipeline, so interleaved chunks automatically carry ``1/V`` of the
    layers (and the head lands on the last virtual stage) — no separate
    cost model for virtual stages.

    Stated modelling gap (ROADMAP item 11): the schedule search prices
    forward / backward-proper flops and the wire only — no checkpoint
    recompute and no per-pass serial extras — which is what
    ``benchmarks/spine/reference.json`` and ``SCHEDULE_PINS`` in
    ``tests/test_des_pins.py`` pin.  Pass
    ``costs=`` to :func:`simulate_schedule` for a fully priced table.
    """
    spec = spec or WEAK_SCALING_MODELS["12B"]
    vs = schedule.n_virtual
    if vs > spec.n_layer:
        raise ValueError(f"{vs} virtual stages exceed spec's "
                         f"{spec.n_layer} layers")
    cfg = AxoNNConfig(
        spec=spec, num_gpus=vs, g_inter=vs, g_data=1,
        microbatch_size=microbatch_size,
        batch_size=microbatch_size * schedule.n_microbatches,
        include_optimizer=False, memopt=False)
    return [replace(c, recompute_flops=0.0) for c in stage_costs(cfg)]


def run_schedule_phase(machine: Machine, schedule: Schedule,
                       costs: Sequence[StageCost], gpus: Sequence[int],
                       backend_p2p: str = "mpi", sigma: float = 0.0,
                       seed: int = 0) -> Generator:
    """Process: ``schedule`` walked in program order, rank ``r`` on GPU
    ``gpus[r]``; returns ``(seconds, busy, peak_activation_bytes)``, the
    last two per rank."""
    env = machine.env
    messenger = Messenger(machine, machine.cal.backend(backend_p2p))
    busy = [0.0] * schedule.n_stages
    peak_bytes = [0] * schedule.n_stages

    def rank_proc(r: int) -> Generator:
        gpu = machine.gpu(gpus[r])
        stash: Set[Tuple[str, int]] = set()  # arrived, not yet consumed
        resident = 0
        for task in schedule.rank_order[r]:
            v, mb = task.stage, task.mb
            cost = costs[v]
            if task.kind in (RECV_ACT, RECV_GRAD):
                tag = "act" if task.kind == RECV_ACT else "grad"
                want = f"{tag}{v}", mb
                while want not in stash:
                    msg = yield messenger.irecv(gpus[r])
                    stash.add((msg.tag, msg.meta["mb"]))
                stash.remove(want)
            elif task.kind in (SEND_ACT, SEND_GRAD):
                tag, to = ("act", v + 1) if task.kind == SEND_ACT \
                    else ("grad", v - 1)
                sent = messenger.isend(Message(
                    gpus[r], gpus[schedule.placement(to)],
                    cost.activation_bytes, tag=f"{tag}{to}",
                    meta={"mb": mb}))
                if messenger.model.blocking_p2p:
                    yield sent
            else:
                split = schedule.has_w(v, mb)
                if task.kind == FWD:
                    resident += cost.activation_bytes
                    peak_bytes[r] = max(peak_bytes[r], resident)
                elif task.kind == W or not split:
                    resident -= cost.activation_bytes
                t0 = env.now
                yield from stage_pass(gpu, cost, _PASS[task.kind], mb, sigma,
                                      seed, split)
                busy[r] += env.now - t0

    start = env.now
    yield env.all_of([env.process(rank_proc(r), name=f"sched-rank{r}")
                      for r in range(schedule.n_stages)])
    messenger.check_drained()
    return env.now - start, busy, peak_bytes


def simulate_schedule(schedule: Schedule, *, spec=None,
                      microbatch_size: int = 1, sigma: float = 0.0,
                      seed: int = 0,
                      costs: Optional[List[StageCost]] = None,
                      machine: Optional[Machine] = None,
                      backend_p2p: str = "mpi") -> SchedSimResult:
    """Simulate one batch of ``schedule`` on the DES; return timings."""
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    S = schedule.n_stages
    costs = costs or virtual_stage_costs(schedule, spec, microbatch_size)
    if len(costs) != schedule.n_virtual:
        raise ValueError(f"cost table has {len(costs)} entries for "
                         f"{schedule.n_virtual} virtual stages")
    machine = machine or Machine(spec=summit(max(1, -(-S // 6))))
    phase = machine.env.process(
        run_schedule_phase(machine, schedule, costs, range(S), backend_p2p,
                           sigma, seed),
        name=f"sched-{schedule.name}")
    machine.run()
    makespan, busy, peak_bytes = phase.value
    mean_busy = sum(busy) / S if S else 0.0
    bubble = 0.0 if makespan <= 0 else 1.0 - mean_busy / makespan
    return SchedSimResult(
        schedule=schedule.name, makespan=makespan, busy=tuple(busy),
        bubble_fraction=bubble, peak_activation_bytes=tuple(peak_bytes))
