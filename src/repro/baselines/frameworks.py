"""The static walk behind Megatron-LM and DeepSpeed (3D parallelism).

Both baselines are :class:`~repro.core.AxoNNConfig` policies
(:data:`~repro.core.config.FRAMEWORKS`) over AxoNN's one grid model and
share the same execution skeleton:

* **intra-layer parallelism** (Shoeybi et al.): every layer's GEMMs shard
  across ``g_intra`` GPUs; each forward pass inserts 2 NCCL all-reduces of
  the activation per layer (4 in backward, +2 during recompute).  Sharded
  GEMMs do less work per kernel and therefore run at lower efficiency —
  the ``"split"`` pricing of :func:`~repro.core.stage_costs`;
* **inter-layer parallelism**: a static flushing schedule (1F1B or GPipe)
  with *blocking* NCCL point-to-point sends — every boundary message
  serializes with computation on both endpoints (paper Section IV-A).
  The phase is the DES's one static walk,
  :func:`repro.sched.des.run_schedule_phase`, over the built IR schedule;
* **data parallelism**: the one data-parallel / optimizer tail,
  :func:`~repro.core.phases.run_data_parallel_and_optimizer`, as events
  on the column GPU's streams.

They differ in where the optimizer state lives: Megatron-LM keeps the full
``20 phi`` state per (intra-sharded) stage; DeepSpeed adds ZeRO-1, sharding
optimizer state and master weights across the data-parallel group — which
is why DeepSpeed can afford smaller ``G_inter`` than Megatron-LM in Table
II, and why AxoNN's CPU offload lets it go smaller still.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..cluster import Machine
from ..core import AxoNNConfig, BatchResult, check_memory, stage_costs
from ..core.axonn import batch_machine, run_batch
from ..core.phases import column_link
from ..sched import build_schedule
from ..sched.des import run_schedule_phase

__all__ = ["simulate_baseline_batch"]


def simulate_baseline_batch(cfg: AxoNNConfig,
                            machine: Optional[Machine] = None
                            ) -> BatchResult:
    """Simulate one Megatron-LM or DeepSpeed batch: ``cfg.schedule``'s
    static walk, then the one tail; the :class:`~repro.core.BatchResult`
    that :func:`repro.core.simulate_batch` returns for AxoNN."""
    if cfg.schedule is None:
        raise ValueError("schedule=None is the message-driven walk: "
                         "simulate it with repro.core.simulate_batch")
    machine = batch_machine(cfg, machine)
    breakdown, feasible = check_memory(cfg, machine.spec)
    costs = stage_costs(cfg, machine)
    schedule = build_schedule(cfg.schedule, cfg.g_inter,
                              cfg.microbatches_per_shard)
    # Representative GPU per pipeline stage: intra-layer group members act
    # in lockstep, so one GPU per stage carries the modeled time; pipeline
    # neighbours sit g_intra apart in the physical numbering.
    gpus = [i * cfg.g_intra for i in range(cfg.g_inter)]

    def pipeline() -> Generator:
        seconds, _, _ = yield from run_schedule_phase(
            machine, schedule, costs, gpus, cfg.p2p, cfg.compute_jitter,
            cfg.jitter_seed)
        return seconds

    return run_batch(machine, cfg, pipeline(), column_link(cfg, machine),
                     breakdown, feasible)
