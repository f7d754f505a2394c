"""Discrete-event models of Megatron-LM and DeepSpeed (3D parallelism).

Both baselines share the same execution skeleton:

* **intra-layer parallelism** (Shoeybi et al.): every layer's GEMMs shard
  across ``g_intra`` GPUs; each forward pass inserts 2 NCCL all-reduces of
  the activation per layer (4 in backward, +2 during recompute).  Sharded
  GEMMs do less work per kernel and therefore run at lower efficiency;
* **inter-layer parallelism**: a static flushing schedule (1F1B by
  default) with *blocking* NCCL point-to-point sends — every boundary
  message serializes with computation on both endpoints (paper
  Section IV-A).  The phase is the DES's one static walk,
  :func:`repro.sched.des.run_schedule_phase`, over the built IR schedule
  and this module's cost table;
* **data parallelism**: NCCL gradient all-reduce over ``g_data`` replicas.

They differ in memory strategy: Megatron-LM keeps the full ``20 phi`` state
per (intra-sharded) stage; DeepSpeed adds ZeRO-1, sharding optimizer state
and master weights across the data-parallel group — which is why DeepSpeed
can afford smaller ``G_inter`` than Megatron-LM in Table II, and why AxoNN's
CPU offload lets it go smaller still.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..cluster import Machine, summit
from ..core.memory_model import MemoryBreakdown, MemoryModel
from ..core.metrics import estimated_training_days, percent_of_peak
from ..core.phases import StageCost, optimizer_time_on_gpu
from ..partition import split_sizes
from ..sched import build_schedule
from ..sched.des import run_schedule_phase
from .config import ThreeDConfig

__all__ = ["BaselineResult", "simulate_baseline_batch",
           "baseline_stage_costs", "check_baseline_memory"]


def baseline_stage_costs(cfg: ThreeDConfig,
                         machine: Machine) -> List[StageCost]:
    """Per-stage, per-GPU costs after intra-layer sharding; the serial
    extras are the p2p handling overhead plus the intra-layer all-reduce
    tax (2 per layer forward, 4 backward + recompute, NCCL on NVLink)."""
    spec = cfg.spec
    mbs = cfg.microbatch_size
    layer_fwd = spec.layer_forward_flops(mbs)
    head_fwd = spec.head_forward_flops(mbs)
    act_bytes = spec.activation_message_bytes(mbs)
    handling = machine.cal.p2p_handling_overhead
    # Intra-layer groups are packed on NVLink (standard practice).
    coll = machine.cal.nccl.allreduce_time(act_bytes, cfg.g_intra,
                                           intra_node=True)
    costs = []
    for i, n_layers in enumerate(split_sizes(spec.n_layer, cfg.g_inter)):
        fwd = n_layers * layer_fwd / cfg.g_intra
        bwd = 2 * fwd
        recompute = fwd
        fwd_coll = 2 * n_layers * coll if cfg.g_intra > 1 else 0.0
        bwd_coll = 4 * n_layers * coll if cfg.g_intra > 1 else 0.0
        if i == cfg.g_inter - 1:
            fwd += head_fwd / cfg.g_intra
            bwd += 2 * head_fwd / cfg.g_intra
            if cfg.g_intra > 1:
                fwd_coll += coll
                bwd_coll += 2 * coll
        phi = n_layers * spec.params_per_layer // cfg.g_intra
        if i == 0 or i == cfg.g_inter - 1:
            phi += spec.embedding_params // 2 // cfg.g_intra
        costs.append(StageCost(
            stage=i,
            n_block_layers=n_layers,
            params=phi,
            fwd_flops=fwd,
            bwd_flops=bwd,
            recompute_flops=recompute,
            work_granularity=layer_fwd / cfg.g_intra,
            activation_bytes=act_bytes,
            fwd_extra_s=fwd_coll + handling,
            bwd_extra_s=bwd_coll + handling,
        ))
    return costs


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of simulating one baseline batch."""

    config: ThreeDConfig
    pipeline_s: float
    allreduce_s: float
    optimizer_s: float
    memory: MemoryBreakdown
    feasible: bool

    @property
    def batch_time_s(self) -> float:
        return self.pipeline_s + self.allreduce_s + self.optimizer_s

    @property
    def training_days(self) -> float:
        return estimated_training_days(self.batch_time_s,
                                       self.config.batch_size,
                                       self.config.spec.seq_len)

    @property
    def pct_of_peak(self) -> float:
        return percent_of_peak(self.config.spec, self.config.batch_size,
                               self.batch_time_s, self.config.num_gpus)

    def as_row(self) -> Dict[str, object]:
        return {
            "framework": self.config.framework,
            "model": self.config.spec.name,
            "gpus": self.config.num_gpus,
            "g_intra": self.config.g_intra,
            "g_inter": self.config.g_inter,
            "g_data": self.config.g_data,
            "mbs": self.config.microbatch_size,
            "pipeline_s": self.pipeline_s,
            "allreduce_s": self.allreduce_s,
            "optimizer_s": self.optimizer_s,
            "batch_time_s": self.batch_time_s,
            "training_days": self.training_days,
            "pct_peak": self.pct_of_peak,
            "memory_gb": self.memory.total / 1024 ** 3,
            "feasible": self.feasible,
        }


def check_baseline_memory(cfg: ThreeDConfig,
                          dram_bytes: int = 16 * 1024 ** 3
                          ) -> tuple[MemoryBreakdown, bool]:
    """Memory breakdown + feasibility for a baseline config."""
    mm = MemoryModel(cfg.spec)
    if cfg.framework == "deepspeed":
        breakdown = mm.deepspeed_bytes(cfg.g_inter, cfg.g_intra, cfg.g_data,
                                       cfg.microbatch_size)
    else:
        breakdown = mm.megatron_bytes(cfg.g_inter, cfg.g_intra,
                                      cfg.microbatch_size)
    if cfg.schedule == "gpipe":
        # GPipe keeps up to m microbatches of boundary activations alive.
        extra = (cfg.microbatches_per_shard - cfg.g_inter) \
            * cfg.spec.activation_message_bytes(cfg.microbatch_size)
        if extra > 0:
            breakdown = MemoryBreakdown(
                breakdown.params_and_grads, breakdown.optimizer_state,
                breakdown.activations + extra)
    return breakdown, mm.fits(breakdown, dram_bytes)


def simulate_baseline_batch(cfg: ThreeDConfig,
                            machine: Optional[Machine] = None
                            ) -> BaselineResult:
    """Simulate one training batch of Megatron-LM or DeepSpeed."""
    if machine is None:
        nodes = max(1, -(-cfg.num_gpus // 6))
        machine = Machine(spec=summit(nodes))
    if cfg.num_gpus > machine.spec.num_gpus:
        raise ValueError("config does not fit the machine")
    breakdown, feasible = check_baseline_memory(
        cfg, machine.spec.node.gpu.dram_bytes)

    env = machine.env
    cal = machine.cal
    nccl = cal.nccl
    costs = baseline_stage_costs(cfg, machine)
    m = cfg.microbatches_per_shard

    # Representative GPU per pipeline stage: intra-layer group members act
    # in lockstep, so one GPU per stage carries the modeled time; pipeline
    # neighbours sit g_intra apart in the physical numbering.
    gpus = [i * cfg.g_intra for i in range(cfg.g_inter)]
    schedule = build_schedule(cfg.schedule, cfg.g_inter, m)
    result: Dict[str, float] = {}

    def batch_proc() -> Generator:
        result["pipeline_s"], _, _ = yield env.process(
            run_schedule_phase(machine, schedule, costs, gpus,
                               cfg.backend_p2p, cfg.compute_jitter,
                               cfg.jitter_seed),
            name="baseline-pipeline")

        # Data-parallel gradient all-reduce (per column, NIC-shared by the
        # concurrent columns exactly as in the AxoNN model).
        phi = costs[0].params
        grad_bytes = cfg.spec.gradient_bytes_half(phi)
        nic_sharing = min(cfg.g_inter * cfg.g_intra,
                          machine.spec.node.gpus_per_node)
        ar = (nic_sharing * nccl.allreduce_time(grad_bytes, cfg.g_data,
                                                intra_node=cfg.g_data == 1)
              + cal.coll_launch_overhead) if cfg.g_data > 1 else 0.0
        yield env.timeout(ar)
        result["allreduce_s"] = ar

        # Optimizer: resident; ZeRO-1 shards the state across g_data and
        # all-gathers the updated fp16 parameters afterwards.
        if cfg.framework == "deepspeed" and cfg.g_data > 1:
            opt = optimizer_time_on_gpu(machine, phi // cfg.g_data)
            gather_bytes = 2 * phi
            opt += nic_sharing * nccl.allreduce_time(
                gather_bytes // 2, cfg.g_data, intra_node=False) / 2 \
                + cal.coll_launch_overhead
        else:
            opt = optimizer_time_on_gpu(machine, phi)
        yield env.timeout(opt)
        result["optimizer_s"] = opt

    env.process(batch_proc(), name="baseline-batch")
    machine.run()
    return BaselineResult(
        config=cfg,
        pipeline_s=result["pipeline_s"],
        allreduce_s=result["allreduce_s"],
        optimizer_s=result["optimizer_s"],
        memory=breakdown,
        feasible=feasible,
    )
