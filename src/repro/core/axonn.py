"""AxoNN batch-time simulation: the paper's framework on the modeled Summit.

:func:`simulate_batch` runs one full training batch through the
discrete-event cluster — the message-driven inter-layer phase, the
data-parallel gradient all-reduce and the optimizer — and returns a
:class:`BatchResult` with the phase breakdown (the quantities plotted in
Figs. 5, 6 and 8), the memory feasibility verdict, and the derived metrics
(Eq. 2 training days, Eq. 3 percentage of peak).

An *analytic* fast path (:func:`estimate_batch_time`) approximates the same
quantities in closed form for the tuning sweeps; the DES is the source of
truth and the tests keep the two within tolerance of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..cluster import GridPlacement, Machine, OutOfMemoryError, summit
from .config import AxoNNConfig
from .memory_model import MemoryBreakdown, MemoryModel
from .metrics import estimated_training_days, percent_of_peak
from .phases import (
    ColumnLink,
    column_allreduce_time,
    column_link,
    offload_bucket_time,
    run_data_parallel_and_optimizer,
    run_pipeline_phase,
    run_pipeline_phase_all_rows,
    stage_costs,
    step_time,
)

__all__ = ["BatchResult", "simulate_batch", "estimate_batch_time",
           "check_memory", "batch_machine", "run_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of simulating one training batch."""

    config: AxoNNConfig
    pipeline_s: float
    allreduce_s: float
    optimizer_s: float
    #: makespan of the combined data-parallel + optimizer phase
    dp_opt_combined_s: float
    memory: MemoryBreakdown
    feasible: bool

    @property
    def batch_time_s(self) -> float:
        return self.pipeline_s + self.dp_opt_combined_s

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
            "model": self.config.spec.name,
            "gpus": self.config.num_gpus,
            "g_inter": self.config.g_inter,
            "g_data": self.config.g_data,
            "g_intra": self.config.g_intra,
            "mbs": self.config.microbatch_size,
            "memopt": self.config.memopt,
            "pipeline_s": self.pipeline_s,
            "allreduce_s": self.allreduce_s,
            "optimizer_s": self.optimizer_s,
            "batch_time_s": self.batch_time_s,
            "training_days": self.training_days,
            "pct_peak": self.pct_of_peak,
            "memory_gb": self.memory.total / 1024 ** 3,
            "feasible": self.feasible,
        }


def check_memory(cfg: AxoNNConfig,
                 cluster_spec=None) -> tuple[MemoryBreakdown, bool]:
    """Memory breakdown + does-it-fit verdict for any framework's config
    (:meth:`MemoryModel.config_bytes`)."""
    cluster_spec = cluster_spec or summit(max(1, cfg.num_gpus // 6))
    mm = MemoryModel(cfg.spec)
    breakdown = mm.config_bytes(cfg)
    return breakdown, mm.fits(breakdown, cluster_spec.node.gpu.dram_bytes)


def batch_machine(cfg: AxoNNConfig, machine: Optional[Machine] = None,
                  trace: bool = False) -> Machine:
    """``machine``, or a fresh Summit just large enough for ``cfg``."""
    if machine is None:
        machine = Machine(spec=summit(max(1, -(-cfg.num_gpus // 6))),
                          trace=trace)
    if cfg.num_gpus > machine.spec.num_gpus:
        raise ValueError(
            f"config needs {cfg.num_gpus} GPUs, machine has "
            f"{machine.spec.num_gpus}"
        )
    return machine


def run_batch(machine: Machine, cfg: AxoNNConfig, pipeline: Generator,
              link: ColumnLink, memory: MemoryBreakdown,
              feasible: bool) -> BatchResult:
    """Run one batch on ``machine``: the ``pipeline`` walk (a process
    returning its seconds), then the one data-parallel / optimizer tail."""
    env = machine.env
    result = {}

    def batch_proc() -> Generator:
        result["pipeline_s"] = yield env.process(pipeline, name="pipeline")
        result["tail"] = yield env.process(
            run_data_parallel_and_optimizer(machine, cfg, link),
            name="data-parallel")

    env.process(batch_proc(), name="batch")
    machine.run()
    allreduce_s, optimizer_s, combined_s = result["tail"]
    return BatchResult(config=cfg, pipeline_s=result["pipeline_s"],
                       allreduce_s=allreduce_s, optimizer_s=optimizer_s,
                       dp_opt_combined_s=combined_s, memory=memory,
                       feasible=feasible)


def simulate_batch(cfg: AxoNNConfig, machine: Optional[Machine] = None,
                   trace: bool = False,
                   enforce_memory: bool = False,
                   full_grid: bool = False) -> BatchResult:
    """Simulate one batch of Algorithm 2's message-driven walk; raises
    :class:`OutOfMemoryError` when ``enforce_memory`` and the
    configuration does not fit the GPUs.

    ``full_grid=True`` simulates every data-parallel row instead of
    exploiting row symmetry (slower; exposes inter-row fabric contention
    when pipelines share nodes).  A static order is
    :func:`repro.baselines.simulate_baseline_batch`."""
    if cfg.schedule is not None:
        raise ValueError(f"schedule {cfg.schedule!r} is a static order: "
                         f"simulate it with simulate_baseline_batch")
    machine = batch_machine(cfg, machine, trace)
    breakdown, feasible = check_memory(cfg, machine.spec)
    if enforce_memory and not feasible:
        pool_gpu = machine.gpu(0).memory
        raise OutOfMemoryError(pool_gpu, "model state + activations",
                               breakdown.total)

    placement = GridPlacement(machine.spec, cfg.g_inter, cfg.g_data,
                              policy=cfg.placement_policy)
    walk = run_pipeline_phase_all_rows if full_grid else run_pipeline_phase
    return run_batch(machine, cfg, walk(machine, cfg, placement),
                     column_link(cfg, machine, placement), breakdown,
                     feasible)


def estimate_batch_time(cfg: AxoNNConfig,
                        machine: Optional[Machine] = None) -> float:
    """Closed-form batch-time estimate (the tuning fast path), for every
    framework.

    Pipeline: ``(m + g_inter - 1)`` slots of the bottleneck stage's
    fwd+bwd time plus per-hop communication exposure; the data-parallel
    and optimizer phases price the tail's formulas without event
    simulation, on the walk's :class:`ColumnLink`.
    """
    if machine is None:
        machine = Machine(spec=summit(max(1, -(-cfg.num_gpus // 6))))
    cal = machine.cal
    costs = stage_costs(cfg, machine)
    m = cfg.microbatches_per_shard
    link = column_link(cfg, machine)
    bottleneck = max(c.slot_time(machine) for c in costs)
    # Steady state: m rounds of the bottleneck; ramp: pipeline depth - 1.
    pipeline = (m + cfg.g_inter - 1) * bottleneck
    # Communication exposure: with non-blocking MPI, only the ramp hops are
    # exposed; with blocking NCCL p2p every message serializes with compute.
    if cfg.g_inter > 1:
        p2p = cal.backend(cfg.p2p)
        act = costs[0].activation_bytes
        hop = (link.hop_intra * p2p.p2p_time(act, True)
               + (1 - link.hop_intra) * p2p.p2p_time(act, False))
        if p2p.blocking_p2p:
            pipeline += 2 * m * hop
        else:
            pipeline += 2 * (cfg.g_inter - 1) * hop

    phi = costs[0].params
    ar = column_allreduce_time(machine, cfg, link,
                               cfg.spec.gradient_bytes_half(phi))
    if not cfg.include_optimizer:
        return pipeline + ar
    if cfg.optimizer_placement != "offload":
        return pipeline + ar + step_time(machine, cfg, link, phi)
    bsize = min(cfg.bucket_size, phi)
    n_buckets = -(-phi // bsize)
    opt = n_buckets * offload_bucket_time(machine, 0, bsize)
    if cfg.overlap:
        n_chunks = -(-n_buckets // cfg.coarsening_k)
        coll = cal.backend(cfg.backend_coll)
        ar_chunked = link.nic_sharing * n_chunks * coll.allreduce_time(
            cfg.spec.gradient_bytes_half(phi) // max(1, n_chunks),
            cfg.g_data, link.intra) + n_chunks * cal.coll_launch_overhead \
            if cfg.g_data > 1 else 0.0
        first_chunk = ar_chunked / max(1, n_chunks)
        return pipeline + max(ar_chunked, opt + first_chunk)
    return pipeline + ar + opt
