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
from typing import Dict, Optional

from ..cluster import GridPlacement, Machine, OutOfMemoryError, summit
from .config import AxoNNConfig
from .memory_model import MemoryBreakdown, MemoryModel
from .metrics import estimated_training_days, percent_of_peak
from .phases import (
    offload_bucket_time,
    optimizer_time_on_gpu,
    run_data_parallel_and_optimizer,
    run_pipeline_phase,
    run_pipeline_phase_all_rows,
    stage_costs,
)

__all__ = ["BatchResult", "simulate_batch", "estimate_batch_time",
           "check_memory"]


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
    """Memory breakdown + does-it-fit verdict for an AxoNN config."""
    cluster_spec = cluster_spec or summit(max(1, cfg.num_gpus // 6))
    mm = MemoryModel(cfg.spec)
    breakdown = mm.axonn_bytes(cfg.g_inter, cfg.microbatch_size,
                               memopt=cfg.memopt,
                               bucket_size=cfg.bucket_size,
                               include_optimizer=cfg.include_optimizer,
                               g_intra=cfg.g_intra)
    return breakdown, mm.fits(breakdown, cluster_spec.node.gpu.dram_bytes)


def simulate_batch(cfg: AxoNNConfig, machine: Optional[Machine] = None,
                   trace: bool = False,
                   enforce_memory: bool = False,
                   full_grid: bool = False) -> BatchResult:
    """Simulate one batch; raises :class:`OutOfMemoryError` when
    ``enforce_memory`` and the configuration does not fit the GPUs.

    ``full_grid=True`` simulates every data-parallel row instead of
    exploiting row symmetry (slower; exposes inter-row fabric contention
    when pipelines share nodes)."""
    if machine is None:
        nodes = max(1, -(-cfg.num_gpus // 6))
        machine = Machine(spec=summit(nodes), trace=trace)
    if cfg.num_gpus > machine.spec.num_gpus:
        raise ValueError(
            f"config needs {cfg.num_gpus} GPUs, machine has "
            f"{machine.spec.num_gpus}"
        )
    breakdown, feasible = check_memory(cfg, machine.spec)
    if enforce_memory and not feasible:
        pool_gpu = machine.gpu(0).memory
        raise OutOfMemoryError(pool_gpu, "model state + activations",
                               breakdown.total)

    placement = GridPlacement(machine.spec, cfg.g_inter, cfg.g_data,
                              policy=cfg.placement_policy)
    env = machine.env

    result = {}

    def batch_proc():
        t0 = env.now
        if full_grid:
            pipeline_s = yield env.process(
                run_pipeline_phase_all_rows(machine, cfg, placement),
                name="pipeline-all-rows")
        else:
            pipeline_s = yield env.process(
                run_pipeline_phase(machine, cfg, placement),
                name="pipeline-row0")
        ar_s, opt_s, combined_s = yield env.process(
            run_data_parallel_and_optimizer(machine, cfg, placement),
            name="data-parallel")
        result["pipeline_s"] = pipeline_s
        result["allreduce_s"] = ar_s
        result["optimizer_s"] = opt_s
        result["combined_s"] = combined_s
        result["total"] = env.now - t0

    env.process(batch_proc(), name="batch")
    machine.run()

    return BatchResult(
        config=cfg,
        pipeline_s=result["pipeline_s"],
        allreduce_s=result["allreduce_s"],
        optimizer_s=result["optimizer_s"],
        dp_opt_combined_s=result["combined_s"],
        memory=breakdown,
        feasible=feasible,
    )


def estimate_batch_time(cfg: AxoNNConfig,
                        machine: Optional[Machine] = None) -> float:
    """Closed-form batch-time estimate (the tuning fast path).

    Pipeline: ``(m + pipeline_limit - 1)`` slots of the bottleneck stage's
    fwd+bwd time plus per-hop communication exposure; data-parallel and
    optimizer phases mirror the DES cost formulas without event simulation.
    """
    if machine is None:
        nodes = max(1, -(-cfg.num_gpus // 6))
        machine = Machine(spec=summit(nodes))
    cal = machine.cal
    costs = stage_costs(cfg, machine)
    m = cfg.microbatches_per_shard
    coll = cal.backend(cfg.backend_coll)
    bottleneck = max(c.slot_time(machine) for c in costs)
    # Steady state: m rounds of the bottleneck; ramp: pipeline depth - 1.
    pipeline = (m + cfg.g_inter - 1) * bottleneck
    # Communication exposure: with non-blocking MPI, only the ramp hops are
    # exposed; with blocking NCCL p2p every message serializes with compute.
    p2p = cal.backend(cfg.backend_p2p)
    placement = GridPlacement(machine.spec, cfg.g_inter, cfg.g_data,
                              policy=cfg.placement_policy)
    locality = placement.pipeline_edge_locality(0)
    n_edges = max(1, cfg.g_inter - 1)
    intra_frac = locality["intra"] / n_edges if n_edges else 1.0
    hop = (intra_frac * p2p.p2p_time(costs[0].activation_bytes, True)
           + (1 - intra_frac) * p2p.p2p_time(costs[0].activation_bytes, False))
    if p2p.blocking_p2p:
        pipeline += 2 * m * hop
    else:
        pipeline += 2 * (cfg.g_inter - 1) * hop

    # Data-parallel + optimizer (mirrors run_data_parallel_and_optimizer).
    phi = costs[0].params
    intra = placement.data_group_nodes(0) == 1
    sharing = 1 if intra else min(cfg.g_inter,
                                  machine.spec.node.gpus_per_node)
    ar = sharing * coll.allreduce_time(
        cfg.spec.gradient_bytes_half(phi), cfg.g_data, intra) \
        + cal.coll_launch_overhead
    if not cfg.include_optimizer:
        return pipeline + ar
    if not cfg.memopt:
        return pipeline + ar + optimizer_time_on_gpu(machine, phi)
    bsize = min(cfg.bucket_size, phi)
    n_buckets = -(-phi // bsize)
    opt = n_buckets * offload_bucket_time(machine, 0, bsize)
    if cfg.overlap:
        n_chunks = -(-n_buckets // cfg.coarsening_k)
        ar_chunked = sharing * n_chunks * coll.allreduce_time(
            cfg.spec.gradient_bytes_half(phi) // max(1, n_chunks),
            cfg.g_data, intra) + n_chunks * cal.coll_launch_overhead
        first_chunk = ar_chunked / max(1, n_chunks)
        return pipeline + max(ar_chunked, opt + first_chunk)
    return pipeline + ar + opt
