"""Hyperparameter tuning: the search behind the paper's Table II.

Section VII-B: "we tune various hyperparameters for each framework on each
GPU count and use the best values".  This module enumerates the candidate
grid for each framework:

* **AxoNN**: ``G_inter`` over the divisors of the GPU count (bounded by the
  layer count), ``G_data = GPUs / G_inter``, microbatch size over powers of
  two — with the memory optimization on (Section V-B);
* **Megatron-LM / DeepSpeed**: additionally ``G_intra`` over divisors of
  the per-node GPU count (intra-layer parallelism does not scale across
  NVLink domains);

filters out configurations that exceed the 16 GB V100 DRAM (the same
feasibility constraint that shaped the paper's table), scores the rest with
the analytic batch-time estimate, and optionally refines the leaders with
the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..baselines import ThreeDConfig, check_baseline_memory
from ..baselines.frameworks import baseline_stage_costs, simulate_baseline_batch
from ..cluster import Machine, summit
from ..core import AxoNNConfig, TransformerSpec, check_memory, \
    estimate_batch_time, simulate_batch
from ..core.phases import optimizer_time_on_gpu

__all__ = ["divisors", "axonn_candidates", "baseline_candidates",
           "estimate_baseline_time", "tune_axonn", "tune_baseline",
           "TuningResult"]


def divisors(n: int) -> List[int]:
    """Sorted positive divisors of ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


DEFAULT_MICROBATCH_SIZES = (1, 2, 4, 8)


def axonn_candidates(spec: TransformerSpec, num_gpus: int, batch_size: int,
                     microbatch_sizes: Sequence[int] = DEFAULT_MICROBATCH_SIZES,
                     memopt: bool = True) -> List[AxoNNConfig]:
    """All structurally valid AxoNN configurations."""
    out = []
    for g_inter in divisors(num_gpus):
        if g_inter > spec.n_layer:
            continue
        g_data = num_gpus // g_inter
        if batch_size % g_data != 0:
            continue
        shard = batch_size // g_data
        for mbs in microbatch_sizes:
            if shard % mbs != 0:
                continue
            out.append(AxoNNConfig(
                spec=spec, num_gpus=num_gpus, g_inter=g_inter,
                g_data=g_data, microbatch_size=mbs, batch_size=batch_size,
                memopt=memopt))
    return out


def baseline_candidates(spec: TransformerSpec, num_gpus: int,
                        batch_size: int, framework: str,
                        gpus_per_node: int = 6,
                        microbatch_sizes: Sequence[int] =
                        DEFAULT_MICROBATCH_SIZES) -> List[ThreeDConfig]:
    """All structurally valid 3D-parallel configurations."""
    out = []
    for g_intra in divisors(gpus_per_node) + [2 * gpus_per_node]:
        if num_gpus % g_intra != 0 or spec.hidden % g_intra != 0:
            continue
        rest = num_gpus // g_intra
        for g_inter in divisors(rest):
            if g_inter > spec.n_layer:
                continue
            g_data = rest // g_inter
            if batch_size % g_data != 0:
                continue
            shard = batch_size // g_data
            for mbs in microbatch_sizes:
                if shard % mbs != 0:
                    continue
                out.append(ThreeDConfig(
                    spec=spec, num_gpus=num_gpus, g_intra=g_intra,
                    g_inter=g_inter, g_data=g_data, microbatch_size=mbs,
                    batch_size=batch_size, framework=framework))
    return out


def estimate_baseline_time(cfg: ThreeDConfig,
                           machine: Optional[Machine] = None) -> float:
    """Closed-form batch-time estimate for a flushing 3D-parallel baseline.

    Pipeline: ``(m + S - 1)`` slots of the bottleneck stage (compute +
    intra-layer collectives + handling) plus the *blocking* NCCL p2p wire
    time on every message; then the data-parallel all-reduce and the
    (ZeRO-sharded, for DeepSpeed) optimizer.
    """
    if machine is None:
        nodes = max(1, -(-cfg.num_gpus // 6))
        machine = Machine(spec=summit(nodes))
    cal = machine.cal
    nccl = cal.nccl
    costs = baseline_stage_costs(cfg, machine)
    m = cfg.microbatches_per_shard
    bottleneck = max(c.slot_time(machine) for c in costs)
    pipeline = (m + cfg.g_inter - 1) * bottleneck
    if cfg.g_inter > 1:
        # Blocking sends: every boundary message's wire time serializes.
        stride = cfg.g_intra
        intra = (stride < machine.spec.node.gpus_per_node)
        hop = nccl.p2p_time(costs[0].activation_bytes, intra)
        pipeline += 2 * m * hop

    phi = costs[0].params
    nic_sharing = min(cfg.g_inter * cfg.g_intra,
                      machine.spec.node.gpus_per_node)
    ar = 0.0
    if cfg.g_data > 1:
        ar = nic_sharing * nccl.allreduce_time(
            cfg.spec.gradient_bytes_half(phi), cfg.g_data,
            intra_node=False) + cal.coll_launch_overhead
    if cfg.framework == "deepspeed" and cfg.g_data > 1:
        opt = optimizer_time_on_gpu(machine, phi // cfg.g_data)
        opt += nic_sharing * nccl.allreduce_time(
            phi, cfg.g_data, intra_node=False) / 2 + cal.coll_launch_overhead
    else:
        opt = optimizer_time_on_gpu(machine, phi)
    return pipeline + ar + opt


@dataclass(frozen=True)
class TuningResult:
    """Best configuration found, with the scored field."""

    config: object  # AxoNNConfig | ThreeDConfig
    batch_time_s: float
    n_candidates: int
    n_feasible: int

    def as_row(self) -> dict:
        cfg = self.config
        row = {
            "framework": getattr(cfg, "framework", "axonn"),
            "mbs": cfg.microbatch_size,
            "g_intra": getattr(cfg, "g_intra", None),
            "g_inter": cfg.g_inter,
            "g_data": cfg.g_data,
            "batch_time_s": self.batch_time_s,
            "candidates": self.n_candidates,
            "feasible": self.n_feasible,
        }
        return row


def tune_axonn(spec: TransformerSpec, num_gpus: int, batch_size: int,
               refine_top: int = 3,
               microbatch_sizes: Sequence[int] = DEFAULT_MICROBATCH_SIZES
               ) -> TuningResult:
    """Best AxoNN configuration under memory feasibility."""
    candidates = axonn_candidates(spec, num_gpus, batch_size,
                                  microbatch_sizes)
    if not candidates:
        raise ValueError("no structurally valid AxoNN configuration")
    feasible = [c for c in candidates if check_memory(c)[1]]
    if not feasible:
        raise ValueError(
            f"no feasible AxoNN configuration for {spec.name} on "
            f"{num_gpus} GPUs — more GPUs needed"
        )
    machine = Machine(spec=summit(max(1, -(-num_gpus // 6))))
    scored = sorted(feasible, key=lambda c: estimate_batch_time(c, machine))
    if refine_top > 0:
        leaders = scored[:refine_top]
        refined = [(simulate_batch(c).batch_time_s, i)
                   for i, c in enumerate(leaders)]
        best_time, best_i = min(refined)
        best = leaders[best_i]
    else:
        best = scored[0]
        best_time = estimate_batch_time(best, machine)
    return TuningResult(best, best_time, len(candidates), len(feasible))


def tune_baseline(spec: TransformerSpec, num_gpus: int, batch_size: int,
                  framework: str, refine_top: int = 3,
                  microbatch_sizes: Sequence[int] = DEFAULT_MICROBATCH_SIZES
                  ) -> TuningResult:
    """Best Megatron-LM / DeepSpeed configuration under memory feasibility."""
    candidates = baseline_candidates(spec, num_gpus, batch_size, framework,
                                     microbatch_sizes=microbatch_sizes)
    if not candidates:
        raise ValueError("no structurally valid baseline configuration")
    feasible = [c for c in candidates if check_baseline_memory(c)[1]]
    if not feasible:
        raise ValueError(
            f"no feasible {framework} configuration for {spec.name} on "
            f"{num_gpus} GPUs"
        )
    machine = Machine(spec=summit(max(1, -(-num_gpus // 6))))
    scored = sorted(feasible,
                    key=lambda c: estimate_baseline_time(c, machine))
    if refine_top > 0:
        leaders = scored[:refine_top]
        refined = [(simulate_baseline_batch(c).batch_time_s, i)
                   for i, c in enumerate(leaders)]
        best_time, best_i = min(refined)
        best = leaders[best_i]
    else:
        best = scored[0]
        best_time = estimate_baseline_time(best, machine)
    return TuningResult(best, best_time, len(candidates), len(feasible))
