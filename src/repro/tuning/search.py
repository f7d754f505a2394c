"""Hyperparameter tuning: the search behind the paper's Table II.

Section VII-B: "we tune various hyperparameters for each framework on each
GPU count and use the best values".  One search serves every framework:
:func:`grid_candidates` enumerates the structurally valid
``(g_intra, g_inter, g_data, microbatch)`` decompositions, and
:func:`tune` draws them from

* **AxoNN**: no tensor axis (``G_intra = 1``, Table II's "-"), with the
  memory optimization on (Section V-B);
* **Megatron-LM / DeepSpeed**: ``G_intra`` over divisors of the per-node
  GPU count and two whole nodes (intra-layer parallelism does not scale
  across NVLink domains), each on 1F1B;

filters out configurations that exceed the 16 GB V100 DRAM (the same
feasibility constraint that shaped the paper's table), scores the rest with
the analytic batch-time estimate, and optionally refines the leaders with
the discrete-event simulator of the configuration's walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..baselines import simulate_baseline_batch
from ..cluster import Machine, summit
from ..core import AxoNNConfig, TransformerSpec, check_memory, \
    estimate_batch_time, simulate_batch

__all__ = ["divisors", "grid_candidates", "search_space", "tune",
           "TuningResult"]


def divisors(n: int) -> List[int]:
    """Sorted positive divisors of ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


DEFAULT_MICROBATCH_SIZES = (1, 2, 4, 8)


def grid_candidates(spec: TransformerSpec, num_gpus: int, batch_size: int,
                    g_intras: Sequence[int] = (1,),
                    microbatch_sizes: Sequence[int] =
                    DEFAULT_MICROBATCH_SIZES,
                    **fields) -> List[AxoNNConfig]:
    """Every structurally valid decomposition of ``num_gpus``, in the
    order ``g_intra`` (as given), ``g_inter`` (ascending), microbatch size
    (as given); ``fields`` go to every :class:`AxoNNConfig`.

    A ``g_intra`` that does not divide the GPUs or the hidden size, or
    that leaves a rank headless, is skipped."""
    out = []
    for g_intra in g_intras:
        if num_gpus % g_intra or spec.hidden % g_intra \
                or g_intra > spec.n_head:
            continue
        rest = num_gpus // g_intra
        for g_inter in divisors(rest):
            if g_inter > spec.n_layer:
                break
            g_data = rest // g_inter
            if batch_size % g_data != 0:
                continue
            shard = batch_size // g_data
            for mbs in microbatch_sizes:
                if shard % mbs != 0:
                    continue
                out.append(AxoNNConfig(
                    spec=spec, num_gpus=num_gpus, g_intra=g_intra,
                    g_inter=g_inter, g_data=g_data, microbatch_size=mbs,
                    batch_size=batch_size, **fields))
    return out


@dataclass(frozen=True)
class TuningResult:
    """Best configuration found, with the scored field."""

    config: AxoNNConfig
    batch_time_s: float
    n_candidates: int
    n_feasible: int

    def as_row(self) -> dict:
        cfg = self.config
        return {
            "framework": cfg.framework,
            "mbs": cfg.microbatch_size,
            "g_intra": cfg.g_intra,
            "g_inter": cfg.g_inter,
            "g_data": cfg.g_data,
            "batch_time_s": self.batch_time_s,
            "candidates": self.n_candidates,
            "feasible": self.n_feasible,
        }


def search_space(framework: str,
                 gpus_per_node: int = 6) -> Tuple[List[int], dict]:
    """``(g_intras, fields)``: the ``g_intra`` choices and the fixed
    :class:`AxoNNConfig` fields the Table II search tries for
    ``framework``."""
    if framework == "axonn":
        return [1], dict(memopt=True)
    return (divisors(gpus_per_node) + [2 * gpus_per_node],
            dict(framework=framework, schedule="1f1b"))


def tune(spec: TransformerSpec, num_gpus: int, batch_size: int,
         framework: str = "axonn", refine_top: int = 3,
         microbatch_sizes: Sequence[int] = DEFAULT_MICROBATCH_SIZES
         ) -> TuningResult:
    """Best ``framework`` configuration under memory feasibility."""
    g_intras, fields = search_space(framework)
    candidates = grid_candidates(spec, num_gpus, batch_size, g_intras,
                                 microbatch_sizes, **fields)
    if not candidates:
        raise ValueError(f"no structurally valid {framework} configuration")
    feasible = [c for c in candidates if check_memory(c)[1]]
    if not feasible:
        raise ValueError(
            f"no feasible {framework} configuration for {spec.name} on "
            f"{num_gpus} GPUs — more GPUs needed"
        )
    machine = Machine(spec=summit(max(1, -(-num_gpus // 6))))
    scored = sorted(feasible, key=lambda c: estimate_batch_time(c, machine))
    if refine_top > 0:
        leaders = scored[:refine_top]
        simulate = simulate_batch if leaders[0].schedule is None \
            else simulate_baseline_batch
        best_time, best_i = min((simulate(c).batch_time_s, i)
                                for i, c in enumerate(leaders))
        best = leaders[best_i]
    else:
        best = scored[0]
        best_time = estimate_batch_time(best, machine)
    return TuningResult(best, best_time, len(candidates), len(feasible))
