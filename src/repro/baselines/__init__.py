"""Baseline frameworks: Megatron-LM and DeepSpeed.

A baseline is not a second model: ``AxoNNConfig(framework="megatron" |
"deepspeed", schedule="1f1b" | "gpipe")`` names its policy over AxoNN's
grid model (:data:`repro.core.config.FRAMEWORKS`), and
:func:`~repro.core.check_memory`, :func:`~repro.core.stage_costs`,
:func:`~repro.core.estimate_batch_time` and :class:`~repro.core.BatchResult`
serve all three frameworks.  What stays here:

* :func:`simulate_baseline_batch` — one batch of the static walk, whose
  order :func:`~repro.sched.flushing_order` builds and which
  ``AxoNNTrainer(schedule="1f1b")`` runs with real numerics;
* :mod:`.intra_layer` — Shoeybi et al.'s tensor-parallel layers with real
  numerics, counting the collectives the cost model charges.
"""

from .intra_layer import (
    ColumnParallelLinear,
    CommCounter,
    RowParallelLinear,
    TensorParallelAttention,
    TensorParallelMLP,
)
from .frameworks import simulate_baseline_batch

__all__ = [
    "ColumnParallelLinear",
    "CommCounter",
    "RowParallelLinear",
    "TensorParallelAttention",
    "TensorParallelMLP",
    "simulate_baseline_batch",
]
