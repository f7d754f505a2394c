"""Baseline frameworks: Megatron-LM and DeepSpeed as performance models.

Public surface:

* :class:`ThreeDConfig` — a 3D-parallel configuration (Table II row);
* :func:`simulate_baseline_batch` / :class:`BaselineResult`.

Their static flushing schedules (1F1B / GPipe) live in :mod:`repro.sched`:
:func:`~repro.sched.flushing_order` is the one source of the compute
order (the DES model here walks it) and
``AxoNNTrainer(schedule="1f1b")`` runs it with real numerics.
"""

from .config import ThreeDConfig
from .intra_layer import (
    ColumnParallelLinear,
    CommCounter,
    RowParallelLinear,
    TensorParallelAttention,
    TensorParallelMLP,
)
from .frameworks import (
    BaselineResult,
    baseline_stage_costs,
    check_baseline_memory,
    simulate_baseline_batch,
)
from .zero1 import Zero1AdamW

__all__ = [
    "ThreeDConfig",
    "ColumnParallelLinear",
    "CommCounter",
    "RowParallelLinear",
    "TensorParallelAttention",
    "TensorParallelMLP",
    "BaselineResult",
    "baseline_stage_costs",
    "check_baseline_memory",
    "simulate_baseline_batch",
    "Zero1AdamW",
]
