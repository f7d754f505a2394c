"""AxoNN core: the paper's contribution as a performance model.

Public surface:

* :class:`TransformerSpec`, :data:`WEAK_SCALING_MODELS`, :data:`GPT2_SMALL` —
  model statistics (Table I);
* :class:`AxoNNConfig` — a parallel-run configuration of any of the
  three frameworks (:data:`FRAMEWORKS`);
* :func:`simulate_batch` / :class:`BatchResult` — one batch of
  Algorithm 2 on the DES cluster with phase breakdown and metrics (a
  baseline's static walk returns the same result type);
* :func:`estimate_batch_time` — the analytic fast path for tuning;
* :func:`check_memory` — per-GPU bytes and the does-it-fit verdict;
* :class:`MemoryModel` — Section V-B byte accounting and OOM feasibility;
* :func:`estimated_training_days`, :func:`percent_of_peak` — Eqs. (2)-(3).
"""

from .axonn import BatchResult, check_memory, estimate_batch_time, simulate_batch
from .config import FRAMEWORKS, AxoNNConfig, FrameworkPolicy
from .memory_model import MemoryBreakdown, MemoryModel
from .metrics import (
    GPT3_TOKENS,
    achieved_flops,
    estimated_training_days,
    percent_of_peak,
)
from .model_stats import (
    GPT2_SMALL,
    WEAK_SCALING_MODELS,
    TransformerSpec,
    paper_table1_specs,
)
from .phases import StageCost, stage_costs

__all__ = [
    "BatchResult",
    "check_memory",
    "estimate_batch_time",
    "simulate_batch",
    "AxoNNConfig",
    "FRAMEWORKS",
    "FrameworkPolicy",
    "MemoryBreakdown",
    "MemoryModel",
    "GPT3_TOKENS",
    "achieved_flops",
    "estimated_training_days",
    "percent_of_peak",
    "GPT2_SMALL",
    "WEAK_SCALING_MODELS",
    "TransformerSpec",
    "paper_table1_specs",
    "StageCost",
    "stage_costs",
]
