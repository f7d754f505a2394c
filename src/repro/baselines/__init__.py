"""Baseline frameworks: Megatron-LM and DeepSpeed.

A baseline is not a second model: ``AxoNNConfig(framework="megatron" |
"deepspeed", schedule="1f1b" | "gpipe")`` names its policy over AxoNN's
grid model (:data:`repro.core.config.FRAMEWORKS`), and
:func:`~repro.core.check_memory`, :func:`~repro.core.stage_costs`,
:func:`~repro.core.estimate_batch_time` and :class:`~repro.core.BatchResult`
serve all three frameworks — Megatron-LM's tensor parallelism included,
priced by its per-layer activation all-reduces
(:data:`~repro.core.phases.MEGATRON_FWD_ALLREDUCES_PER_LAYER`).  What
stays here is :func:`simulate_baseline_batch`: one batch of the static
walk, whose order :func:`~repro.sched.flushing_order` builds and which
``AxoNNTrainer(schedule="1f1b")`` runs with real numerics.
"""

from .frameworks import simulate_baseline_batch

__all__ = ["simulate_baseline_batch"]
