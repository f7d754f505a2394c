"""Experiment: MTBF x checkpoint-interval sweep vs. the Young/Daly optimum.

At paper scale (Table I zoo on 48..384 GPUs) a training run outlives the
cluster's mean time between failures many times over, so the checkpoint
interval becomes a first-order throughput knob: checkpoint too often and
the writes dominate, too rarely and every failure throws away a long
stretch of work.  The classic first-order optimum is Young/Daly's
``sqrt(2 * C * M)`` (checkpoint write cost *C*, system MTBF *M*).

This experiment builds a :class:`~repro.resilience.FailureModel` per model
of the zoo — step time from the analytic performance model
(:func:`repro.core.estimate_batch_time`), checkpoint cost from the
optimizer-state footprint over the parallel-filesystem bandwidth, MTBF
from a per-GPU rate — sweeps the checkpoint interval on the DES, fits the
empirical optimum, and checks it lands within 20% of Young/Daly.

It also owns the functional fault demos of ``repro faults`` / ``repro
trace``: one tiny 2x2 hybrid training scenario (:func:`demo_training`)
run under a deterministic fault plan (:func:`demo_plan`), and the small
traced scenarios of both substrates (:func:`trace_sim`,
:func:`trace_runtime`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Machine, summit
from ..core import (AxoNNConfig, WEAK_SCALING_MODELS, estimate_batch_time,
                    simulate_batch)
from ..nn import GPTConfig
from ..obs import Tracer
from ..resilience import (FailureModel, Fault, FaultPlan, ResilientTrainer,
                          fit_optimal_interval, simulate_resilient_run,
                          sweep_intervals, young_daly_interval_s)
from ..runtime import AxoNNTrainer
from .scaling import MODEL_GPUS, make_axonn_config

__all__ = ["resilience_rows", "resilience_claims", "resilience_report",
           "demo_training", "demo_plan", "faults_runtime", "trace_sim",
           "trace_runtime", "BYTES_PER_PARAM", "PFS_WRITE_BW_PER_NODE",
           "GPUS_PER_NODE"]

#: Checkpoint footprint per parameter: fp32 master + two fp32 Adam moments
#: + the fp16 weights (Section V-B accounting minus transient gradients).
BYTES_PER_PARAM = 14

#: Burst-buffer / PFS write bandwidth per 6-GPU node, bytes/s.
PFS_WRITE_BW_PER_NODE = 2.0e9

GPUS_PER_NODE = 6

#: Interval candidates as multiples of the Young/Daly prediction — a
#: geometric bracket so the fit sees both regimes (write-bound, rework-bound).
_INTERVAL_FACTORS = (0.25, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0, 3.0, 4.5)


def _failure_model(model: str, *, batch_size: int, per_gpu_mtbf_h: float,
                   restart_s: float, total_steps: int) -> FailureModel:
    gpus = MODEL_GPUS[model]
    cfg = make_axonn_config(model, batch_size=batch_size)
    step_time = estimate_batch_time(cfg)
    ckpt_bytes = WEAK_SCALING_MODELS[model].total_params * BYTES_PER_PARAM
    nodes = max(1, gpus // GPUS_PER_NODE)
    ckpt_s = ckpt_bytes / (nodes * PFS_WRITE_BW_PER_NODE)
    mtbf_s = per_gpu_mtbf_h * 3600.0 / gpus
    return FailureModel(step_time_s=step_time, checkpoint_write_s=ckpt_s,
                        restart_s=restart_s, mtbf_s=mtbf_s,
                        interval_steps=1, total_steps=total_steps)


def resilience_rows(models: Optional[Sequence[str]] = None, *,
                    batch_size: int = 16384,
                    per_gpu_mtbf_h: float = 10_000.0,
                    restart_s: float = 300.0,
                    total_steps: int = 12_000,
                    seeds: Sequence[int] = (0, 1, 2)) -> List[Dict]:
    """One row per model of the zoo: swept intervals, fitted optimum,
    Young/Daly prediction, and their ratio."""
    rows = []
    for model in (models if models is not None else list(MODEL_GPUS)):
        base = _failure_model(model, batch_size=batch_size,
                              per_gpu_mtbf_h=per_gpu_mtbf_h,
                              restart_s=restart_s, total_steps=total_steps)
        yd_s = young_daly_interval_s(base.mtbf_s, base.checkpoint_write_s)
        yd_steps = yd_s / base.step_time_s
        intervals = sorted({max(1, round(yd_steps * f))
                            for f in _INTERVAL_FACTORS})
        sweep = sweep_intervals(base, intervals, list(seeds))
        fitted_s = fit_optimal_interval(sweep)
        best = max(sweep, key=lambda r: r["efficiency"])
        rows.append({
            "model": model,
            "gpus": MODEL_GPUS[model],
            "step_time_s": base.step_time_s,
            "checkpoint_write_s": base.checkpoint_write_s,
            "mtbf_s": base.mtbf_s,
            "young_daly_s": yd_s,
            "fitted_optimum_s": fitted_s,
            "optimum_ratio": fitted_s / yd_s,
            "best_measured_interval_s": best["interval_s"],
            "best_measured_efficiency": best["efficiency"],
            "sweep": sweep,
        })
    return rows


def resilience_claims(rows: List[Dict], tolerance: float = 0.20) -> Dict:
    """The paper-style qualitative checks on the sweep.

    * the fitted optimal interval is within ``tolerance`` of Young/Daly
      for every model/scale;
    * efficiency at the optimum stays above 90% (faults are a tax, not a
      wall, at these MTBFs);
    * larger machines (shorter MTBF) want shorter intervals.
    """
    within = {r["model"]: abs(r["optimum_ratio"] - 1.0) <= tolerance
              for r in rows}
    eff_ok = {r["model"]: r["best_measured_efficiency"] > 0.90 for r in rows}
    by_gpus = sorted(rows, key=lambda r: r["gpus"])
    shrinking = all(a["fitted_optimum_s"] >= b["fitted_optimum_s"]
                    for a, b in zip(by_gpus, by_gpus[1:])) \
        if len(by_gpus) > 1 else True
    return {
        "optimum_within_tolerance": within,
        "all_within_tolerance": all(within.values()),
        "tolerance": tolerance,
        "efficiency_above_90pct": eff_ok,
        "interval_shrinks_with_scale": shrinking,
    }


def resilience_report(models: Optional[Sequence[str]] = None,
                      **kwargs) -> Dict:
    """JSON-ready report: rows + claims (the ``repro faults`` sim output)."""
    rows = resilience_rows(models, **kwargs)
    return {
        "experiment": "mtbf_x_checkpoint_interval",
        "rows": rows,
        "claims": resilience_claims(rows),
    }


# -- functional demos: the tiny 2x2 training scenario under faults ------------

def demo_training(dropout: float, n_batches: int, *,
                  microbatch_size: int = 2,
                  tracer: Optional[Tracer] = None, **options
                  ) -> Tuple[AxoNNTrainer, List[Tuple]]:
    """The tiny 2x2 hybrid GPT scenario the fault and trace demos train:
    a fresh trainer (``options`` go to :class:`AxoNNTrainer`) and
    ``n_batches`` seeded ``(x, y)`` batches."""
    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=4, n_head=2,
                    hidden=12, dropout=dropout, init_seed=7)
    rng = np.random.default_rng(7)
    batches = [(rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len)),
                rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len)))
               for _ in range(n_batches)]
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2,
                           microbatch_size=microbatch_size, tracer=tracer,
                           **options)
    return trainer, batches


def demo_plan(seed: Optional[int] = None,
              crash_only: bool = False) -> FaultPlan:
    """The fault plan the CLI demos run: seeded-random, or a fixed small
    scenario.  ``crash_only`` restricts it to rank crashes — the faults
    whose recovery is guaranteed bit-identical (drop/delay/straggler
    faults reorder the message-driven execution, which legitimately
    permutes dropout masks and accumulation order)."""
    if seed is not None:
        return FaultPlan.random(seed, n_ranks=4, n_steps=4)
    crashes = (
        Fault(kind="crash", rank=1, step=1, tick=2),
        Fault(kind="crash", rank=2, step=3, tick=4),
    )
    if crash_only:
        return FaultPlan.of(*crashes)
    return FaultPlan.of(
        *crashes,
        Fault(kind="drop", src=0, dst=1, step=0, count=1),
        Fault(kind="straggler", rank=3, step=2, ticks=2),
    )


def faults_runtime(fast: bool, plan: FaultPlan) -> Dict:
    """Run ``plan`` on the demo training scenario and check that the
    recovered loss trajectory is bit-identical to a fault-free run."""
    n_batches = 2 if fast else 4
    reference, batches = demo_training(0.1, n_batches)
    ref_losses = [reference.train_batch(x, y).loss for x, y in batches]

    trainer, _ = demo_training(0.1, n_batches)
    resilient = ResilientTrainer(trainer, plan, detect_timeout=10)
    losses = [resilient.train_batch(x, y).loss for x, y in batches]

    # Bit-identity is the guarantee for crash faults (recovery replays
    # from a bit-complete snapshot, fault-free).  Delivery faults
    # (drop/delay/straggler) reorder the message-driven execution, which
    # legitimately permutes dropout masks and accumulation order — there
    # the run must merely complete with finite, close losses.
    crash_only = all(f.kind == "crash" for f in plan)
    bit_identical = losses == ref_losses
    max_diff = max((abs(a - b) for a, b in zip(losses, ref_losses)),
                   default=0.0)
    passed = bit_identical if crash_only else (
        all(np.isfinite(losses)) and max_diff < 0.1)
    return {
        "plan": plan.to_dict(),
        "batches": n_batches,
        "crash_only_plan": crash_only,
        "losses": losses,
        "reference_losses": ref_losses,
        "bit_identical": bit_identical,
        "max_abs_loss_diff": max_diff,
        "passed": passed,
        "recoveries": [{
            "step": ev.step, "dead": list(ev.dead),
            "detected_at_tick": ev.detected_at,
            "restored_from": ev.restored_from, "replayed": ev.replayed,
        } for ev in resilient.recoveries],
    }


def trace_sim(fast: bool, faults: bool = False) -> list:
    """Spans of one memopt batch on the discrete-event substrate (2x2
    grid), or with ``faults`` of a resilient DES run (checkpoints,
    failures, restarts)."""
    if faults:
        model = FailureModel(step_time_s=30.0, checkpoint_write_s=12.0,
                             restart_s=60.0, mtbf_s=900.0,
                             interval_steps=10,
                             total_steps=60 if fast else 240, seed=0)
        spans: list = []
        simulate_resilient_run(model, spans=spans)
        return spans
    cfg = AxoNNConfig(
        spec=WEAK_SCALING_MODELS["12B"], num_gpus=4, g_inter=2, g_data=2,
        microbatch_size=1, batch_size=8 if fast else 16, memopt=True)
    machine = Machine(spec=summit(1), trace=True)
    simulate_batch(cfg, machine=machine)
    return machine.tracer.spans


def trace_runtime(fast: bool, faults: bool = False) -> list:
    """Spans of one real-numerics batch of the demo training scenario, or
    with ``faults`` of a few batches under the demo plan: crash, drop and
    straggler faults plus the resulting snapshot/recovery spans.

    The fault-free batch runs on the process backend under mixed
    precision with the CPU-offload optimizer, so the spans are the
    workers' measured time: each rank's fp16 all-reduce chunks beside
    the optimizer buckets it steps as each chunk arrives (Fig. 7).  The
    traced batch is the second one — the first pays for the fork."""
    tracer = Tracer()
    if faults:
        trainer, batches = demo_training(0.1, 2 if fast else 4,
                                         tracer=tracer)
        step = ResilientTrainer(trainer, demo_plan(),
                                detect_timeout=10).train_batch
        for x, y in batches:
            step(x, y)
        return tracer.spans
    trainer, batches = demo_training(
        0.0, 2, microbatch_size=2 if fast else 1, tracer=tracer,
        backend="process", precision="mixed", offload=True,
        bucket_size=256, coarsening_k=2)
    try:
        for x, y in batches:
            tracer.spans.clear()
            trainer.train_batch(x, y)
    finally:
        trainer.close()
    return tracer.spans
