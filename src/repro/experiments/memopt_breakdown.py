"""Experiment: Fig. 6 — batch-time breakdown with/without the memory
optimization, plus the Section V-B memory accounting.

Paper setting: 12 B model, 48 GPUs, batch 2048, microbatch 1.  Without the
optimization the best feasible configuration is (G_inter=24, G_data=2);
with it, (G_inter=6, G_data=8).  The optimization trades a larger
data-parallel all-reduce for a much cheaper inter-layer phase."""

from __future__ import annotations

from typing import Dict, List

from ..core import AxoNNConfig, MemoryModel, WEAK_SCALING_MODELS, \
    simulate_batch

__all__ = ["fig6_rows", "fig6_claims", "memory_savings_summary"]


def fig6_rows(num_gpus: int = 48, batch_size: int = 2048,
              model: str = "12B") -> List[Dict[str, object]]:
    spec = WEAK_SCALING_MODELS[model]
    without = AxoNNConfig(
        spec=spec, num_gpus=num_gpus, g_inter=24, g_data=num_gpus // 24,
        microbatch_size=1, batch_size=batch_size, memopt=False)
    with_ = AxoNNConfig(
        spec=spec, num_gpus=num_gpus, g_inter=6, g_data=num_gpus // 6,
        microbatch_size=1, batch_size=batch_size, memopt=True,
        bucket_size=16_000_000)
    rows = []
    for label, cfg in (("without-memopt", without), ("with-memopt", with_)):
        r = simulate_batch(cfg)
        rows.append({
            "variant": label,
            "g_inter": cfg.g_inter,
            "g_data": cfg.g_data,
            "pipeline_s": r.pipeline_s,
            "allreduce_s": r.allreduce_s,
            "optimizer_s": r.optimizer_s,
            "total_s": r.batch_time_s,
        })
    return rows


def fig6_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """Fig. 6's claims plus Section V-B's per-GPU state saving."""
    by = {r["variant"]: r for r in rows}
    wo, w = by["without-memopt"], by["with-memopt"]
    improvement = (wo["total_s"] - w["total_s"]) / wo["total_s"]
    return {
        "pipeline_phase_shrinks": w["pipeline_s"] < wo["pipeline_s"],
        "allreduce_phase_grows": w["allreduce_s"] > wo["allreduce_s"],
        "total_improves": w["total_s"] < wo["total_s"],
        # paper: "an improvement of 13 percent"
        "improvement_in_plausible_band": 0.05 < improvement < 0.40,
        # paper: 20 phi -> 4 phi + 16 bsize per GPU
        "state_saving_ratio_4_to_5":
            4.0 < memory_savings_summary()["state_saving_ratio"] < 5.0,
    }


def memory_savings_summary(model: str = "12B") -> Dict[str, float]:
    """Section V-B numbers: 20 phi -> 4 phi + 16 bsize; 520 GB -> 130 GB."""
    spec = WEAK_SCALING_MODELS[model]
    mm = MemoryModel(spec)
    gb = 1024 ** 3
    phi = spec.params_per_stage(24)
    return {
        "state_bytes_per_gpu_baseline_gb":
            mm.state_bytes_baseline(phi) / gb,
        "state_bytes_per_gpu_memopt_gb":
            mm.state_bytes_memopt(phi, 16_000_000) / gb,
        "state_saving_ratio":
            mm.state_bytes_baseline(phi)
            / mm.state_bytes_memopt(phi, 16_000_000),
        "cluster_total_without_gb":
            mm.cluster_total_bytes(24, 2, 1, memopt=False) / gb,
        "cluster_total_with_gb":
            mm.cluster_total_bytes(24, 2, 1, memopt=True,
                                   bucket_size=16_000_000) / gb,
    }
