"""Ablation studies beyond the paper's headline figures.

These quantify the design choices DESIGN.md calls out:

* **backend swap** — AxoNN's pipeline with MPI (async) vs NCCL (blocking)
  point-to-point, isolating the Section IV-A claim;
* **placement policy** — pipeline-contiguous vs data-contiguous mapping of
  the 2D grid onto nodes;
* **pipeline_limit sweep** — the Section IV-A choice of fixing the limit to
  G_inter;
* **schedule** — 1F1B vs GPipe for the flushing baselines;
* **bucket-size sweep** — sensitivity of the offloaded optimizer to bsize.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..baselines import simulate_baseline_batch
from ..core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch

__all__ = ["backend_ablation", "placement_ablation",
           "pipeline_limit_ablation", "schedule_ablation",
           "bucket_size_ablation", "scheduling_jitter_ablation",
           "full_grid_validation", "backend_claims", "pipeline_limit_claims",
           "jitter_claims", "full_grid_claims"]


def _base_cfg(batch_size: int = 768, **kw) -> AxoNNConfig:
    base = dict(spec=WEAK_SCALING_MODELS["12B"], num_gpus=48, g_inter=6,
                g_data=8, microbatch_size=8, batch_size=batch_size,
                memopt=True)
    base.update(kw)
    return AxoNNConfig(**base)


def backend_ablation(batch_size: int = 768) -> List[Dict[str, object]]:
    """AxoNN with MPI vs NCCL p2p: the async-messaging advantage."""
    rows = []
    for backend in ("mpi", "nccl"):
        r = simulate_batch(_base_cfg(batch_size, backend_p2p=backend))
        rows.append({"p2p_backend": backend,
                     "pipeline_s": r.pipeline_s,
                     "batch_time_s": r.batch_time_s})
    return rows


def placement_ablation(batch_size: int = 768) -> List[Dict[str, object]]:
    """Grid placement: pipeline-contiguous favours the frequent p2p
    messages; data-contiguous favours the per-batch all-reduce."""
    rows = []
    for policy in ("pipeline-contiguous", "data-contiguous"):
        r = simulate_batch(_base_cfg(batch_size, placement_policy=policy))
        rows.append({"placement": policy,
                     "pipeline_s": r.pipeline_s,
                     "allreduce_s": r.allreduce_s,
                     "batch_time_s": r.batch_time_s})
    return rows


def backend_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """Section IV-A: asynchronous MPI messaging beats blocking NCCL."""
    by = {r["p2p_backend"]: r for r in rows}
    return {"mpi_beats_nccl_pipeline":
            by["mpi"]["pipeline_s"] < by["nccl"]["pipeline_s"]}


def pipeline_limit_ablation(limits: Sequence[int] = (1, 2, 4, 6, 12),
                            batch_size: int = 768
                            ) -> List[Dict[str, object]]:
    """Sweep the in-flight microbatch bound; the paper fixes it to
    G_inter as the throughput/memory sweet spot."""
    rows = []
    for limit in limits:
        r = simulate_batch(_base_cfg(batch_size, pipeline_limit=limit))
        rows.append({"pipeline_limit": limit,
                     "pipeline_s": r.pipeline_s})
    return rows


def pipeline_limit_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """One microbatch in flight serialises the pipeline."""
    by = {r["pipeline_limit"]: r["pipeline_s"] for r in rows}
    return {"limit_1_slowest": by[1] == max(by.values())}


def schedule_ablation(batch_size: int = 768) -> List[Dict[str, object]]:
    """1F1B vs GPipe for the flushing baseline (same 3D configuration)."""
    rows = []
    for schedule in ("1f1b", "gpipe"):
        cfg = AxoNNConfig(
            spec=WEAK_SCALING_MODELS["12B"], num_gpus=48, g_intra=3,
            g_inter=2, g_data=8, microbatch_size=2, batch_size=batch_size,
            framework="deepspeed", schedule=schedule)
        r = simulate_baseline_batch(cfg)
        bd = r.memory
        rows.append({"schedule": schedule,
                     "pipeline_s": r.pipeline_s,
                     "activation_bytes": bd.activations})
    return rows


def scheduling_jitter_ablation(sigmas=(0.0, 0.1, 0.2, 0.3),
                               batch_size: int = 768
                               ) -> List[Dict[str, object]]:
    """Message-driven (AxoNN) vs static 1F1B scheduling under compute
    jitter, with the *same* MPI backend and the same perturbed kernel
    durations for both.

    Outcome (documented in EXPERIMENTS.md): in our cost model the
    scheduling discipline alone changes little — AxoNN's measured advantage
    comes from backend asynchrony and the memory-optimization-enabled data
    parallelism, consistent with the paper's own attribution.
    """
    rows = []
    for sigma in sigmas:
        ax = simulate_batch(_base_cfg(batch_size, compute_jitter=sigma))
        static = simulate_baseline_batch(AxoNNConfig(
            spec=WEAK_SCALING_MODELS["12B"], num_gpus=48, g_intra=1,
            g_inter=6, g_data=8, microbatch_size=8, batch_size=batch_size,
            framework="megatron", schedule="1f1b", backend_p2p="mpi",
            compute_jitter=sigma))
        rows.append({
            "jitter_sigma": sigma,
            "message_driven_pipeline_s": ax.pipeline_s,
            "static_1f1b_pipeline_s": static.pipeline_s,
            "ratio": static.pipeline_s / ax.pipeline_s,
        })
    return rows


def jitter_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """The scheduling discipline alone changes little at any jitter."""
    return {"static_vs_message_driven_within_0.8_1.25":
            all(0.8 < r["ratio"] < 1.25 for r in rows)}


def full_grid_validation(batch_size: int = 768) -> List[Dict[str, object]]:
    """Validate the one-row symmetry assumption: simulating every
    data-parallel row must agree with the single-row fast path (to within
    fabric-contention effects when pipelines straddle nodes)."""
    rows = []
    for g_inter in (6, 8):
        cfg = _base_cfg(batch_size, g_inter=g_inter, g_data=48 // g_inter)
        one = simulate_batch(cfg)
        full = simulate_batch(cfg, full_grid=True)
        rows.append({
            "g_inter": g_inter,
            "one_row_pipeline_s": one.pipeline_s,
            "full_grid_pipeline_s": full.pipeline_s,
            "relative_gap": abs(full.pipeline_s - one.pipeline_s)
            / one.pipeline_s,
        })
    return rows


def full_grid_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """The one-row fast path stands in for the full grid."""
    return {"one_row_within_5pct_of_full_grid":
            all(r["relative_gap"] < 0.05 for r in rows)}


def bucket_size_ablation(bucket_sizes: Sequence[int] =
                         (1_000_000, 4_000_000, 16_000_000, 64_000_000),
                         batch_size: int = 768) -> List[Dict[str, object]]:
    """Offload bucket-size sweep: smaller buckets save device memory but
    pay more per-bucket overhead."""
    rows = []
    for bsize in bucket_sizes:
        r = simulate_batch(_base_cfg(batch_size, bucket_size=bsize))
        rows.append({"bucket_size": bsize,
                     "optimizer_s": r.optimizer_s,
                     "dp_opt_combined_s": r.dp_opt_combined_s,
                     "optimizer_device_bytes": 16 * bsize})
    return rows
