"""Experiment: Fig. 7 — the two-stream overlap profile.

The paper shows an Nsight Systems capture with the all-reduce chunks and
optimizer buckets interleaving on separate CUDA streams.  Our stand-in is
the DES machine's spans: the same two tracks, rendered as an ASCII
timeline, plus the quantified overlap statistics computed by the unified
observability layer (:mod:`repro.obs`) from the same span list."""

from __future__ import annotations

from typing import Dict

from ..cluster import Machine, summit
from ..core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch
from ..obs import overlap_stats, render_ascii_timeline

__all__ = ["fig7_profile", "fig7_claims"]


def fig7_profile(model: str = "12B", num_gpus: int = 48,
                 batch_size: int = 512, coarsening_k: int = 4,
                 bucket_size: int = 16_000_000) -> Dict[str, object]:
    """Run one overlapped batch with tracing; return timeline + stats."""
    spec = WEAK_SCALING_MODELS[model]
    cfg = AxoNNConfig(
        spec=spec, num_gpus=num_gpus, g_inter=6, g_data=num_gpus // 6,
        microbatch_size=1, batch_size=batch_size, memopt=True,
        bucket_size=bucket_size, coarsening_k=coarsening_k)
    machine = Machine(spec=summit(max(1, num_gpus // 6)), trace=True)
    result = simulate_batch(cfg, machine=machine)
    spans = machine.tracer.spans
    stats = overlap_stats(spans, "allreduce", "optimizer")
    ar = [s for s in spans if s.category == "allreduce"]
    opt = [s for s in spans if s.category == "optimizer"]
    t0 = min(s.start for s in ar + opt)
    ascii_timeline = render_ascii_timeline(spans, width=100, t0=t0)
    return {
        "result": result,
        "tracer": machine.tracer,
        "spans": spans,
        "ascii": ascii_timeline,
        "allreduce_busy_s": stats["a_busy_s"],
        "optimizer_busy_s": stats["b_busy_s"],
        "overlap_s": stats["overlap_s"],
        "overlap_fraction": stats["overlap_fraction"],
        "n_allreduce_chunks": stats["n_a"],
        "n_optimizer_buckets": stats["n_b"],
    }


def fig7_claims(profile: Dict[str, object]) -> Dict[str, bool]:
    """The phenomenon Fig. 7 demonstrates: substantial interleaving."""
    return {
        "streams_overlap": profile["overlap_s"] > 0,
        "most_optimizer_time_is_hidden": profile["overlap_fraction"] > 0.5,
        "chunked_into_multiple_calls": profile["n_allreduce_chunks"] > 1,
    }
