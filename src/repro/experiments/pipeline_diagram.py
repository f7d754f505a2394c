"""Fig. 1-style pipeline occupancy diagram.

The paper's Fig. 1 illustrates inter-layer parallelism as a GPU-by-time
grid of forward (green) and backward (yellow) boxes.  This experiment
regenerates that picture from an actual traced simulation: each pipeline
stage becomes a row, each time bin shows ``f``/``b`` for the pass running
there (``.`` = idle), and per-stage idle fractions quantify the warm-up /
drain bubble the figure illustrates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import GridPlacement, Machine, summit
from ..core import AxoNNConfig, WEAK_SCALING_MODELS
from ..core.phases import run_pipeline_phase

__all__ = ["pipeline_occupancy", "render_occupancy", "fig1_claims"]


def pipeline_occupancy(g_inter: int = 4, microbatches: int = 8,
                       model: str = "12B",
                       pipeline_limit: Optional[int] = None
                       ) -> Dict[str, object]:
    """Trace one small pipeline pass and compute per-stage occupancy."""
    spec = WEAK_SCALING_MODELS[model]
    num_gpus = g_inter  # one pipeline row only
    cfg = AxoNNConfig(
        spec=spec, num_gpus=num_gpus, g_inter=g_inter, g_data=1,
        microbatch_size=1, batch_size=microbatches,
        include_optimizer=False, memopt=False,
        pipeline_limit=pipeline_limit)
    machine = Machine(spec=summit(max(1, -(-num_gpus // 6))), trace=True)
    placement = GridPlacement(machine.spec, g_inter, 1)
    machine.env.process(run_pipeline_phase(machine, cfg, placement),
                        name="pipeline-diagram")
    machine.run()
    total = machine.now

    stages = []
    for i in range(g_inter):
        gpu_id = placement.pipeline(0)[i]
        spans = [s for s in machine.tracer.spans
                 if s.track == f"gpu{gpu_id}.compute"]
        busy = sum(s.duration for s in spans)
        stages.append({
            "stage": i,
            "spans": spans,
            "busy_s": busy,
            "idle_fraction": 1.0 - busy / total if total > 0 else 0.0,
        })
    return {"stages": stages, "total_s": total, "g_inter": g_inter,
            "microbatches": microbatches}


def fig1_claims(occupancy: Dict[str, object]) -> Dict[str, bool]:
    """The warm-up / drain bubble exists and is bounded."""
    idle = max(st["idle_fraction"] for st in occupancy["stages"])
    return {"bubble_bounded_5_to_60pct": 0.05 < idle < 0.6}


def render_occupancy(occupancy: Dict[str, object], width: int = 96) -> str:
    """ASCII rendering: one row per stage, ``f``/``b`` per time bin."""
    total = occupancy["total_s"]
    lines = [f"pipeline occupancy over {total:.3f}s "
             f"({occupancy['microbatches']} microbatches, "
             f"G_inter={occupancy['g_inter']}; f=forward, b=backward)"]
    for st in occupancy["stages"]:
        row = ["."] * width
        for span in st["spans"]:
            b0 = min(width - 1, int(span.start / total * width))
            b1 = min(width - 1, max(b0, int(span.end / total * width) - 1))
            ch = "f" if span.name.startswith("fwd") else "b"
            for k in range(b0, b1 + 1):
                row[k] = ch
        lines.append(f"  GPU{st['stage']} |{''.join(row)}| "
                     f"idle {st['idle_fraction'] * 100:4.1f}%")
    return "\n".join(lines)
