"""Experiment drivers: one module per paper table/figure, plus ablations.

Every experiment exposes a ``*_rows`` (or ``*_curves``/``*_profile``)
function returning plain dict rows, and a ``*_claims`` function that
evaluates the paper's qualitative claims on those rows — the same code path
is used by the test suite and by ``python -m repro``.

Index (see DESIGN.md for the full mapping):

* Fig. 3 / Fig. 4 — :mod:`.microbench`
* Fig. 5 — :mod:`.ginter_sweep`
* Fig. 6 — :mod:`.memopt_breakdown`
* Fig. 7 — :mod:`.overlap_timeline`
* Fig. 8 — :mod:`.coarsening`
* Fig. 9 / Fig. 11 — :mod:`.scaling`
* Fig. 10 — :mod:`.convergence`
* Table I / Table II — :mod:`.tables`
* extensions — :mod:`.ablations`
* resilience (MTBF x checkpoint interval vs. Young/Daly; the functional
  fault and trace demos) — :mod:`.resilience`
* serving (load sweep, Little's law, replica failover; the functional
  token-equivalence demo) — :mod:`.serving`
* elastic fleet (autoscaling, disaggregation, SLOs; the functional
  disaggregation and elasticity demos) — :mod:`.fleet`
"""

from .ablations import (
    backend_ablation,
    backend_claims,
    bucket_size_ablation,
    full_grid_claims,
    full_grid_validation,
    jitter_claims,
    pipeline_limit_ablation,
    pipeline_limit_claims,
    placement_ablation,
    schedule_ablation,
    scheduling_jitter_ablation,
)
from .coarsening import DEFAULT_K_VALUES, fig8_claims, fig8_rows
from .convergence import (VALIDATION_CONFIG, fig10_claims, fig10_curves,
                          replay_winner)
from .ginter_sweep import PAPER_G_INTER_VALUES, fig5_claims, fig5_rows
from .memopt_breakdown import fig6_claims, fig6_rows, memory_savings_summary
from .microbench import fig3_claims, fig3_rows, fig4_claims, fig4_rows
from .overlap_timeline import fig7_claims, fig7_profile
from .pipeline_diagram import fig1_claims, pipeline_occupancy, \
    render_occupancy
from .scaling import (
    MODEL_GPUS,
    PAPER_TABLE2,
    Table2Row,
    best_4d_decompositions,
    fig9_claims,
    fig11_claims,
    table2_row,
    make_axonn_config,
    make_baseline_config,
    strong_scaling_rows,
    sweep_4d,
    weak_scaling_rows,
)
from .fleet import (
    AUTOSCALE_SLO_S,
    autoscale_serving_model,
    autoscaling_rows,
    disagg_rows,
    disagg_serving_model,
    fleet_claims,
    fleet_failover,
    fleet_functional,
    fleet_report,
)
from .resilience import (
    demo_plan,
    demo_training,
    faults_runtime,
    resilience_claims,
    resilience_report,
    resilience_rows,
    trace_runtime,
    trace_sim,
)
from .serving import (
    demo_serving,
    serve_functional,
    serving_claims,
    serving_closed_loop,
    serving_failover,
    serving_model,
    serving_report,
    serving_rows,
)
from .tables import table1_claims, table1_rows, table2_claims, table2_rows

__all__ = [
    "backend_ablation",
    "backend_claims",
    "bucket_size_ablation",
    "full_grid_claims",
    "full_grid_validation",
    "jitter_claims",
    "scheduling_jitter_ablation",
    "pipeline_limit_ablation",
    "pipeline_limit_claims",
    "placement_ablation",
    "schedule_ablation",
    "DEFAULT_K_VALUES",
    "fig8_claims",
    "fig8_rows",
    "VALIDATION_CONFIG",
    "fig10_claims",
    "fig10_curves",
    "replay_winner",
    "PAPER_G_INTER_VALUES",
    "fig5_claims",
    "fig5_rows",
    "fig6_claims",
    "fig6_rows",
    "memory_savings_summary",
    "fig3_claims",
    "fig3_rows",
    "fig4_claims",
    "fig4_rows",
    "fig7_claims",
    "fig7_profile",
    "fig1_claims",
    "pipeline_occupancy",
    "render_occupancy",
    "MODEL_GPUS",
    "PAPER_TABLE2",
    "Table2Row",
    "fig9_claims",
    "fig11_claims",
    "table2_row",
    "make_axonn_config",
    "make_baseline_config",
    "best_4d_decompositions",
    "strong_scaling_rows",
    "sweep_4d",
    "weak_scaling_rows",
    "resilience_claims",
    "resilience_report",
    "resilience_rows",
    "demo_plan",
    "demo_training",
    "faults_runtime",
    "trace_runtime",
    "trace_sim",
    "AUTOSCALE_SLO_S",
    "autoscale_serving_model",
    "autoscaling_rows",
    "disagg_rows",
    "disagg_serving_model",
    "fleet_claims",
    "fleet_failover",
    "fleet_functional",
    "fleet_report",
    "demo_serving",
    "serve_functional",
    "serving_claims",
    "serving_closed_loop",
    "serving_failover",
    "serving_model",
    "serving_report",
    "serving_rows",
    "table1_claims",
    "table1_rows",
    "table2_claims",
    "table2_rows",
]
