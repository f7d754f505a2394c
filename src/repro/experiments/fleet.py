"""Experiment: elastic-fleet economics — autoscaling, disaggregation, SLOs.

Three pinned DES scenarios back the fleet layer's headline claims:

* **Autoscaling under diurnal traffic** — a 5-replica peak-provisioned
  static fleet vs the reactive (hysteresis + cooldown) and predictive
  (sinusoid-fit) autoscalers on the same seeded diurnal trace.  Both
  elastic policies must hold the interactive p99-TTFT SLO the static
  fleet holds while paying >= 25% fewer replica-seconds.

* **Prefill/decode disaggregation** — at equal hardware (8 replicas) on
  a decode-heavy mix, a 1 prefill + 7 decode split beats the unified
  pool on p99 TTFT: prefills never queue behind wide in-flight decode
  groups, and the deeper prefill admission window hides the pipeline
  bubbles single-prompt groups would otherwise create (see
  :class:`~repro.fleet.FleetModel.prefill_pipeline_limit`).

* **Shared-path failure handling** — a crash and a drain-then-retire in
  one elastic run; every admitted request finishes because both events
  flow through the same decommission/re-admission path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..fleet import (AdmissionController, FleetModel, FleetServer, FleetStats,
                     PredictivePolicy, ReactivePolicy, SLOClass,
                     StaticPolicy, service_rate_per_replica, simulate_fleet)
from ..resilience import Fault, FaultPlan
from ..serve import (ArrivalSpec, PipelineServer, RequestSpec, ServingModel,
                     make_requests)
from .serving import demo_serving

__all__ = ["AUTOSCALE_SLO_S", "autoscale_serving_model",
           "disagg_serving_model", "autoscaling_rows", "disagg_rows",
           "fleet_failover", "fleet_claims", "fleet_report",
           "fleet_functional"]

#: interactive TTFT budget every policy is judged against
AUTOSCALE_SLO_S = 1.0

#: offered load for the diurnal sweep, in units of one replica's mu
_DIURNAL_LOAD_REPLICAS = 1.7

#: offered load for the disaggregation comparison (fraction of 8-replica
#: fleet capacity; past ~0.65 the single prefill replica saturates)
_DISAGG_LOAD = 0.6


def autoscale_serving_model() -> ServingModel:
    """The diurnal scenario's replica shape (4-deep pipeline)."""
    return ServingModel(n_replicas=5, g_inter=4, stage_alpha_s=8e-3,
                        decode_s_per_item=4e-3, prefill_s_per_token=8e-4,
                        max_batch=8)


def disagg_serving_model() -> ServingModel:
    """The disaggregation scenario: wide decode batches make each decode
    pass hold a stage ~4x longer than a prompt pass, which is precisely
    the interference disaggregation removes."""
    return ServingModel(n_replicas=8, g_inter=4, stage_alpha_s=8e-3,
                        decode_s_per_item=4e-3, prefill_s_per_token=8e-4,
                        max_batch=32)


def _autoscale_spec(seed: int) -> RequestSpec:
    return RequestSpec(mean_prompt=8, mean_new_tokens=8, seed=seed)


def _decode_heavy_spec(seed: int) -> RequestSpec:
    return RequestSpec(mean_prompt=32, mean_new_tokens=64, seed=seed)


def _admission() -> AdmissionController:
    return AdmissionController(classes=(
        SLOClass(name="interactive", priority=0,
                 ttft_slo_s=AUTOSCALE_SLO_S, max_wait_s=5.0),))


def _policy_row(name: str, stats: FleetStats) -> Dict[str, float]:
    return {
        "policy": name,
        "replica_seconds": stats.replica_seconds,
        "ttft_p50_ms": stats.ttft_percentile(50) * 1e3,
        "ttft_p99_ms": stats.ttft_percentile(99) * 1e3,
        "tpot_ms": stats.mean_tpot_s * 1e3,
        "slo_attainment": stats.attainment_at(AUTOSCALE_SLO_S),
        "completed": float(stats.n_completed),
        "rejected_backpressure": float(stats.n_rejected_backpressure),
        "rejected_admission": float(stats.n_rejected_admission),
        "rejected_down": float(stats.n_rejected_down),
        "cold_starts": float(stats.n_cold_starts),
        "scale_events": float(len(stats.scale_events)),
        "peak_replicas": float(stats.peak_replicas),
    }


def autoscaling_rows(fast: bool = False, *, seed: int = 0
                     ) -> List[Dict[str, float]]:
    """Static vs reactive vs predictive on the seeded diurnal trace."""
    serving = autoscale_serving_model()
    spec = _autoscale_spec(seed)
    mu = service_rate_per_replica(serving, spec)
    # fast runs one diurnal cycle instead of two; the period itself must
    # stay slow relative to cold start + cooldown or no controller tracks
    horizon = 300.0 if fast else 600.0
    period = 300.0
    arrivals = ArrivalSpec(rate_per_s=_DIURNAL_LOAD_REPLICAS * mu,
                           seed=seed, kind="diurnal",
                           diurnal_period_s=period,
                           diurnal_amplitude=0.8)
    model = FleetModel(serving=serving, cold_start_s=5.0,
                       control_interval_s=1.0, drain_timeout_s=10.0)
    policies = [
        ("static-peak", StaticPolicy(serving.n_replicas)),
        ("reactive", ReactivePolicy(min_replicas=1,
                                    max_replicas=serving.n_replicas,
                                    cooldown_s=5.0)),
        ("predictive", PredictivePolicy(period_s=period, lead_s=10.0,
                                        min_replicas=1,
                                        max_replicas=serving.n_replicas,
                                        target_utilization=0.6)),
    ]
    rows = []
    for name, policy in policies:
        stats = simulate_fleet(model, policy, arrivals, horizon,
                               request_spec=spec, seq_len=64,
                               admission=_admission())
        rows.append(_policy_row(name, stats))
    return rows


def disagg_rows(fast: bool = False, *, seed: int = 0
                ) -> List[Dict[str, float]]:
    """Unified 8-replica pool vs 1 prefill + 7 decode at equal hardware."""
    serving = disagg_serving_model()
    spec = _decode_heavy_spec(seed)
    mu = service_rate_per_replica(serving, spec)
    horizon = 60.0 if fast else 120.0
    arrivals = ArrivalSpec(
        rate_per_s=_DISAGG_LOAD * serving.n_replicas * mu, seed=seed)
    runs = [
        ("unified", FleetModel(serving=serving),
         StaticPolicy(serving.n_replicas)),
        ("disaggregated", FleetModel(serving=serving, disaggregated=True,
                                     n_prefill_replicas=1,
                                     n_decode_replicas=7,
                                     kv_transfer_s_per_token=1e-5),
         StaticPolicy(7)),
    ]
    rows = []
    for name, model, policy in runs:
        stats = simulate_fleet(model, policy, arrivals, horizon,
                               request_spec=spec, seq_len=128,
                               admission=_admission())
        row = _policy_row(name, stats)
        row["throughput_tok_s"] = stats.throughput_tok_s
        row["handoffs"] = float(stats.n_handoffs)
        rows.append(row)
    return rows


def fleet_failover(fast: bool = False, *, seed: int = 0
                   ) -> Dict[str, float]:
    """One crash and one planned retire mid-run on the elastic fleet;
    both flow through the shared decommission path, so nothing is lost."""
    serving = autoscale_serving_model()
    spec = _autoscale_spec(seed)
    mu = service_rate_per_replica(serving, spec)
    horizon = 30.0 if fast else 60.0
    arrivals = ArrivalSpec(rate_per_s=1.2 * mu, seed=seed)
    model = FleetModel(serving=serving, cold_start_s=2.0,
                       control_interval_s=1.0, drain_timeout_s=5.0)
    plan = FaultPlan.of(
        Fault(kind="crash", rank=0, tick=int(horizon // 3)),
        Fault(kind="retire", rank=1, tick=int(2 * horizon // 3)))
    stats = simulate_fleet(model, StaticPolicy(3), arrivals, horizon,
                           request_spec=spec, seq_len=64,
                           admission=_admission(), plan=plan)
    return {
        "crash_at_s": float(int(horizon // 3)),
        "retire_at_s": float(int(2 * horizon // 3)),
        "arrived": float(stats.n_arrived),
        "admitted": float(stats.n_admitted),
        "completed": float(stats.n_completed),
        "restarted": float(stats.n_restarts),
        "crashes": float(stats.n_crashes),
        "retired": float(stats.n_retired),
        "rejected_down": float(stats.n_rejected_down),
        "lost": float(stats.n_admitted - stats.n_completed),
    }


def fleet_claims(auto_rows: List[Dict[str, float]],
                 disagg: Optional[List[Dict[str, float]]] = None,
                 failover: Optional[Dict[str, float]] = None
                 ) -> Dict[str, bool]:
    """The acceptance checklist over the three scenarios."""
    by_policy = {r["policy"]: r for r in auto_rows}
    static = by_policy["static-peak"]
    slo_ms = AUTOSCALE_SLO_S * 1e3
    claims: Dict[str, bool] = {}
    for name in ("reactive", "predictive"):
        row = by_policy[name]
        claims[f"{name} holds the p99 TTFT SLO the static fleet holds"] = \
            row["ttft_p99_ms"] <= slo_ms and static["ttft_p99_ms"] <= slo_ms
        claims[f"{name} pays >= 25% fewer replica-seconds than static"] = \
            row["replica_seconds"] <= 0.75 * static["replica_seconds"]
        claims[f"{name} completes the trace (no rejects, nothing lost)"] = \
            (row["rejected_backpressure"] + row["rejected_admission"]
             + row["rejected_down"] == 0
             and row["completed"] == static["completed"])
    if disagg is not None:
        uni = next(r for r in disagg if r["policy"] == "unified")
        dis = next(r for r in disagg if r["policy"] == "disaggregated")
        claims["disaggregated beats unified p99 TTFT at equal hardware"] = \
            dis["ttft_p99_ms"] < uni["ttft_p99_ms"]
        claims["disaggregation costs no throughput or rejections"] = \
            (dis["throughput_tok_s"] >= 0.99 * uni["throughput_tok_s"]
             and dis["rejected_backpressure"] + dis["rejected_admission"]
             + dis["rejected_down"] == 0)
        claims["equal hardware: same replica-seconds both ways"] = \
            abs(dis["replica_seconds"] - uni["replica_seconds"]) \
            <= 1e-6 * uni["replica_seconds"]
    if failover is not None:
        claims["crash + retire both exercised on the shared path"] = \
            failover["crashes"] >= 1 and failover["retired"] >= 1
        claims["failover re-admits orphans (restarts observed)"] = \
            failover["restarted"] > 0
        claims["every admitted request eventually served"] = \
            failover["lost"] == 0
    return claims


def fleet_report(fast: bool = False, *, seed: int = 0) -> Dict[str, object]:
    """Everything the CLI/tests need in one call."""
    auto_rows = autoscaling_rows(fast, seed=seed)
    disagg = disagg_rows(fast, seed=seed)
    failover = fleet_failover(fast, seed=seed)
    return {
        "autoscaling": auto_rows,
        "disaggregation": disagg,
        "failover": failover,
        "claims": fleet_claims(auto_rows, disagg, failover),
    }


# -- functional demo: disaggregation and elasticity over RankTransport ---------

def fleet_functional(fast: bool, seed: int) -> Dict:
    """Two live demos over RankTransport: the pipeline server in its
    disaggregated KV-handoff placement emitting serial-identical tokens,
    and a real elastic fleet scaling 1 -> 2 -> 1 under a flash crowd with
    zero lost requests."""
    cfg, spec, serial = demo_serving(seed)
    requests = make_requests(cfg, 8 if fast else 16, spec)
    disagg = PipelineServer(cfg, g_inter=2, g_prefill=2,
                            max_batch=4).serve(requests)
    disagg_rows = [{
        "rid": req.rid, "prompt": int(np.asarray(req.prompt).size),
        "new_tokens": req.max_new_tokens,
        "identical": bool(np.array_equal(disagg[req.rid], serial(req))),
    } for req in requests]

    # a flash crowd at t=2s forces the reactive policy up, the decay back
    # down: every request must come back serial-identical even though the
    # fleet membership changed underneath them
    n_elastic = 30
    elastic_reqs = make_requests(cfg, n_elastic, spec)
    times = ArrivalSpec(rate_per_s=1.0, seed=5, kind="flash",
                        flash_at_s=2.0, flash_factor=15.0) \
        .sample_times(horizon_s=12.0)
    trace = list(zip(times, elastic_reqs))[:n_elastic]
    fleet = FleetServer(cfg, ReactivePolicy(min_replicas=1, max_replicas=2,
                                            cooldown_s=2.0),
                        g_inter=2, max_batch=4, serve_per_round=2)
    report = fleet.run(trace)
    elastic_identical = all(
        np.array_equal(report.results[req.rid], serial(req))
        for _, req in trace if req.rid in report.results)
    kinds = [e.kind for e in report.events]
    return {
        "disagg_rows": disagg_rows,
        "elastic": {
            "requests": len(trace),
            "admitted": report.n_admitted,
            "completed": report.n_completed,
            "lost": report.n_lost,
            "rounds": report.rounds,
            "replica_rounds": report.replica_rounds,
            "max_replicas": report.max_replicas_seen,
            "scale_events": [(e.t_s, e.kind, e.n_from, e.n_to)
                             for e in report.events],
            "token_identical": elastic_identical,
        },
        "passed": (all(r["identical"] for r in disagg_rows)
                   and elastic_identical and report.n_lost == 0
                   and "up" in kinds and "down" in kinds),
    }
