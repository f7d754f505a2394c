"""Experiment: serving load sweep — throughput, tail latency, failover.

The serving twin of the training scaling studies: a V100-calibrated
replicated-pipeline deployment (:class:`~repro.serve.ServingModel`, costs
derived from the Summit GPU spec) is driven by a seeded Poisson request
stream at increasing fractions of the analytic token roofline.  The table
shows the three signatures every serving system exhibits:

* delivered throughput tracks offered load, then saturates near the
  roofline (the bottleneck stage is busy every pass);
* p99 TTFT is flat while the admission queue is empty and diverges once
  offered load crosses the saturation knee;
* the bounded queue rejects (backpressure) only past the knee.

Two companion checks close the loop: a closed-loop run whose measured
concurrency/throughput/sojourn obey Little's law ``L = X * W``, and a
seeded replica-crash plan whose outstanding requests all finish on the
surviving replica (failover re-admission).

The functional side, :func:`serve_functional`, runs the real
:class:`~repro.serve.PipelineServer` on :func:`demo_serving`'s small
decoder and checks every token stream against serial ``generate``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GPT, GPTConfig, generate
from ..resilience import Fault, FaultPlan
from ..serve import (ArrivalSpec, PipelineServer, Request, RequestSpec,
                     ServingModel, make_requests, simulate_closed_loop,
                     simulate_serving, sweep_offered_load)

__all__ = ["serving_model", "serving_rows", "serving_closed_loop",
           "serving_failover", "serving_claims", "serving_report",
           "demo_serving", "serve_functional", "SERVED_MODEL_CFG"]

#: The deployment the experiment models: a GPT-2.7B-class decoder served
#: on one Summit node per replica (pipeline depth 4).
SERVED_MODEL_CFG = GPTConfig(vocab_size=51200, seq_len=2048, n_layer=32,
                             n_head=32, hidden=2560)

#: Offered load as fractions of the analytic token roofline.
_LOAD_FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

_SERVE_SEQ_LEN = 256  #: admission clip for synthetic request sizes


def serving_model(n_replicas: int = 2, g_inter: int = 4,
                  max_batch: int = 8) -> ServingModel:
    """The swept deployment, costs derived from the V100 spec."""
    return ServingModel.from_cluster(SERVED_MODEL_CFG,
                                     n_replicas=n_replicas,
                                     g_inter=g_inter, max_batch=max_batch)


def _request_spec(seed: int) -> RequestSpec:
    return RequestSpec(mean_prompt=32, mean_new_tokens=16, seed=seed)


def serving_rows(fast: bool = False, *, seed: int = 0,
                 loads: Optional[Sequence[float]] = None
                 ) -> List[Dict[str, float]]:
    """The load-sweep table (one row per offered-load fraction)."""
    model = serving_model()
    horizon = 20.0 if fast else 60.0
    return sweep_offered_load(
        model, list(loads or _LOAD_FRACTIONS), horizon_s=horizon,
        request_spec=_request_spec(seed), seq_len=_SERVE_SEQ_LEN, seed=seed)


def serving_closed_loop(fast: bool = False, *,
                        seed: int = 0) -> Dict[str, float]:
    """Closed-loop Little's-law check: L vs X*W."""
    model = serving_model()
    n_clients = 3 * model.n_replicas * model.effective_max_active
    stats = simulate_closed_loop(model, n_clients=n_clients,
                                 horizon_s=20.0 if fast else 60.0,
                                 request_spec=_request_spec(seed),
                                 seq_len=_SERVE_SEQ_LEN)
    L = stats.mean_concurrency
    XW = stats.throughput_req_s * stats.mean_sojourn_s
    return {
        "n_clients": float(n_clients),
        "mean_concurrency_L": L,
        "throughput_X_req_s": stats.throughput_req_s,
        "mean_sojourn_W_s": stats.mean_sojourn_s,
        "X_times_W": XW,
        "littles_law_rel_err": abs(L - XW) / L if L else 1.0,
    }


def serving_failover(fast: bool = False, *,
                     seed: int = 0) -> Dict[str, float]:
    """Seeded replica crash mid-run; all admitted requests must finish."""
    model = serving_model()
    spec = _request_spec(seed)
    horizon = 20.0 if fast else 60.0
    roofline = model.token_roofline_tok_s(spec.mean_prompt,
                                          spec.mean_new_tokens)
    # 60% of roofline keeps both replicas busy so the crash at mid-run
    # orphans live requests (queued + KV-resident + in the pipeline).
    rate = 0.6 * roofline / spec.mean_new_tokens
    plan = FaultPlan.of(Fault(kind="crash", rank=0,
                              tick=int(horizon // 2)))
    stats = simulate_serving(model, ArrivalSpec(rate_per_s=rate, seed=seed),
                             horizon, request_spec=spec,
                             seq_len=_SERVE_SEQ_LEN, plan=plan)
    return {
        "crash_replica": 0.0,
        "crash_at_s": float(int(horizon // 2)),
        "arrived": float(stats.n_arrived),
        "admitted": float(stats.n_admitted),
        "completed": float(stats.n_completed),
        "restarted": float(stats.n_restarts),
        "rejected": float(stats.n_rejected),
        "rejected_backpressure": float(stats.n_rejected_backpressure),
        "rejected_down": float(stats.n_rejected_down),
        "lost": float(stats.n_admitted - stats.n_completed),
    }


def serving_claims(rows: List[Dict[str, float]],
                   closed: Optional[Dict[str, float]] = None,
                   failover: Optional[Dict[str, float]] = None
                   ) -> Dict[str, bool]:
    """The acceptance checklist over the sweep (+ optional companions)."""
    roofline = rows[0]["roofline_tok_s"]
    peak = max(r["throughput_tok_s"] for r in rows)
    claims = {
        "throughput saturates near the analytic roofline (>= 70%)":
            0.70 * roofline <= peak <= 1.02 * roofline,
        "throughput flat past saturation (last row within 5% of peak)":
            rows[-1]["throughput_tok_s"] >= 0.95 * peak,
        "p99 TTFT diverges past saturation (>= 5x the light-load p99)":
            rows[-1]["ttft_p99_ms"] >= 5.0 * rows[0]["ttft_p99_ms"],
        "backpressure engages only past the knee (no light-load rejects)":
            rows[0]["rejected"] == 0 and rows[-1]["rejected"] > 0,
    }
    if closed is not None:
        claims["closed-loop concurrency obeys Little's law within 5%"] = \
            closed["littles_law_rel_err"] < 0.05
    if failover is not None:
        claims["replica crash orphans live requests (failover exercised)"] \
            = failover["restarted"] > 0
        claims["every admitted request eventually served after failover"] \
            = failover["lost"] == 0
    return claims


def serving_report(fast: bool = False, *, seed: int = 0) -> Dict[str, object]:
    """Everything the CLI/tests need in one call."""
    rows = serving_rows(fast, seed=seed)
    closed = serving_closed_loop(fast, seed=seed)
    failover = serving_failover(fast, seed=seed)
    return {
        "rows": rows,
        "closed_loop": closed,
        "failover": failover,
        "claims": serving_claims(rows, closed, failover),
    }


# -- functional demo: the pipeline server vs serial generate ------------------

def demo_serving(seed: int) -> Tuple[GPTConfig, RequestSpec,
                                     Callable[[Request], np.ndarray]]:
    """The functional serving scenario ``repro serve`` and ``repro fleet``
    check: a small decoder, its seeded request spec, and the serial
    ``generate`` oracle every served token stream must equal."""
    cfg = GPTConfig(vocab_size=61, seq_len=48, n_layer=4, n_head=2,
                    hidden=16)
    spec = RequestSpec(mean_prompt=6, mean_new_tokens=6, seed=seed)
    model = GPT(cfg)  # same (init_seed, slot) weights as the stage shards

    def serial(req: Request) -> np.ndarray:
        return generate(model, req.prompt, req.max_new_tokens,
                        temperature=req.temperature, top_k=req.top_k,
                        rng=np.random.default_rng(req.seed),
                        greedy=req.greedy)

    return cfg, spec, serial


def serve_functional(fast: bool, seed: int) -> Dict:
    """Token-equivalence demo: PipelineServer vs serial ``generate``, with
    and without continuous batching."""
    cfg, spec, serial = demo_serving(seed)
    requests = make_requests(cfg, 6 if fast else 12, spec)
    expected = {req.rid: serial(req) for req in requests}
    batched = PipelineServer(cfg, g_inter=3, max_batch=4).serve(requests)
    sequential = PipelineServer(cfg, g_inter=3, max_batch=1,
                                max_active=1).serve(requests)
    rows = [{
        "rid": req.rid, "prompt": int(np.asarray(req.prompt).size),
        "new_tokens": req.max_new_tokens,
        "sampling": "greedy" if req.greedy else
        f"T={req.temperature:.2f}" + (f",k={req.top_k}" if req.top_k else ""),
        "batched_identical": bool(np.array_equal(batched[req.rid],
                                                 expected[req.rid])),
        "sequential_identical": bool(np.array_equal(sequential[req.rid],
                                                    expected[req.rid])),
    } for req in requests]
    return {
        "rows": rows,
        "passed": all(r["batched_identical"] and r["sequential_identical"]
                      for r in rows),
    }
