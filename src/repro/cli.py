"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig3                 # p2p microbenchmark
    python -m repro fig9 --models 12B    # weak scaling, one model
    python -m repro all --fast           # everything, reduced sizes
    python -m repro fig9 --csv out.csv   # also write the rows as CSV
    python -m repro lint                 # repo-specific AST lint over repro
    python -m repro lint --json          # same, JSON output for CI
    python -m repro trace                # Chrome-trace both substrates
    python -m repro trace --substrate sim --out sim.json
    python -m repro trace --faults       # same scenarios under a fault plan
    python -m repro faults               # fault injection on both substrates
    python -m repro faults --substrate sim --report faults.json
    python -m repro faults --substrate runtime --seed 3
    python -m repro serve                # inference serving, both substrates
    python -m repro serve --fast         # reduced sizes / shorter horizons
    python -m repro serve --substrate sim --csv sweep.csv
    python -m repro train --backend process --ranks 4
    python -m repro train --backend cooperative --ranks 2 --steps 5
    python -m repro train --ranks 2 --g-intra 2   # 4D: tensor-parallel axis
    python -m repro verify               # model-check all comm skeletons
    python -m repro verify --fast        # smaller config sweep (CI)
    python -m repro scaling4d            # best 4D decomposition per cluster

Each command prints the figure's rows as an aligned table plus the paper-
claim checklist, and exits non-zero when a claim fails.  ``trace``
runs a small 2x2 hybrid scenario with the observability layer enabled and
writes a Chrome-trace JSON (open in Perfetto or chrome://tracing).
``faults`` runs a deterministic fault plan: on the functional runtime it
crashes ranks mid-batch and checks the recovered loss trajectory is
bit-identical to a fault-free run; on the DES it sweeps MTBF x checkpoint
interval against the Young/Daly optimum.  ``serve`` exercises the
inference-serving layer: on the functional runtime it checks the
continuous-batching pipeline server emits token-for-token what serial
``generate`` emits; on the DES it sweeps offered load against the analytic
roofline and replays a replica-crash failover.  ``train`` runs a few real
training steps on either execution backend — the in-process cooperative
scheduler or the multiprocessing + shared-memory ``process`` backend —
with one pipeline stage per rank, and cross-checks the process backend's
losses against the cooperative ones bit-for-bit.  ``verify`` runs the
pre-run static verification layer: it extracts the communication skeleton
of every built-in rank-program variant (AxoNN, 1F1B, GPipe, serving),
model-checks all interleavings for deadlock-freedom / complete matching /
collective-order consistency, proves the seeded deadlock mutant is caught
with a wait-for-graph counterexample, and self-checks the shared-memory
race detector on synthetic ring traffic plus its torn-write mutant.
``sched`` drives the schedules-as-data subsystem: list the shipped IR
schedule builders with their analytic bubble/memory metrics, search
orderings in the DES under compute jitter, and replay the winner on the
functional substrate with loss equivalence as the acceptance oracle.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Callable, Dict, List, Optional, Sequence

from . import experiments as ex

__all__ = ["main", "EXPERIMENTS"]


def _format_rows(title: str, rows: Sequence[Dict[str, object]]) -> str:
    if not rows:
        return f"\n== {title} ==\n(no rows)\n"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in table))
              for i, c in enumerate(columns)]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines = [f"\n== {title} ==", header, "-" * len(header)]
    lines += ["  ".join(v.ljust(w) for v, w in zip(line, widths))
              for line in table]
    return "\n".join(lines)


def _emit(title: str, rows, claims: Optional[Dict[str, bool]],
          csv_path: Optional[str]) -> bool:
    print(_format_rows(title, rows))
    ok = True
    if claims is not None:
        print(f"\n== {title}: paper-claim checklist ==")
        for name, passed in claims.items():
            print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
            ok = ok and passed
    if csv_path:
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {csv_path}")
    return ok


# -- commands -----------------------------------------------------------------

def cmd_fig1(args) -> bool:
    """Fig. 1: pipeline occupancy of one traced pass."""
    from .experiments import pipeline_occupancy, render_occupancy
    occ = pipeline_occupancy(g_inter=4, microbatches=4 if args.fast else 8)
    print("\n== Fig. 1: inter-layer parallelism occupancy ==")
    print(render_occupancy(occ))
    rows = [{"stage": st["stage"], "busy_s": st["busy_s"],
             "idle_fraction": st["idle_fraction"]}
            for st in occ["stages"]]
    return _emit("Fig. 1: per-stage occupancy", rows, ex.fig1_claims(occ),
                 args.csv)


def cmd_fig3(args) -> bool:
    """Fig. 3: point-to-point latency, MPI vs NCCL."""
    sizes = [2 ** e for e in range(10, 27, 4)] if args.fast else None
    rows = ex.fig3_rows(sizes=sizes)
    return _emit("Fig. 3: p2p latency (s)", rows, ex.fig3_claims(rows),
                 args.csv)


def cmd_fig4(args) -> bool:
    """Fig. 4: all-reduce latency vs message size."""
    sizes = [2 ** e for e in range(16, 29, 4)] if args.fast else None
    rows = ex.fig4_rows(sizes=sizes)
    return _emit("Fig. 4: all-reduce latency (s)", rows,
                 ex.fig4_claims(rows), args.csv)


def cmd_fig5(args) -> bool:
    """Fig. 5: inter-layer phase time vs G_inter."""
    batch = 512 if args.fast else 2048
    rows = ex.fig5_rows(batch_size=batch)
    return _emit(f"Fig. 5: inter-layer phase vs G_inter (batch {batch})",
                 rows, ex.fig5_claims(rows), args.csv)


def cmd_fig6(args) -> bool:
    """Fig. 6: batch time with and without the memory optimization."""
    rows = ex.fig6_rows()
    ok = _emit("Fig. 6: batch-time breakdown", rows, ex.fig6_claims(rows),
               args.csv)
    summary = ex.memory_savings_summary()
    print(_format_rows("Section V-B memory accounting",
                       [{k: round(v, 2) for k, v in summary.items()}]))
    return ok


def cmd_fig7(args) -> bool:
    """Fig. 7: all-reduce / optimizer two-stream overlap."""
    profile = ex.fig7_profile(batch_size=96 if args.fast else 512)
    print("\n== Fig. 7: two-stream profile "
          "(a = all-reduce chunk, o = optimizer bucket) ==")
    for line in profile["ascii"].splitlines():
        if "gpu0" in line or line.startswith("timeline"):
            print(line)
    rows = [{
        "allreduce_busy_s": profile["allreduce_busy_s"],
        "optimizer_busy_s": profile["optimizer_busy_s"],
        "overlap_s": profile["overlap_s"],
        "allreduce_chunks": profile["n_allreduce_chunks"],
        "optimizer_buckets": profile["n_optimizer_buckets"],
    }]
    return _emit("Fig. 7: overlap statistics", rows,
                 ex.fig7_claims(profile), args.csv)


def cmd_fig8(args) -> bool:
    """Fig. 8: all-reduce + optimizer time vs coarsening factor k."""
    rows = ex.fig8_rows()
    return _emit("Fig. 8: all-reduce + optimizer vs k", rows,
                 ex.fig8_claims(rows), args.csv)


def cmd_fig9(args) -> bool:
    """Fig. 9: weak scaling, AxoNN vs DeepSpeed vs Megatron-LM."""
    models = tuple(args.models) if args.models else (
        ("12B",) if args.fast else ("12B", "24B", "50B", "100B"))
    rows = ex.weak_scaling_rows(models=models)
    return _emit("Fig. 9: weak scaling", rows, ex.fig9_claims(rows),
                 args.csv)


def cmd_fig10(args) -> bool:
    """Fig. 10: loss curves, serial vs hybrid-parallel training."""
    curves = ex.fig10_curves(n_batches=10 if args.fast else 40)
    rows = [{"batch": i, "serial": s, "axonn": a, "abs_diff": abs(s - a)}
            for i, (s, a) in enumerate(zip(curves["serial"],
                                           curves["axonn"]))]
    return _emit("Fig. 10: loss curves", rows, ex.fig10_claims(curves),
                 args.csv)


def cmd_fig11(args) -> bool:
    """Fig. 11: strong scaling of the 12B model."""
    counts = (48, 96) if args.fast else (48, 96, 192, 384)
    rows = ex.strong_scaling_rows(gpu_counts=counts)
    return _emit("Fig. 11: strong scaling", rows, ex.fig11_claims(rows),
                 args.csv)


def cmd_table1(args) -> bool:
    """Table I: the model zoo."""
    rows = ex.table1_rows()
    return _emit("Table I: model zoo", rows, ex.table1_claims(rows),
                 args.csv)


def cmd_table2(args) -> bool:
    """Table II: tuned hyperparameters per framework."""
    models = tuple(args.models) if args.models else (
        ("12B",) if args.fast else ("12B", "24B", "50B", "100B"))
    rows = ex.table2_rows(models=models)
    return _emit("Table II: tuned hyperparameters", rows,
                 ex.table2_claims(rows), args.csv)


def cmd_ablations(args) -> bool:
    """Design-choice ablations and the full-grid validation."""
    ok = True
    rows = ex.backend_ablation()
    ok &= _emit("Backend ablation", rows, ex.backend_claims(rows), None)
    ok &= _emit("Placement ablation", ex.placement_ablation(), None, None)
    rows = ex.pipeline_limit_ablation()
    ok &= _emit("pipeline_limit ablation", rows,
                ex.pipeline_limit_claims(rows), None)
    ok &= _emit("Schedule ablation", ex.schedule_ablation(), None, None)
    ok &= _emit("Bucket-size ablation", ex.bucket_size_ablation(),
                None, None)
    rows = ex.scheduling_jitter_ablation()
    ok &= _emit("Scheduling-under-jitter ablation", rows,
                ex.jitter_claims(rows), None)
    rows = ex.full_grid_validation()
    ok &= _emit("Full-grid validation", rows, ex.full_grid_claims(rows),
                args.csv)
    return ok


# -- trace: observability over a small scenario -------------------------------

def _trace_sim(fast: bool):
    """One memopt batch on the discrete-event substrate, 2x2 grid."""
    from .cluster import Machine, summit
    from .core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch
    from .obs import from_sim_tracer
    cfg = AxoNNConfig(
        spec=WEAK_SCALING_MODELS["12B"], num_gpus=4, g_inter=2, g_data=2,
        microbatch_size=1, batch_size=8 if fast else 16, memopt=True)
    machine = Machine(spec=summit(1), trace=True)
    simulate_batch(cfg, machine=machine)
    return from_sim_tracer(machine.tracer)


def _trace_runtime(fast: bool):
    """One real-numerics batch on the functional runtime, 2x2 grid."""
    import numpy as np
    from .nn import GPTConfig
    from .obs import RuntimeTracer
    from .runtime import AxoNNTrainer
    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=4, n_head=2,
                    hidden=12, dropout=0.0, init_seed=7)
    tracer = RuntimeTracer()
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2,
                           microbatch_size=2 if fast else 1, tracer=tracer)
    rng = np.random.default_rng(7)
    x = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    y = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    trainer.train_batch(x, y)
    return tracer.spans


def _demo_plan(seed=None, crash_only=False):
    """The fault plan the CLI demos run: seeded-random, or a fixed small
    scenario.  ``crash_only`` restricts it to rank crashes — the faults
    whose recovery is guaranteed bit-identical (drop/delay/straggler
    faults reorder the message-driven execution, which legitimately
    permutes dropout masks and accumulation order)."""
    from .resilience import Fault, FaultPlan
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


def _trace_runtime_faults(fast: bool, plan=None):
    """The runtime trace scenario run under a fault plan: crash, drop and
    straggler faults plus the resulting snapshot/recovery spans."""
    import numpy as np
    from .nn import GPTConfig
    from .obs import RuntimeTracer
    from .resilience import ResilientTrainer
    from .runtime import AxoNNTrainer
    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=4, n_head=2,
                    hidden=12, dropout=0.1, init_seed=7)
    tracer = RuntimeTracer()
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=2,
                           tracer=tracer)
    resilient = ResilientTrainer(trainer, plan or _demo_plan(),
                                 detect_timeout=10)
    rng = np.random.default_rng(7)
    n_batches = 2 if fast else 4
    for _ in range(n_batches):
        x = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        y = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        resilient.train_batch(x, y)
    return tracer.spans, resilient


def _trace_sim_faults(fast: bool):
    """A resilient DES run (checkpoints, failures, restarts) as spans."""
    from .resilience import FailureModel, simulate_resilient_run
    model = FailureModel(step_time_s=30.0, checkpoint_write_s=12.0,
                         restart_s=60.0, mtbf_s=900.0, interval_steps=10,
                         total_steps=60 if fast else 240, seed=0)
    spans = []
    simulate_resilient_run(model, spans=spans)
    return spans


def cmd_trace(args) -> bool:
    """Run a small scenario with tracing; write Chrome-trace JSON."""
    from .obs import summarize, write_chrome_trace
    substrates = ["sim", "runtime"] if args.substrate == "both" \
        else [args.substrate]
    for sub in substrates:
        out = args.out
        if len(substrates) > 1:
            stem, dot, ext = out.rpartition(".")
            out = f"{stem}-{sub}.{ext}" if dot else f"{out}-{sub}"
        if args.faults:
            spans = _trace_sim_faults(args.fast) if sub == "sim" \
                else _trace_runtime_faults(args.fast)[0]
        else:
            spans = _trace_sim(args.fast) if sub == "sim" \
                else _trace_runtime(args.fast)
        print(summarize(spans, title=f"{sub} substrate"))
        write_chrome_trace(out, spans)
        print(f"wrote {len(spans)} spans to {out} "
              f"(open in Perfetto / chrome://tracing)\n")
    return True


# -- faults: deterministic fault injection on either substrate ----------------

def _faults_runtime(args) -> Dict:
    """Run the demo plan on the functional runtime and check that the
    recovered loss trajectory is bit-identical to a fault-free run."""
    import numpy as np
    from .nn import GPTConfig
    from .runtime import AxoNNTrainer
    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=4, n_head=2,
                    hidden=12, dropout=0.1, init_seed=7)
    plan = _demo_plan(args.seed, crash_only=True)
    if args.plan:
        from .resilience import FaultPlan
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())

    rng = np.random.default_rng(7)
    n_batches = 2 if args.fast else 4
    batches = [(rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len)),
                rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len)))
               for _ in range(n_batches)]

    reference = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=2)
    ref_losses = [reference.train_batch(x, y).loss for x, y in batches]

    from .resilience import ResilientTrainer
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=2)
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


def cmd_faults(args) -> bool:
    """Deterministic fault injection: recovery on the runtime, MTBF x
    checkpoint-interval vs. Young/Daly on the DES."""
    import json
    substrates = ["runtime", "sim"] if args.substrate == "both" \
        else [args.substrate]
    report: Dict[str, object] = {}
    ok = True

    if "runtime" in substrates:
        result = _faults_runtime(args)
        report["runtime"] = result
        rows = [{"batch": i, "faulty_loss": a, "reference_loss": b,
                 "bit_identical": a == b}
                for i, (a, b) in enumerate(zip(result["losses"],
                                               result["reference_losses"]))]
        _emit("faults: runtime loss trajectory (faulty vs fault-free)",
              rows, None, None)
        if result["recoveries"]:
            _emit("faults: recoveries", result["recoveries"], None, None)
        print("\n== faults: runtime recovery equivalence ==")
        if result["crash_only_plan"]:
            print(f"  [{'PASS' if result['passed'] else 'FAIL'}] "
                  f"post-recovery losses bit-identical to fault-free run "
                  f"({len(result['recoveries'])} recoveries)")
        else:
            print(f"  [{'PASS' if result['passed'] else 'FAIL'}] "
                  f"completed under delivery faults; max |loss delta| = "
                  f"{result['max_abs_loss_diff']:.2e} "
                  f"({len(result['recoveries'])} recoveries; bit-identity "
                  f"is only guaranteed for crash-only plans)")
        ok = ok and result["passed"]

    if "sim" in substrates:
        from .experiments import resilience_claims, resilience_rows
        models = ("12B", "100B") if args.fast else None
        kwargs = dict(seeds=(0, 1)) if args.fast else {}
        rows = resilience_rows(models, **kwargs)
        claims = resilience_claims(rows)
        report["sim"] = {"rows": rows, "claims": claims}
        flat = [{k: v for k, v in r.items() if k != "sweep"} for r in rows]
        ok = _emit("faults: MTBF x checkpoint interval vs Young/Daly",
                   flat, {k: v for k, v in claims.items()
                          if isinstance(v, bool)}, args.csv) and ok

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"\nwrote fault report to {args.report}")
    return ok


# -- serve: pipeline-parallel inference serving on both substrates ------------

def _serve_functional(fast: bool, seed: int) -> Dict:
    """Token-equivalence demo: PipelineServer vs serial ``generate``, with
    and without continuous batching."""
    import numpy as np

    from .nn import GPT, GPTConfig, generate
    from .serve import PipelineServer, RequestSpec, make_requests

    cfg = GPTConfig(vocab_size=61, seq_len=48, n_layer=4, n_head=2,
                    hidden=16)
    requests = make_requests(cfg, 6 if fast else 12,
                             RequestSpec(mean_prompt=6, mean_new_tokens=6,
                                         seed=seed))
    model = GPT(cfg)  # same (init_seed, slot) weights as the stage shards
    serial = {
        req.rid: generate(model, req.prompt, req.max_new_tokens,
                          temperature=req.temperature, top_k=req.top_k,
                          rng=np.random.default_rng(req.seed),
                          greedy=req.greedy)
        for req in requests
    }
    batched = PipelineServer(cfg, g_inter=3, max_batch=4).serve(requests)
    sequential = PipelineServer(cfg, g_inter=3, max_batch=1,
                                max_active=1).serve(requests)
    rows = [{
        "rid": req.rid, "prompt": int(np.asarray(req.prompt).size),
        "new_tokens": req.max_new_tokens,
        "sampling": "greedy" if req.greedy else
        f"T={req.temperature:.2f}" + (f",k={req.top_k}" if req.top_k else ""),
        "batched_identical": bool(np.array_equal(batched[req.rid],
                                                 serial[req.rid])),
        "sequential_identical": bool(np.array_equal(sequential[req.rid],
                                                    serial[req.rid])),
    } for req in requests]
    return {
        "rows": rows,
        "passed": all(r["batched_identical"] and r["sequential_identical"]
                      for r in rows),
    }


def cmd_serve(args) -> bool:
    """Inference serving: functional token-equivalence check plus the DES
    load sweep, Little's-law closed loop, and replica failover."""
    import json
    substrates = ["runtime", "sim"] if args.substrate == "both" \
        else [args.substrate]
    seed = args.seed if args.seed is not None else 0
    report: Dict[str, object] = {}
    ok = True

    if "runtime" in substrates:
        result = _serve_functional(args.fast, seed)
        report["runtime"] = result
        _emit("serve: pipeline server vs serial generate "
              "(3-stage pipeline, continuous batching on/off)",
              result["rows"], None, None)
        print("\n== serve: functional equivalence ==")
        print(f"  [{'PASS' if result['passed'] else 'FAIL'}] pipeline "
              "serving is token-for-token identical to serial generate "
              "(greedy + seeded sampling, with and without batching)")
        ok = ok and result["passed"]

    if "sim" in substrates:
        from .experiments import (serving_claims, serving_closed_loop,
                                  serving_failover, serving_rows)
        rows = serving_rows(args.fast, seed=seed)
        closed = serving_closed_loop(args.fast, seed=seed)
        failover = serving_failover(args.fast, seed=seed)
        claims = serving_claims(rows, closed, failover)
        report["sim"] = {"rows": rows, "closed_loop": closed,
                         "failover": failover, "claims": claims}
        ok = _emit("serve: throughput vs offered load "
                   "(DES, V100-calibrated 2-replica pipeline)",
                   rows, None, args.csv) and ok
        _emit("serve: closed-loop Little's law", [closed], None, None)
        ok = _emit("serve: replica failover under a seeded crash",
                   [failover], claims, None) and ok

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"\nwrote serving report to {args.report}")
    return ok


# -- fleet: elastic serving fleet on both substrates --------------------------

def _fleet_functional(fast: bool, seed: int) -> Dict:
    """Two live demos over RankTransport: the pipeline server in its
    disaggregated KV-handoff placement emitting serial-identical tokens,
    and a real elastic fleet scaling 1 -> 2 -> 1 under a flash crowd with
    zero lost requests."""
    import numpy as np

    from .fleet import FleetServer, ReactivePolicy
    from .nn import GPT, GPTConfig, generate
    from .serve import (ArrivalSpec, PipelineServer, RequestSpec,
                        make_requests)

    cfg = GPTConfig(vocab_size=61, seq_len=48, n_layer=4, n_head=2,
                    hidden=16)
    spec = RequestSpec(mean_prompt=6, mean_new_tokens=6, seed=seed)
    requests = make_requests(cfg, 8 if fast else 16, spec)
    model = GPT(cfg)  # same (init_seed, slot) weights as the stage shards

    def serial(req):
        return generate(model, req.prompt, req.max_new_tokens,
                        temperature=req.temperature, top_k=req.top_k,
                        rng=np.random.default_rng(req.seed),
                        greedy=req.greedy)

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


def cmd_fleet(args) -> bool:
    """Elastic serving fleet: functional disaggregation + scaling demos,
    plus the DES autoscaling-economics, disaggregation and shared-path
    failover scenarios with their acceptance claims."""
    import json
    substrates = ["runtime", "sim"] if args.substrate == "both" \
        else [args.substrate]
    seed = args.seed if args.seed is not None else 0
    report: Dict[str, object] = {}
    ok = True

    if "runtime" in substrates:
        result = _fleet_functional(args.fast, seed)
        report["runtime"] = result
        _emit("fleet: disaggregated prefill/decode server vs serial "
              "generate (2 prefill + 2 decode ranks)",
              result["disagg_rows"], None, None)
        el = result["elastic"]
        _emit("fleet: elastic 1 -> 2 -> 1 under a flash crowd",
              [{k: v for k, v in el.items() if k != "scale_events"}],
              None, None)
        for t, kind, n_from, n_to in el["scale_events"]:
            print(f"    t={t:5.1f}s  {kind:<5} {n_from} -> {n_to}")
        print("\n== fleet: functional equivalence ==")
        print(f"  [{'PASS' if result['passed'] else 'FAIL'}] KV handoff "
              "and elastic membership changes are invisible in the "
              "tokens: everything matches serial generate, nothing lost")
        ok = ok and result["passed"]

    if "sim" in substrates:
        from .experiments import (autoscaling_rows, disagg_rows,
                                  fleet_claims, fleet_failover)
        auto = autoscaling_rows(args.fast, seed=seed)
        disagg = disagg_rows(args.fast, seed=seed)
        failover = fleet_failover(args.fast, seed=seed)
        claims = fleet_claims(auto, disagg, failover)
        report["sim"] = {"autoscaling": auto, "disaggregation": disagg,
                         "failover": failover, "claims": claims}
        ok = _emit("fleet: autoscaling economics under diurnal traffic "
                   "(DES, static vs reactive vs predictive)",
                   auto, None, args.csv) and ok
        _emit("fleet: prefill/decode disaggregation at equal hardware "
              "(8 replicas, decode-heavy mix)", disagg, None, None)
        ok = _emit("fleet: crash + planned retire on the shared "
                   "decommission path", [failover], claims, None) and ok

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"\nwrote fleet report to {args.report}")
    return ok


# -- train: real training steps on either execution backend -------------------

def cmd_train(args) -> bool:
    """A few real training steps on the chosen execution backend; with
    ``--backend process`` each rank is an OS process exchanging ndarray
    activations over shared-memory rings, and the losses are cross-checked
    bit-for-bit against the in-process cooperative backend."""
    import numpy as np
    from .nn import GPTConfig
    from .runtime import BACKENDS, AxoNNTrainer

    ranks = args.ranks
    if ranks < 1:
        print("--ranks must be >= 1")
        return False
    g_intra = args.g_intra
    if g_intra < 1:
        print("--g-intra must be >= 1")
        return False
    n_layer = max(ranks, 2 if args.fast else 4)
    cfg = GPTConfig(vocab_size=64, seq_len=8 if args.fast else 16,
                    n_layer=n_layer, n_head=2,
                    hidden=16 if args.fast else 32,
                    dropout=0.1, init_seed=7)
    steps = args.steps if args.steps is not None else (2 if args.fast else 4)
    rng = np.random.default_rng(11)
    batch = 2 * max(ranks, 2)
    batches = [(rng.integers(0, cfg.vocab_size, (batch, cfg.seq_len)),
                rng.integers(0, cfg.vocab_size, (batch, cfg.seq_len)))
               for _ in range(steps)]

    def run(backend: str):
        # Dropout is on; checkpointing the activations as well makes
        # every backward replay its segment's dropout draws (the
        # tensor-parallel stage refuses checkpointing).
        trainer = AxoNNTrainer(cfg, g_inter=ranks, g_data=1,
                               g_intra=g_intra,
                               microbatch_size=2, backend=backend,
                               checkpoint_activations=g_intra == 1)
        try:
            return [trainer.train_batch(x, y) for x, y in batches]
        finally:
            trainer.close()

    world = ranks * g_intra
    print(f"\n== train: {steps} steps, {world} rank(s) "
          f"(g_inter={ranks} x g_intra={g_intra}), backend="
          f"{args.backend} ==")
    reports = run(args.backend)
    rows = [{"step": i, "loss": r.loss, "messages": r.messages}
            for i, r in enumerate(reports)]
    _emit(f"train: loss trajectory ({args.backend})", rows, None, args.csv)
    if args.backend not in BACKENDS:  # argparse already guards; belt+braces
        return False
    if args.backend != "process":
        return all(np.isfinite(r.loss) for r in reports)
    reference = run("cooperative")
    identical = [p.loss == c.loss for p, c in zip(reports, reference)]
    print("\n== train: process vs cooperative backend ==")
    print(f"  [{'PASS' if all(identical) else 'FAIL'}] process-backend "
          f"losses bit-identical to the cooperative backend "
          f"({sum(identical)}/{len(identical)} steps)")
    return all(identical)


def cmd_scaling4d(args) -> bool:
    """DES sweep over 4D decompositions: for each cluster size, simulate
    every ``g_intra x g_inter x g_data`` split and report the fastest
    feasible one."""
    sizes = (8, 16) if args.fast else (8, 16, 32, 64)
    model = args.models[0] if args.models else "12B"
    rows = ex.sweep_4d(cluster_sizes=sizes, model=model)
    best = ex.best_4d_decompositions(rows)
    ok = _emit(f"4D sweep: all decompositions ({model})", rows, None,
               args.csv)
    _emit(f"4D sweep: best decomposition per cluster size ({model})",
          best, None, None)
    return ok


def cmd_verify(args) -> bool:
    """Pre-run static verification: model-check every built-in rank
    program's communication skeleton (deadlock-freedom, complete
    matching, collective order) and self-check the shared-memory race
    detector, including both seeded mutants."""
    from .analysis.model import (builtin_models, check_model,
                                 deadlock_mutant_model,
                                 full_group_mutant_model)
    from .analysis.races import (check_races, drop_release,
                                 synthetic_ring_events)

    max_world = 4 if args.fast else 8
    max_mb = 2 if args.fast else 4
    models = builtin_models(max_world=max_world, max_microbatches=max_mb)
    ok = True
    total_states = 0
    print(f"\n== model checker: {len(models)} built-in configurations "
          f"(g_inter*g_data <= {max_world}, microbatches <= {max_mb}) ==")
    for model in models:
        result = check_model(model)
        total_states += result.states
        status = "ok" if result.ok else "FAIL"
        print(f"  [{status}] {model.describe():<40} "
              f"states={result.states}")
        if not result.ok:
            ok = False
            for violation in result.violations:
                print(f"      {violation}")
    print(f"  {total_states} interleaving states explored in total")

    print("\n== seeded deadlock mutant (the checker must catch it) ==")
    mutant = check_model(deadlock_mutant_model())
    if mutant.ok or mutant.counterexample is None:
        print("  [FAIL] the deadlocking mutant was NOT caught")
        ok = False
    else:
        cx = mutant.counterexample
        print(f"  [ok] caught after {mutant.states} states; "
              f"counterexample ({len(cx.trace)} ops):")
        for op in cx.trace:
            print(f"      {op}")
        for line in cx.message.splitlines():
            print(f"      {line}")

    print("\n== seeded full-group mutant: a first stage that awaits "
          "pipeline_limit gradients (the checker must refute it exactly "
          "when m % limit != 0) ==")
    for m in (3, 4):
        result = check_model(full_group_mutant_model(2, m, 2))
        refuted = result.counterexample is not None
        good = refuted == (m % 2 != 0)
        verdict = (f"refuted: rank(s) {result.counterexample.stuck} starve"
                   if refuted else "proved")
        print(f"  [{'ok' if good else 'FAIL'}] m={m}, limit=2: {verdict} "
              f"after {result.states} states")
        ok = ok and good

    print("\n== race detector self-check ==")
    events = synthetic_ring_events()
    clean = check_races(events)
    mutated = check_races(drop_release(events))
    print(f"  [{'ok' if not clean else 'FAIL'}] well-synchronized SPSC "
          f"traffic: {len(clean)} race(s)")
    print(f"  [{'ok' if mutated else 'FAIL'}] torn-write mutant (final "
          f"release dropped): {len(mutated)} race(s)")
    for race in mutated:
        print(f"      {race}")
    if clean or not mutated:
        ok = False

    print(f"\nverify: {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_sched(args) -> bool:
    """Schedules-as-data driver: list the shipped IR schedules with
    their analytic metrics, search orderings in the DES under jitter
    (--search), and replay the winner on the functional substrate with
    the equivalence harness as the acceptance oracle (--replay)."""
    from .sched import SCHEDULE_NAMES, build_schedule
    from .sched.metrics import critical_path, peak_resident_activations
    S = args.ranks
    m = args.microbatches

    do_search = args.search or args.replay
    if args.list or not do_search:
        print(f"\n== shipped schedules as IR ({S} stages, {m} "
              f"microbatches) ==")
        print(f"  {'name':<12} {'tasks':>6} {'chunks':>6} "
              f"{'bubble':>8} {'peak-act':>9}")
        for name in SCHEDULE_NAMES:
            try:
                sched = build_schedule(name, S, m)
            except ValueError as e:
                print(f"  {name:<12} (not buildable here: {e})")
                continue
            cp = critical_path(sched)
            peak = max(peak_resident_activations(sched))
            n_tasks = sum(len(o) for o in sched.rank_order)
            print(f"  {name:<12} {n_tasks:>6} {sched.n_chunks:>6} "
                  f"{cp.bubble_fraction:>8.4f} {peak:>9}")
        if not do_search:
            return True

    from .experiments import replay_winner
    from .sched.search import search_schedules
    print(f"\n== DES schedule search ({S} stages, {m} microbatches, "
          f"jitter sigma=0.1) ==")
    ranked = search_schedules(S, m, n_perturbations=4 if args.fast else 8)
    print(f"  {'rank':>4} {'name':<16} {'makespan':>10} {'bubble':>8} "
          f"{'peak-act-MiB':>12}")
    for pos, r in enumerate(ranked[:8]):
        print(f"  {pos:>4} {r.name:<16} {r.sim.makespan:>10.4f} "
              f"{r.sim.bubble_fraction:>8.4f} "
              f"{r.sim.peak_memory / 2**20:>12.1f}")
    winner = ranked[0].schedule
    if not args.replay:
        return True

    print(f"\n== replaying winner {winner.name!r} on the functional "
          f"substrate ==")
    try:
        report = replay_winner(winner)
    except RuntimeError as e:
        print(f"  [FAIL] {e}")
        return False
    losses = ", ".join(f"{l:.6f}" for l in report["losses"])
    print(f"  [ok] losses match the serial reference: {losses}")
    print(f"  peak resident activations per rank: "
          f"{report['peak_resident_activations']}")
    return True


EXPERIMENTS: Dict[str, Callable] = {
    "fig1": cmd_fig1,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "ablations": cmd_ablations,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the AxoNN paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list", "lint",
                                                       "trace", "faults",
                                                       "serve", "fleet",
                                                       "train",
                                                       "verify",
                                                       "sched",
                                                       "scaling4d"],
                        help="which artefact to regenerate, 'lint' to run "
                             "the repo-specific static analysis, 'trace' "
                             "to emit a Chrome-trace of a small scenario, "
                             "'faults' to run a deterministic fault plan "
                             "against either substrate, 'serve' to "
                             "exercise the inference-serving layer, "
                             "'train' to run real steps on an execution "
                             "backend (--backend, --ranks, --steps), or "
                             "'verify' to model-check every built-in "
                             "communication skeleton pre-run, 'sched' to "
                             "list/search/replay IR pipeline schedules, or "
                             "'scaling4d' to sweep 4D decompositions on "
                             "the DES")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes for a quick look")
    parser.add_argument("--models", nargs="+", default=None,
                        choices=["12B", "24B", "50B", "100B"],
                        help="restrict fig9/table2 to these models")
    parser.add_argument("--csv", default=None,
                        help="also write the rows to this CSV file")
    parser.add_argument("--substrate", default="both",
                        choices=["sim", "runtime", "both"],
                        help="which substrate 'trace' runs on")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome-trace output path for 'trace' "
                             "(suffixed -sim/-runtime when both run)")
    parser.add_argument("--faults", action="store_true",
                        help="run the 'trace' scenarios under a fault plan "
                             "(crash/drop/straggler + recovery spans)")
    parser.add_argument("--json", action="store_true",
                        help="JSON output for 'lint' (CI/tooling)")
    parser.add_argument("--plan", default=None,
                        help="fault-plan JSON file for 'faults' (default: "
                             "a built-in crash/drop/straggler demo plan)")
    parser.add_argument("--seed", type=int, default=None,
                        help="generate the 'faults' plan with "
                             "FaultPlan.random(seed) instead")
    parser.add_argument("--report", default=None,
                        help="write the 'faults' results as a JSON report")
    parser.add_argument("--backend", default="cooperative",
                        choices=["cooperative", "process"],
                        help="execution backend for 'train': the "
                             "in-process cooperative scheduler or real "
                             "worker processes over shared-memory rings")
    parser.add_argument("--ranks", type=int, default=2,
                        help="pipeline depth for 'train' (g_inter=ranks, "
                             "g_data=1: one pipeline stage per rank)")
    parser.add_argument("--g-intra", type=int, default=1, dest="g_intra",
                        help="tensor-parallel degree for 'train': each "
                             "stage's layers are sharded across g_intra "
                             "ranks (world size = ranks * g_intra)")
    parser.add_argument("--steps", type=int, default=None,
                        help="number of 'train' batches (default 4, "
                             "2 with --fast)")
    parser.add_argument("--list", action="store_true",
                        help="'sched': print the shipped IR schedules "
                             "with their analytic metrics")
    parser.add_argument("--search", action="store_true",
                        help="'sched': search schedule orderings in the "
                             "DES under compute jitter")
    parser.add_argument("--replay", action="store_true",
                        help="'sched': replay the search winner on the "
                             "functional substrate (implies --search)")
    parser.add_argument("--microbatches", type=int, default=4,
                        help="microbatch count for 'sched' (default 4)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip()
            print(f"  {name:<10} {doc}")
        print("  all        run every experiment")
        print("  lint       repo-specific AST lint (rules REP001-REP012)")
        print("  trace      Chrome-trace of a small scenario "
              "(--substrate, --out, --faults)")
        print("  faults     deterministic fault injection on either "
              "substrate (--substrate, --plan, --seed, --report)")
        print("  serve      pipeline inference serving on either substrate "
              "(--substrate, --fast, --csv, --report)")
        print("  fleet      elastic serving fleet: autoscaling, "
              "prefill/decode disaggregation, SLO admission "
              "(--substrate, --fast, --csv, --report)")
        print("  train      real training steps on an execution backend "
              "(--backend, --ranks, --steps, --fast)")
        print("  verify     pre-run communication model checker + race-"
              "detector self-check (--fast)")
        print("  sched      pipeline schedules as data: list IR builders, "
              "search in the DES, replay the winner "
              "(--list, --search, --replay, --ranks, --microbatches)")
        print("  scaling4d  DES sweep of 4D decompositions per cluster "
              "size (--fast, --models, --csv)")
        return 0

    if args.experiment == "lint":
        from .analysis.lint import main as lint_main
        return lint_main(["--json"] if args.json else [])

    if args.experiment == "trace":
        return 0 if cmd_trace(args) else 1

    if args.experiment == "faults":
        return 0 if cmd_faults(args) else 1

    if args.experiment == "serve":
        return 0 if cmd_serve(args) else 1

    if args.experiment == "fleet":
        return 0 if cmd_fleet(args) else 1

    if args.experiment == "train":
        return 0 if cmd_train(args) else 1

    if args.experiment == "verify":
        return 0 if cmd_verify(args) else 1

    if args.experiment == "sched":
        return 0 if cmd_sched(args) else 1

    if args.experiment == "scaling4d":
        return 0 if cmd_scaling4d(args) else 1

    targets = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    ok = True
    for name in targets:
        ok = EXPERIMENTS[name](args) and ok
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
