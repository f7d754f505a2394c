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

Each figure/table command prints the figure's rows as an aligned table
plus the paper-claim checklist, and every command exits non-zero when a
claim fails.  ``COMMANDS`` is the one table of what can run: argparse's
choices, ``list`` (each command's docstring summary) and the dispatch in
:func:`main` all read it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import experiments as ex
from .nn import GPTConfig
from .obs import summarize, write_chrome_trace
from .resilience import FaultPlan
from .runtime import AxoNNTrainer
from .sched import SCHEDULE_NAMES, build_schedule
from .sched.metrics import critical_path, peak_resident_activations
from .sched.search import search_schedules

__all__ = ["main", "EXPERIMENTS", "COMMANDS"]


def _columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Every key of ``rows``, in first-seen order."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _format_rows(title: str, rows: Sequence[Dict[str, object]]) -> str:
    if not rows:
        return f"\n== {title} ==\n(no rows)\n"
    columns = _columns(rows)

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
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_columns(rows))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {csv_path}")
    return ok


#: one half of a two-substrate command: prints its part, returns
#: (passed, the part's entry in the --report JSON)
_Half = Callable[[argparse.Namespace], Tuple[bool, object]]


def _on_substrates(args, report_name: Optional[str],
                   **halves: _Half) -> bool:
    """Run the ``--substrate`` halves (``both``: every half, in the order
    given); with a ``report_name``, write their parts as the ``--report``
    JSON."""
    report: Dict[str, object] = {}
    ok = True
    for substrate, half in halves.items():
        if args.substrate in (substrate, "both"):
            passed, report[substrate] = half(args)
            ok = passed and ok
    if report_name and args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"\nwrote {report_name} report to {args.report}")
    return ok


# -- commands -----------------------------------------------------------------

def cmd_fig1(args) -> bool:
    """Fig. 1: pipeline occupancy of one traced pass."""
    occ = ex.pipeline_occupancy(g_inter=4,
                                microbatches=4 if args.fast else 8)
    print("\n== Fig. 1: inter-layer parallelism occupancy ==")
    print(ex.render_occupancy(occ))
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


# -- two-substrate tools: trace, faults, serve, fleet -------------------------

def _trace(substrate: str, run: Callable, args) -> Tuple[bool, None]:
    out = args.out
    if args.substrate == "both":
        stem, dot, ext = out.rpartition(".")
        out = f"{stem}-{substrate}.{ext}" if dot else f"{out}-{substrate}"
    spans = run(args.fast, args.faults)
    print(summarize(spans, title=f"{substrate} substrate"))
    write_chrome_trace(out, spans)
    print(f"wrote {len(spans)} spans to {out} "
          f"(open in Perfetto / chrome://tracing)\n")
    return True, None


def cmd_trace(args) -> bool:
    """Chrome-trace of a small scenario (--substrate, --out, --faults).

    Runs a small 2x2 hybrid scenario with the observability layer enabled
    and writes a Chrome-trace JSON (open in Perfetto or chrome://tracing).
    """
    return _on_substrates(args, None,
                          sim=partial(_trace, "sim", ex.trace_sim),
                          runtime=partial(_trace, "runtime",
                                          ex.trace_runtime))


def _faults_runtime(args) -> Tuple[bool, Dict]:
    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        plan = ex.demo_plan(args.seed, crash_only=True)
    result = ex.faults_runtime(args.fast, plan)
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
    return result["passed"], result


def _faults_sim(args) -> Tuple[bool, Dict]:
    models = ("12B", "100B") if args.fast else None
    kwargs = dict(seeds=(0, 1)) if args.fast else {}
    rows = ex.resilience_rows(models, **kwargs)
    claims = ex.resilience_claims(rows)
    flat = [{k: v for k, v in r.items() if k != "sweep"} for r in rows]
    ok = _emit("faults: MTBF x checkpoint interval vs Young/Daly",
               flat, {k: v for k, v in claims.items()
                      if isinstance(v, bool)}, args.csv)
    return ok, {"rows": rows, "claims": claims}


def cmd_faults(args) -> bool:
    """Deterministic fault injection on either substrate (--substrate,
    --plan, --seed, --report).

    On the functional runtime it crashes ranks mid-batch and checks that
    the recovered loss trajectory is bit-identical to a fault-free run; on
    the DES it sweeps MTBF x checkpoint interval against the Young/Daly
    optimum.
    """
    return _on_substrates(args, "fault", runtime=_faults_runtime,
                          sim=_faults_sim)


def _serve_runtime(args) -> Tuple[bool, Dict]:
    result = ex.serve_functional(args.fast, args.seed or 0)
    _emit("serve: pipeline server vs serial generate "
          "(3-stage pipeline, continuous batching on/off)",
          result["rows"], None, None)
    print("\n== serve: functional equivalence ==")
    print(f"  [{'PASS' if result['passed'] else 'FAIL'}] pipeline "
          "serving is token-for-token identical to serial generate "
          "(greedy + seeded sampling, with and without batching)")
    return result["passed"], result


def _serve_sim(args) -> Tuple[bool, Dict]:
    report = ex.serving_report(args.fast, seed=args.seed or 0)
    _emit("serve: throughput vs offered load "
          "(DES, V100-calibrated 2-replica pipeline)",
          report["rows"], None, args.csv)
    _emit("serve: closed-loop Little's law", [report["closed_loop"]],
          None, None)
    ok = _emit("serve: replica failover under a seeded crash",
               [report["failover"]], report["claims"], None)
    return ok, report


def cmd_serve(args) -> bool:
    """Pipeline inference serving on either substrate (--substrate, --fast,
    --csv, --seed, --report).

    On the functional runtime it checks that the continuous-batching
    pipeline server emits token-for-token what serial ``generate`` emits;
    on the DES it sweeps offered load against the analytic roofline, checks
    Little's law in a closed loop and replays a replica-crash failover.
    """
    return _on_substrates(args, "serving", runtime=_serve_runtime,
                          sim=_serve_sim)


def _fleet_runtime(args) -> Tuple[bool, Dict]:
    result = ex.fleet_functional(args.fast, args.seed or 0)
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
    return result["passed"], result


def _fleet_sim(args) -> Tuple[bool, Dict]:
    report = ex.fleet_report(args.fast, seed=args.seed or 0)
    _emit("fleet: autoscaling economics under diurnal traffic "
          "(DES, static vs reactive vs predictive)",
          report["autoscaling"], None, args.csv)
    _emit("fleet: prefill/decode disaggregation at equal hardware "
          "(8 replicas, decode-heavy mix)", report["disaggregation"],
          None, None)
    ok = _emit("fleet: crash + planned retire on the shared "
               "decommission path", [report["failover"]],
               report["claims"], None)
    return ok, report


def cmd_fleet(args) -> bool:
    """Elastic serving fleet: autoscaling, prefill/decode disaggregation,
    SLO admission (--substrate, --fast, --csv, --seed, --report).

    Functional disaggregation + scaling demos, plus the DES
    autoscaling-economics, disaggregation and shared-path failover
    scenarios with their acceptance claims.
    """
    return _on_substrates(args, "fleet", runtime=_fleet_runtime,
                          sim=_fleet_sim)


# -- single-substrate tools ---------------------------------------------------

def cmd_train(args) -> bool:
    """Real training steps on an execution backend (--backend, --ranks,
    --g-intra, --steps, --fast).

    One pipeline stage per rank.  With ``--backend process`` each rank is
    an OS process exchanging ndarray activations over shared-memory rings,
    and the losses are cross-checked bit-for-bit against the in-process
    cooperative backend.
    """
    ranks = args.ranks
    g_intra = args.g_intra
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
        # every backward replay its segment's dropout draws.
        trainer = AxoNNTrainer(cfg, g_inter=ranks, g_data=1,
                               g_intra=g_intra,
                               microbatch_size=2, backend=backend,
                               checkpoint_activations=True)
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
    """DES sweep of 4D decompositions per cluster size (--fast, --models,
    --csv).

    For each cluster size, simulate every ``g_intra x g_inter x g_data``
    split and report the fastest feasible one.
    """
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
    """Pre-run communication model checker + race-detector self-check
    (--fast).

    Extracts the communication skeleton of every built-in rank-program
    variant (AxoNN, 1F1B, GPipe, serving) and model-checks all
    interleavings for deadlock-freedom, complete matching and
    collective-order consistency; proves the seeded deadlock mutant is
    caught with a wait-for-graph counterexample and the full-group mutant
    refuted; and self-checks the shared-memory race detector on synthetic
    ring traffic plus its torn-write mutant.
    """
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
    """Pipeline schedules as data: list IR builders, search in the DES,
    replay the winner (--list, --search, --replay, --ranks,
    --microbatches).

    Lists the shipped IR schedules with their analytic bubble/memory
    metrics, searches orderings in the DES under compute jitter
    (--search), and replays the winner on the functional substrate with
    loss equivalence as the acceptance oracle (--replay).
    """
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
        report = ex.replay_winner(winner)
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


def cmd_all(args) -> bool:
    """Run every experiment."""
    ok = True
    for name in sorted(EXPERIMENTS):
        ok = EXPERIMENTS[name](args) and ok
    return ok


def cmd_list(args) -> bool:
    """Describe every command: its docstring's summary paragraph."""
    for name, command in COMMANDS.items():
        summary = " ".join(command.__doc__.split("\n\n")[0].split())
        print(f"  {name:<10} {summary}")
    return True


def cmd_lint(args) -> bool:
    """Repo-specific AST lint, rules REP001-REP012 (--json)."""
    from .analysis.lint import main as lint_main
    return lint_main(["--json"] if args.json else []) == 0


#: every command: the experiments ``all`` runs, then the tools
COMMANDS: Dict[str, Callable] = {
    **EXPERIMENTS, "all": cmd_all, "list": cmd_list, "lint": cmd_lint,
    "trace": cmd_trace, "faults": cmd_faults, "serve": cmd_serve,
    "fleet": cmd_fleet, "train": cmd_train, "verify": cmd_verify,
    "sched": cmd_sched, "scaling4d": cmd_scaling4d,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the AxoNN paper's tables and figures.")
    parser.add_argument("experiment", choices=list(COMMANDS),
                        help="the command to run ('list' describes each)")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes for a quick look")
    parser.add_argument("--models", nargs="+", default=None,
                        choices=["12B", "24B", "50B", "100B"],
                        help="restrict fig9/table2 to these models "
                             "(scaling4d sweeps only the first)")
    parser.add_argument("--csv", default=None,
                        help="also write the rows to this CSV file")
    parser.add_argument("--substrate", default="both",
                        choices=["sim", "runtime", "both"],
                        help="which substrate 'trace', 'faults', 'serve' "
                             "and 'fleet' run on")
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
                        help="'faults': generate the plan with "
                             "FaultPlan.random(seed) instead; 'serve' and "
                             "'fleet': the workload seed (default 0)")
    parser.add_argument("--report", default=None,
                        help="write the 'faults', 'serve' or 'fleet' "
                             "results as a JSON report")
    parser.add_argument("--backend", default="cooperative",
                        choices=["cooperative", "process"],
                        help="execution backend for 'train': the "
                             "in-process cooperative scheduler or real "
                             "worker processes over shared-memory rings")
    parser.add_argument("--ranks", type=_positive_int, default=2,
                        help="pipeline depth: 'train' runs g_inter=ranks, "
                             "g_data=1 (one pipeline stage per rank); "
                             "'sched' builds schedules of this many stages")
    parser.add_argument("--g-intra", type=_positive_int, default=1,
                        dest="g_intra",
                        help="tensor-parallel degree for 'train': each "
                             "stage's layers are sharded across g_intra "
                             "ranks (world size = ranks * g_intra)")
    parser.add_argument("--steps", type=_positive_int, default=None,
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
    parser.add_argument("--microbatches", type=_positive_int, default=4,
                        help="microbatch count for 'sched' (default 4)")
    args = parser.parse_args(argv)
    return 0 if COMMANDS[args.experiment](args) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
