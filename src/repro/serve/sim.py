"""DES twin of the serving engine: replicated pipelines at paper scale.

The functional engine (:mod:`repro.serve.engine`) proves the scheduling is
*correct*; this module measures what the same policy *costs* on Summit-class
hardware, exactly the way :mod:`repro.resilience.sim` is the performance
twin of the recovery machinery.  Each replica is one ``g_inter``-deep
pipeline of FIFO stages.  A stage contends for nothing and charges a
fixed cost per group, so a group's exit has a closed form and costs one
simulation event, not a hand-off per stage (see :class:`_Replica`); a
router with bounded admission queues feeds requests from a seeded
(optionally bursty) Poisson source (:func:`repro.sim.poisson_process` —
the same generator the failure injector uses); replica crashes come from a
:class:`~repro.resilience.FaultPlan` and trigger failover re-admission of
every outstanding request.

Modeled costs follow the repo's calibration idiom: a pipeline group-pass
on one stage costs ``alpha + beta_d * n_decode_items + beta_p *
n_prefill_tokens``, with the betas derivable from the V100 spec via
:meth:`ServingModel.from_cluster`.  The analytic roofline used by the
experiment table falls straight out of this cost model: with saturated
continuous batches of width ``B``, the bottleneck stage emits ``B`` tokens
every ``stage_time(B, 0)`` seconds per replica, discounted by each
request's one-off prefill occupancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..cluster import ClusterSpec, default_calibration, summit
from ..nn import GPTConfig
from ..obs import ObsSpan
from ..resilience import FaultPlan
from ..sim import Environment, Process, poisson_process
from .workload import ArrivalSpec, RequestSpec, request_sizes

__all__ = ["ServingModel", "ServingStats", "simulate_serving",
           "simulate_closed_loop", "sweep_offered_load"]


@dataclass(frozen=True)
class ServingModel:
    """Cost/topology parameters of a replicated serving deployment."""

    n_replicas: int = 2
    g_inter: int = 4               #: pipeline depth of each replica
    stage_alpha_s: float = 1e-3    #: fixed per-group stage overhead
    decode_s_per_item: float = 5e-4  #: per decode token per stage
    prefill_s_per_token: float = 1e-4  #: per prompt token per stage
    max_batch: int = 8             #: decode-group width (per-pass batch)
    pipeline_limit: int = 0        #: in-flight groups (0 -> g_inter)
    max_active: int = 0            #: KV-resident requests per replica
                                   #: (0 -> max_batch * pipeline_limit)
    queue_capacity: int = 64       #: bounded admission queue per replica

    def __post_init__(self):
        if self.n_replicas < 1 or self.g_inter < 1 or self.max_batch < 1:
            raise ValueError("replicas/stages/batch must be >= 1")
        if min(self.stage_alpha_s, self.decode_s_per_item,
               self.prefill_s_per_token) <= 0:
            raise ValueError("all cost coefficients must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.pipeline_limit < 0 or self.max_active < 0:
            raise ValueError("pipeline_limit and max_active must be >= 0 "
                             "(0 derives them)")

    @property
    def effective_pipeline_limit(self) -> int:
        return self.pipeline_limit if self.pipeline_limit > 0 \
            else self.g_inter

    @property
    def effective_max_active(self) -> int:
        """KV slots per replica.  Keeping ``pipeline_limit`` decode
        groups of width ``max_batch`` in flight needs this many resident
        requests; fewer leaves pipeline bubbles between a request's
        consecutive tokens (each token must round-trip all stages before
        the next can start)."""
        return self.max_active if self.max_active > 0 \
            else self.max_batch * self.effective_pipeline_limit

    def stage_time_s(self, n_decode: int, n_prefill_tokens: int) -> float:
        """One group-pass on one stage."""
        return (self.stage_alpha_s + self.decode_s_per_item * n_decode
                + self.prefill_s_per_token * n_prefill_tokens)

    def decode_roofline_tok_s(self) -> float:
        """Decode-only ceiling: saturated batches, prefill ignored."""
        return self.n_replicas * self.max_batch / \
            self.stage_time_s(self.max_batch, 0)

    def token_roofline_tok_s(self, mean_prompt: float,
                             mean_new_tokens: float) -> float:
        """Effective token ceiling for a request mix.

        Bottleneck-stage busy time per request: one prefill group-pass plus
        ``mean_new_tokens`` shares of a width-``max_batch`` decode pass.
        """
        per_req = (self.stage_time_s(0, int(round(mean_prompt)))
                   + mean_new_tokens
                   * self.stage_time_s(self.max_batch, 0) / self.max_batch)
        return self.n_replicas * mean_new_tokens / per_req

    @classmethod
    def from_cluster(cls, cfg: GPTConfig, cluster: Optional[ClusterSpec]
                     = None, n_replicas: int = 2, g_inter: int = 4,
                     max_batch: int = 8, **kw) -> "ServingModel":
        """Derive the cost coefficients from a GPU spec + calibration.

        Decode is bandwidth/overhead bound (tiny GEMMs reading the whole
        shard's weights and KV); prefill amortizes kernel launches over the
        prompt and runs near the calibrated GEMM efficiency.
        """
        cluster = cluster or summit(1)
        cal = default_calibration()
        params_per_stage = 12 * cfg.n_layer * cfg.hidden ** 2 / g_inter
        peak = cluster.node.gpu.peak_half_flops
        # one token through one stage: 2 flops/param at decode-batch
        # granularity (low kernel efficiency) + the weight read from HBM
        flops = 2.0 * params_per_stage
        decode = cal.compute.time(flops, peak) \
            + 2 * params_per_stage / cal.hbm_bandwidth
        prefill = cal.compute.time(flops, peak, work=flops * 64)
        alpha = cal.kernel_launch_overhead * (cfg.n_layer / g_inter + 2) \
            + cal.nccl.p2p_alpha_intra
        return cls(n_replicas=n_replicas, g_inter=g_inter,
                   max_batch=max_batch, stage_alpha_s=alpha,
                   decode_s_per_item=decode, prefill_s_per_token=prefill,
                   **kw)


@dataclass
class ServingStats:
    """Aggregated outcome of one simulated serving run."""

    horizon_s: float
    offered_req_s: float
    n_arrived: int = 0
    n_admitted: int = 0
    #: rejected because every live replica's admission queue was full
    n_rejected_backpressure: int = 0
    #: rejected because no replica was alive at all (whole cluster down)
    n_rejected_down: int = 0
    n_completed: int = 0
    n_restarts: int = 0
    tokens_out: int = 0
    ttft_s: List[float] = field(default_factory=list)
    tpot_s: List[float] = field(default_factory=list)
    sojourn_s: List[float] = field(default_factory=list)
    concurrency_integral: float = 0.0  #: integral of in-system count dt

    @property
    def n_rejected(self) -> int:
        """All front-door rejections.  Backpressure (queues full) and
        whole-cluster-down are distinct failure modes — one means the
        fleet is undersized, the other that it is absent — so they are
        counted separately and summed here for the legacy view."""
        return self.n_rejected_backpressure + self.n_rejected_down

    @property
    def throughput_tok_s(self) -> float:
        return self.tokens_out / self.horizon_s if self.horizon_s else 0.0

    @property
    def throughput_req_s(self) -> float:
        return self.n_completed / self.horizon_s if self.horizon_s else 0.0

    @property
    def mean_concurrency(self) -> float:
        """Time-averaged number of requests in the system (Little's L)."""
        return self.concurrency_integral / self.horizon_s \
            if self.horizon_s else 0.0

    @property
    def mean_sojourn_s(self) -> float:
        return float(np.mean(self.sojourn_s)) if self.sojourn_s else 0.0

    def ttft_percentile(self, q: float) -> float:
        return float(np.percentile(self.ttft_s, q)) if self.ttft_s else 0.0

    @property
    def mean_tpot_s(self) -> float:
        return float(np.mean(self.tpot_s)) if self.tpot_s else 0.0


class _ReqState:
    """One request's lifecycle inside the simulation."""

    __slots__ = ("rid", "arrival_s", "prompt_len", "new_tokens",
                 "tokens_done", "first_token_s", "last_step_s", "finish_s",
                 "restarts", "done_event")

    def __init__(self, rid: int, arrival_s: float, prompt_len: int,
                 new_tokens: int, done_event=None):
        self.rid = rid
        self.arrival_s = arrival_s
        self.prompt_len = prompt_len
        self.new_tokens = new_tokens
        self.tokens_done = 0
        self.first_token_s: Optional[float] = None
        self.last_step_s = arrival_s
        self.finish_s: Optional[float] = None
        self.restarts = 0
        self.done_event = done_event


class _Replica:
    """One pipeline replica: when each stage is next free, plus the
    continuous-batch state.

    A stage holds no shared resource and charges one deterministic cost
    per group, so it is a single FIFO server: a group reaching stage
    ``i`` at ``t`` leaves it at ``max(t, free_at[i]) + cost``.  Dispatch
    (:meth:`_Ledger.start_prefill` / :meth:`_Ledger.start_decode`) runs
    that recurrence through every stage at once and schedules one event,
    the group's exit from the last stage.
    """

    #: what a group's exit event asks before finishing the group
    alive = True

    def __init__(self, env: Environment, model: ServingModel, index: int):
        self.env = env
        self.model = model
        self.index = index
        #: when each stage finishes the last group dispatched to it
        self.free_at = [env.now] * model.g_inter
        self.queue: Deque[_ReqState] = deque()
        self.active: Dict[int, _ReqState] = {}
        self.ready: Deque[_ReqState] = deque()
        self.inflight = 0
        #: processes that die with the replica (a fleet replica's
        #: provisioning timer)
        self.procs: List[Process] = []
        #: rid -> (request, transfer process) while a KV handoff reads
        #: from this replica (fleet, disaggregated prefill pool only)
        self.handoffs: Dict[int, Tuple[_ReqState, Process]] = {}

    @property
    def load(self) -> int:
        return len(self.queue) + len(self.active)

    def outstanding(self) -> List[_ReqState]:
        return list(self.queue) + list(self.active.values()) \
            + [st for st, _ in self.handoffs.values()]

    def kill(self, why: str) -> List[_ReqState]:
        """Interrupt the replica's processes and forget all work; returns
        the orphans, each reset to restart from its prompt (the KV state
        is lost).  Groups in flight need no interrupt: the caller has
        already marked the replica dead, and their exit events check."""
        for proc in self.procs + [p for _, p in self.handoffs.values()]:
            if proc.is_alive:
                proc.interrupt(why)
        orphans = self.outstanding()
        self.queue.clear()
        self.active.clear()
        self.ready.clear()
        self.handoffs.clear()
        self.inflight = 0
        for st in orphans:
            st.restarts += 1
            st.tokens_done = 0
            st.first_token_s = None
        return orphans


class _Ledger:
    """What both cluster models share under their different admission:
    Little's-law bookkeeping, spans, group dispatch onto a replica, and
    the token / latency ledger."""

    def __init__(self, env: Environment, stats: ServingStats,
                 spans: Optional[List[ObsSpan]]):
        self.env = env
        self.stats = stats
        self.spans = spans
        self.in_system = 0
        self._conc_mark = 0.0
        #: groups in flight on any replica, by (exit, last-stage start,
        #: dispatch number); each has one exit event, which pops the first
        self._exits: List[tuple] = []
        self._n_dispatched = 0

    def _track(self, delta: int) -> None:
        now = self.env.now
        self.stats.concurrency_integral += \
            self.in_system * (now - self._conc_mark)
        self._conc_mark = now
        self.in_system += delta

    def _span(self, rank: int, stream: str, name: str, start: float,
              end: float, rid: Optional[int] = None,
              category: str = "compute") -> None:
        if self.spans is not None:
            self.spans.append(ObsSpan(rank, stream, name, start, end,
                                      category=category, microbatch=rid))

    # -- group dispatch ----------------------------------------------------
    def start_prefill(self, rep: _Replica, st: _ReqState) -> None:
        rep.active[st.rid] = st
        st.last_step_s = self.env.now
        self._dispatch(rep, [st], rep.model.stage_time_s(0, st.prompt_len))

    def start_decode(self, rep: _Replica) -> None:
        group = []
        for _ in range(min(len(rep.ready), rep.model.max_batch)):
            group.append(rep.ready.popleft())
        for st in group:
            st.last_step_s = self.env.now
        self._dispatch(rep, group, rep.model.stage_time_s(len(group), 0))

    def _dispatch(self, rep: _Replica, group: List[_ReqState],
                  cost: float) -> None:
        """Send ``group`` through ``rep``'s stages, ``cost`` on each.  A
        stage starts it at ``max(arrival, free)`` and passes it on at
        ``start + cost`` — the float operations a process waiting on the
        stage's inbox would perform — so one event at the exit from the
        last stage replaces two per stage."""
        t = self.env.now
        free_at = rep.free_at
        for i, free in enumerate(free_at):
            start = max(t, free)
            t = free_at[i] = start + cost
        rep.inflight += 1
        heappush(self._exits, (t, start, self._n_dispatched, rep, group))
        self._n_dispatched += 1
        self.env.timeout_at(t).callbacks.append(self._exit_pipeline)

    def _exit_pipeline(self, _event) -> None:
        """Finish the group that leaves its pipeline now, if its replica
        is alive.  Groups leaving different replicas at the same instant
        go in the order their last stages started (then in dispatch
        order), as if each stage were a process that schedules its
        group's hand-off when it starts on it."""
        _exit, _start, _n, rep, group = heappop(self._exits)
        if rep.alive:
            self.finish_group(rep, group)

    # -- token / latency ledger --------------------------------------------
    def emit_token(self, rep: _Replica, st: _ReqState, now: float) -> None:
        st.tokens_done += 1
        self.stats.tokens_out += 1
        if st.tokens_done == 1:
            self.first_token(st, now)
            self._span(rep.index, "serve", "prefill", st.last_step_s, now,
                       st.rid)
        else:
            self._span(rep.index, "serve", f"decode{st.tokens_done - 1}",
                       st.last_step_s, now, st.rid)
        if st.tokens_done >= st.new_tokens:
            self.complete(rep, st, now)
        else:
            rep.ready.append(st)

    def first_token(self, st: _ReqState, now: float) -> None:
        st.first_token_s = now
        self.stats.ttft_s.append(now - st.arrival_s)

    def complete(self, rep: _Replica, st: _ReqState, now: float) -> None:
        st.finish_s = now
        # not resident when the first token was the last and it landed
        # with a KV handoff (fleet, disaggregated)
        rep.active.pop(st.rid, None)
        self.stats.n_completed += 1
        self.stats.sojourn_s.append(now - st.arrival_s)
        if st.new_tokens > 1 and st.first_token_s is not None:
            self.stats.tpot_s.append(
                (now - st.first_token_s) / (st.new_tokens - 1))
        self._track(-1)
        self._span(rep.index, "serve", "request", st.arrival_s, now,
                   st.rid, category="other")
        if st.done_event is not None and not st.done_event.triggered:
            st.done_event.succeed()


class _Cluster(_Ledger):
    """Door routing: each arrival goes to the least-loaded live replica's
    own bounded FIFO queue."""

    def __init__(self, env: Environment, model: ServingModel,
                 stats: ServingStats, spans: Optional[List[ObsSpan]]):
        super().__init__(env, stats, spans)
        self.model = model
        self.replicas = [_Replica(env, model, i)
                         for i in range(model.n_replicas)]

    def flush_concurrency(self) -> None:
        self._track(0)

    # -- admission ---------------------------------------------------------
    def admit(self, st: _ReqState, forced: bool = False) -> bool:
        """Route to the least-loaded live replica; bounded queue unless
        ``forced`` (failover re-admission keeps its admission)."""
        live = [r for r in self.replicas if r.alive]
        if not live:
            if not forced:  # whole cluster down: drop at the front door
                self.stats.n_rejected_down += 1
            return False
        rep = min(live, key=lambda r: (r.load, r.index))
        if not forced:
            if len(rep.queue) >= self.model.queue_capacity:
                self.stats.n_rejected_backpressure += 1
                return False
            self.stats.n_admitted += 1
            self._track(+1)
        rep.queue.append(st)
        self.pump(rep)
        return True

    # -- scheduling --------------------------------------------------------
    def pump(self, rep: _Replica) -> None:
        """Dispatch groups while the pipeline has room (continuous
        batching: prefills join the moment a batch slot is free)."""
        model = self.model
        while rep.alive and rep.inflight < model.effective_pipeline_limit:
            if rep.queue and len(rep.active) < model.effective_max_active:
                self.start_prefill(rep, rep.queue.popleft())
            elif rep.ready:
                self.start_decode(rep)
            else:
                return

    def finish_group(self, rep: _Replica, group: List[_ReqState]) -> None:
        now = self.env.now
        rep.inflight -= 1
        for st in group:
            self.emit_token(rep, st, now)
        self.pump(rep)

    # -- failover ----------------------------------------------------------
    def crash(self, rep: _Replica) -> None:
        """Kill a replica; re-admit every outstanding request elsewhere
        (KV state is lost, so they restart from prefill)."""
        if not rep.alive:
            return
        rep.alive = False
        orphans = rep.kill("replica-crash")
        self.stats.n_restarts += len(orphans)
        for st in orphans:
            if not self.admit(st, forced=True):
                # no live replica left: the request is lost
                self._track(-1)


def _build(env: Environment, model: ServingModel, stats: ServingStats,
           spans: Optional[List[ObsSpan]],
           plan: Optional[FaultPlan]) -> _Cluster:
    cluster = _Cluster(env, model, stats, spans)
    if plan is not None:
        for fault in plan.faults:
            if fault.kind != "crash":
                continue
            rep_idx = fault.rank if fault.rank is not None else 0
            if not 0 <= rep_idx < model.n_replicas:
                raise ValueError(f"crash fault names replica {rep_idx}; "
                                 f"model has {model.n_replicas}")
            at_s = float(fault.tick if fault.tick is not None else 0)

            def _crash_proc(env: Environment, idx: int = rep_idx,
                            t: float = at_s):
                yield env.timeout(t)
                cluster.crash(cluster.replicas[idx])
                cluster._span(idx, "serve", "replica-crash", t, env.now,
                              category="fault")

            env.process(_crash_proc(env),
                        name=f"crash-replica{rep_idx}@{at_s}")
    return cluster


def simulate_serving(model: ServingModel, arrivals: ArrivalSpec,
                     horizon_s: float, request_spec: Optional[RequestSpec]
                     = None, seq_len: int = 64,
                     plan: Optional[FaultPlan] = None,
                     spans: Optional[List[ObsSpan]] = None) -> ServingStats:
    """Open-loop run: seeded Poisson/bursty arrivals for ``horizon_s``
    simulated seconds; returns latency/throughput accounting."""
    spec = request_spec or RequestSpec()
    env = Environment()
    stats = ServingStats(horizon_s=horizon_s,
                         offered_req_s=arrivals.rate_per_s)
    cluster = _build(env, model, stats, spans, plan)
    size_rng = np.random.default_rng(spec.seed + 1)
    next_rid = [0]

    def on_arrival(now: float) -> None:
        stats.n_arrived += 1
        p, m = request_sizes(seq_len, spec, size_rng)
        cluster.admit(_ReqState(next_rid[0], now, p, m))
        next_rid[0] += 1

    env.process(
        poisson_process(env, arrivals.mean_interarrival(),
                        seed=arrivals.seed, on_event=on_arrival,
                        alive=lambda: env.now < horizon_s),
        name="request-arrivals")
    env.run(until=horizon_s)
    # drain what is already in the system so completions are counted
    env.run()
    cluster.flush_concurrency()
    return stats


def simulate_closed_loop(model: ServingModel, n_clients: int,
                         horizon_s: float,
                         request_spec: Optional[RequestSpec] = None,
                         seq_len: int = 64) -> ServingStats:
    """Closed-loop run: ``n_clients`` clients, each keeping exactly one
    request in flight (zero think time) — the textbook setting for
    checking Little's law ``L = X * W``."""
    spec = request_spec or RequestSpec()
    env = Environment()
    stats = ServingStats(horizon_s=horizon_s, offered_req_s=0.0)
    cluster = _build(env, model, stats, None, None)
    size_rng = np.random.default_rng(spec.seed + 2)
    next_rid = [0]

    def _client_proc(env: Environment, cid: int):
        while env.now < horizon_s:
            p, m = request_sizes(seq_len, spec, size_rng)
            done = env.event()
            st = _ReqState(next_rid[0], env.now, p, m, done_event=done)
            next_rid[0] += 1
            stats.n_arrived += 1
            stats.n_admitted += 1
            cluster._track(+1)
            rep = min([r for r in cluster.replicas if r.alive],
                      key=lambda r: (r.load, r.index))
            rep.queue.append(st)
            cluster.pump(rep)
            yield done

    for cid in range(n_clients):
        env.process(_client_proc(env, cid), name=f"client{cid}")
    env.run(until=horizon_s)
    env.run()
    cluster.flush_concurrency()
    return stats


def sweep_offered_load(model: ServingModel, load_fractions: List[float],
                       horizon_s: float = 60.0,
                       request_spec: Optional[RequestSpec] = None,
                       seq_len: int = 64, seed: int = 0,
                       burst_factor: float = 1.0) -> List[Dict[str, float]]:
    """Throughput/latency at each offered load, as fractions of the
    analytic token roofline — the serving experiment's core table."""
    spec = request_spec or RequestSpec()
    roofline = model.token_roofline_tok_s(spec.mean_prompt,
                                          spec.mean_new_tokens)
    rows = []
    for frac in load_fractions:
        req_rate = frac * roofline / spec.mean_new_tokens
        arrivals = ArrivalSpec(rate_per_s=req_rate, seed=seed,
                               burst_factor=burst_factor)
        stats = simulate_serving(model, arrivals, horizon_s,
                                 request_spec=spec, seq_len=seq_len)
        rows.append({
            "load_fraction": frac,
            "offered_tok_s": req_rate * spec.mean_new_tokens,
            "throughput_tok_s": stats.throughput_tok_s,
            "roofline_tok_s": roofline,
            "ttft_p50_ms": stats.ttft_percentile(50) * 1e3,
            "ttft_p99_ms": stats.ttft_percentile(99) * 1e3,
            "tpot_ms": stats.mean_tpot_s * 1e3,
            "completed": float(stats.n_completed),
            "rejected": float(stats.n_rejected),
            "rejected_backpressure": float(stats.n_rejected_backpressure),
            "rejected_down": float(stats.n_rejected_down),
        })
    return rows
