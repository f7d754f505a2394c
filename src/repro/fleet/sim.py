"""DES twin of the elastic fleet: autoscaling economics at paper scale.

:mod:`repro.fleet.engine` proves the elastic machinery is *correct*
(token-identical serving, shared retire/crash path); this module measures
what a policy *costs*: replica-seconds paid versus p99 TTFT delivered
under diurnal and flash-crowd traffic, with cold starts, drains, SLO-aware
admission, priority scheduling, and optionally disaggregated
prefill/decode pools.

Deltas from :mod:`repro.serve.sim` (whose per-stage cost model — via
:class:`~repro.serve.ServingModel` — replica record and token / latency
ledger are reused unchanged: ``_FleetReplica`` extends its ``_Replica``,
``_Fleet`` its ``_Ledger``; what differs is the admission model):

* replicas are *elastic*: an :class:`~repro.fleet.policy.AutoscalerPolicy`
  observes the fleet every ``control_interval_s`` and names a target size;
  scale-up pays ``cold_start_s`` before the new replica serves (but its
  replica-seconds meter starts at provisioning — capacity is paid for
  while it warms), scale-down drains then retires;
* admission is *central*: one bounded priority queue
  (:class:`~repro.fleet.slo.PriorityQueue`) feeds every replica, with
  :class:`~repro.fleet.slo.AdmissionController` shedding requests whose
  class wait budget the queue already blows — so a replica dying never
  strands queued work, and an SLO shed is a distinct counter from
  backpressure;
* scale-down and crash share one exit: :meth:`_Fleet.decommission` — a
  drained retirement arrives with nothing outstanding, a crash (or a
  forced retire via a ``retire`` fault with ``drain_timeout_s=0``) with
  live requests that are re-admitted at the head of the queue;
* ``disaggregated=True`` splits the fleet into a prefill pool and a
  decode pool: prompts run only on prefill replicas, then a priced KV
  handoff (``kv_transfer_s_per_token`` per prompt token) moves the
  request — its first token materializing at handoff completion, exactly
  the functional protocol's semantics — to the decode pool, which the
  autoscaler sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import ObsSpan
from ..resilience import FaultPlan
from ..serve.sim import (ServingModel, ServingStats, _Ledger, _Replica,
                         _ReqState)
from ..serve.workload import ArrivalSpec, RequestSpec, request_sizes
from ..sim import Environment, Interrupt, poisson_process
from .policy import AutoscalerPolicy, FleetObservation, ScaleEvent
from .slo import (ADMIT, AdmissionController, BACKPRESSURE, DOWN,
                  PriorityQueue, SHED, SLOClass)

__all__ = ["FleetModel", "FleetStats", "simulate_fleet",
           "service_rate_per_replica"]


@dataclass(frozen=True)
class FleetModel:
    """Cost/topology parameters of one elastic deployment.

    ``serving`` carries the per-replica pipeline shape and stage costs
    (its ``n_replicas`` is the *initial* unified fleet size).  With
    ``disaggregated=True`` the initial fleet is instead
    ``n_prefill_replicas`` prompt-only replicas plus ``n_decode_replicas``
    decode replicas of the same shape, and the autoscaler drives the
    decode pool.
    """

    serving: ServingModel
    cold_start_s: float = 5.0
    control_interval_s: float = 1.0
    drain_timeout_s: float = 30.0
    disaggregated: bool = False
    n_prefill_replicas: int = 1
    n_decode_replicas: int = 1
    kv_transfer_s_per_token: float = 1e-5
    #: admission window for prompt-only replicas.  Prefill groups carry a
    #: single request, so with only ``pipeline_limit`` slots over
    #: ``g_inter`` stages the pool is a closed tandem network whose
    #: bottleneck utilisation caps near N/(N+M-1) — a deeper window
    #: (default 4x the pipeline depth) buys back the bubbles that the
    #: unified pool hides by interleaving wide decode groups.
    prefill_pipeline_limit: Optional[int] = None

    def __post_init__(self):
        if self.cold_start_s < 0 or self.control_interval_s <= 0:
            raise ValueError("cold_start_s must be >= 0 and "
                             "control_interval_s positive")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.disaggregated and (self.n_prefill_replicas < 1
                                   or self.n_decode_replicas < 1):
            raise ValueError("disaggregated fleet needs >= 1 replica in "
                             "each pool")
        if self.kv_transfer_s_per_token < 0:
            raise ValueError("kv_transfer_s_per_token must be >= 0")
        if self.prefill_pipeline_limit is not None \
                and self.prefill_pipeline_limit < 1:
            raise ValueError("prefill_pipeline_limit must be >= 1")

    def pipeline_limit_for(self, role: str) -> int:
        """Inflight-group window for a replica of ``role``."""
        if role == "prefill":
            if self.prefill_pipeline_limit is not None:
                return self.prefill_pipeline_limit
            return 4 * self.serving.effective_pipeline_limit
        return self.serving.effective_pipeline_limit


def service_rate_per_replica(serving: ServingModel,
                             spec: RequestSpec) -> float:
    """Requests/s one replica sustains on this mix (the policy's ``mu``):
    one prefill pass plus ``mean_new_tokens`` shares of a full-width
    decode pass on the bottleneck stage."""
    per_req = (serving.stage_time_s(0, int(round(spec.mean_prompt)))
               + spec.mean_new_tokens
               * serving.stage_time_s(serving.max_batch, 0)
               / serving.max_batch)
    return 1.0 / per_req


@dataclass
class FleetStats(ServingStats):
    """Serving stats plus the elastic fleet's ledger."""

    #: rejected by SLO-aware shedding (distinct from queue backpressure)
    n_rejected_admission: int = 0
    #: integral over [0, horizon] of replicas being paid for
    replica_seconds: float = 0.0
    n_cold_starts: int = 0
    n_retired: int = 0
    n_crashes: int = 0
    n_handoffs: int = 0            #: disagg KV transfers completed
    peak_replicas: int = 0
    scale_events: List[ScaleEvent] = field(default_factory=list)
    ttft_by_class: Dict[str, List[float]] = field(default_factory=dict)

    def slo_attainment(self, classes: Tuple[SLOClass, ...]
                       ) -> Dict[str, float]:
        """Per class: fraction of first tokens inside the TTFT budget."""
        out = {}
        for cls in classes:
            ttfts = self.ttft_by_class.get(cls.name, [])
            out[cls.name] = (
                float(np.mean([t <= cls.ttft_slo_s for t in ttfts]))
                if ttfts else 1.0)
        return out

    def attainment_at(self, slo_s: float) -> float:
        """Fraction of *all* first tokens within ``slo_s`` (class-blind)."""
        return float(np.mean([t <= slo_s for t in self.ttft_s])) \
            if self.ttft_s else 1.0


class _FleetReq(_ReqState):
    """One request's lifecycle, including its SLO class."""

    __slots__ = ("cls",)

    def __init__(self, rid: int, arrival_s: float, prompt_len: int,
                 new_tokens: int, cls: SLOClass):
        super().__init__(rid, arrival_s, prompt_len, new_tokens)
        self.cls = cls


class _FleetReplica(_Replica):
    """One pipeline replica with a lifecycle (its inherited ``queue``
    stays empty: the fleet's queue is central)."""

    def __init__(self, env: Environment, model: ServingModel, index: int,
                 role: str):
        super().__init__(env, model, index)
        self.role = role               #: "unified" | "prefill" | "decode"
        self.state = "provisioning"    #: -> serving -> draining -> dead
        self.drain_started: Optional[float] = None

    @property
    def live(self) -> bool:
        return self.state in ("serving", "draining")

    @property
    def alive(self) -> bool:
        """A provisioning replica takes no groups yet, but is not dead."""
        return self.state != "dead"


class _Fleet(_Ledger):
    """Central admission: one priority queue that whichever replica has
    room pulls from, plus lifecycle, pools and the control loop."""

    def __init__(self, env: Environment, model: FleetModel,
                 stats: FleetStats, policy: AutoscalerPolicy,
                 admission: AdmissionController, mu: float,
                 horizon_s: float, spans: Optional[List[ObsSpan]]):
        super().__init__(env, stats, spans)
        self.model = model
        self.serving = model.serving
        self.policy = policy
        self.admission = admission
        self.mu = mu
        self.horizon_s = horizon_s
        self.replicas: List[_FleetReplica] = []
        #: central bounded priority queue feeding the front pool
        self.queue: PriorityQueue = PriorityQueue()
        #: disagg only: requests whose KV arrived, awaiting a decode slot
        self.decode_pending: PriorityQueue = PriorityQueue()
        #: replica-seconds accrual
        self._rs_mark = 0.0
        self._n_paid = 0
        self._arrivals_window = 0
        # seed the initial fleet warm (no cold start at t=0)
        if model.disaggregated:
            for _ in range(model.n_prefill_replicas):
                self.spawn("prefill", warm=True, reason="initial")
            for _ in range(model.n_decode_replicas):
                self.spawn("decode", warm=True, reason="initial")
        else:
            for _ in range(self.serving.n_replicas):
                self.spawn("unified", warm=True, reason="initial")

    # -- bookkeeping -------------------------------------------------------
    def _pay(self, delta: int) -> None:
        """Move the replica-seconds meter (clamped to the horizon)."""
        t = min(self.env.now, self.horizon_s)
        self.stats.replica_seconds += self._n_paid * (t - self._rs_mark)
        self._rs_mark = t
        self._n_paid += delta
        self.stats.peak_replicas = max(self.stats.peak_replicas,
                                       self._n_paid)

    def flush(self) -> None:
        self._track(0)
        self._pay(0)

    def _event(self, kind: str, n_from: int, n_to: int, reason: str,
               pool: str) -> None:
        now = self.env.now
        self.stats.scale_events.append(ScaleEvent(
            t_s=now, kind=kind, n_from=n_from, n_to=n_to, reason=reason,
            pool=pool))
        self._span(-1, "fleet", f"scale-{kind}", now, now,
                   category="recovery")

    # -- pools -------------------------------------------------------------
    def pool(self, role: str) -> List[_FleetReplica]:
        return [r for r in self.replicas if r.role == role]

    @property
    def front_role(self) -> str:
        """The pool arrivals enter: prefill when disaggregated."""
        return "prefill" if self.model.disaggregated else "unified"

    @property
    def scaled_role(self) -> str:
        """The pool the autoscaler drives: decode when disaggregated."""
        return "decode" if self.model.disaggregated else "unified"

    def n_state(self, role: str, *states: str) -> int:
        return sum(1 for r in self.pool(role) if r.state in states)

    # -- lifecycle ---------------------------------------------------------
    def spawn(self, role: str, warm: bool = False,
              reason: str = "policy") -> _FleetReplica:
        rep = _FleetReplica(self.env, self.serving, len(self.replicas),
                            role)
        self.replicas.append(rep)
        self._pay(+1)
        if warm or self.model.cold_start_s == 0:
            self._warm(rep)
        else:
            self.stats.n_cold_starts += 1
            rep.procs.append(self.env.process(
                self._provision_proc(rep),
                name=f"provision-{role}{rep.index}"))
            self._span(rep.index, "fleet", "cold-start", self.env.now,
                       self.env.now + self.model.cold_start_s,
                       category="other")
        return rep

    def _provision_proc(self, rep: _FleetReplica):
        try:
            yield self.env.timeout(self.model.cold_start_s)
        except Interrupt:
            return
        if rep.state == "provisioning":
            self._warm(rep)

    def _warm(self, rep: _FleetReplica) -> None:
        rep.state = "serving"
        self.pump_all()

    def start_drain(self, rep: _FleetReplica) -> None:
        if rep.state in ("serving", "provisioning"):
            if rep.state == "provisioning":
                # never served: nothing to drain
                self.decommission(rep, "retire")
                return
            rep.state = "draining"
            rep.drain_started = self.env.now
            self._span(rep.index, "fleet", "drain", self.env.now,
                       self.env.now, category="other")

    def decommission(self, rep: _FleetReplica, kind: str) -> None:
        """The one exit for replicas — planned retirement and crash alike.

        Outstanding requests (KV-resident or mid-pipeline) lose their
        cache state and are re-admitted at the head of the central queue;
        a gracefully drained replica simply has none.
        """
        if rep.state == "dead":
            return
        rep.state = "dead"
        self._pay(-1)
        orphans = rep.kill(f"replica-{kind}")
        if kind == "crash":
            self.stats.n_crashes += 1
        else:
            self.stats.n_retired += 1
        self._span(rep.index, "fleet", f"replica-{kind}", self.env.now,
                   self.env.now, category="fault" if kind == "crash"
                   else "recovery")
        self.stats.n_restarts += len(orphans)
        for st in orphans:
            # back to the very start: prompt must be re-processed (the KV
            # died with the replica), ahead of same-priority peers
            self.queue.push_front(st, st.cls.priority)
        if orphans:
            self.pump_all()

    # -- admission ---------------------------------------------------------
    def on_arrival(self, st: _FleetReq) -> None:
        self.stats.n_arrived += 1
        self._arrivals_window += 1
        front = self.front_role
        n_live = self.n_state(front, "serving") \
            + self.n_state(front, "provisioning")
        depth = len(self.queue)
        ahead = self.queue.count_at_or_above(st.cls.priority)
        rate = self.n_state(front, "serving") * self.mu
        verdict = self.admission.verdict(st.cls, depth, ahead, n_live,
                                         rate)
        if verdict == ADMIT:
            self.stats.n_admitted += 1
            self._track(+1)
            self.queue.push(st, st.cls.priority)
            self.pump_all()
        elif verdict == SHED:
            self.stats.n_rejected_admission += 1
        elif verdict == BACKPRESSURE:
            self.stats.n_rejected_backpressure += 1
        else:
            assert verdict == DOWN
            self.stats.n_rejected_down += 1

    # -- scheduling --------------------------------------------------------
    def pump_all(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for rep in self.replicas:
                if rep.live:
                    progressed = self.pump_one(rep) or progressed

    def pump_one(self, rep: _FleetReplica) -> bool:
        """One dispatch attempt; True if a group entered the pipeline.

        Priority order mirrors the unified scheduler: new work (prefill /
        ingest) preferred while KV slots are free, decode groups otherwise.
        Draining replicas accept no new requests — they only finish what
        they hold.
        """
        model = self.serving
        if rep.inflight >= self.model.pipeline_limit_for(rep.role):
            return False
        taking_new = rep.state == "serving"
        if rep.role in ("unified", "prefill"):
            if (taking_new and len(self.queue) > 0
                    and len(rep.active) < model.effective_max_active):
                self.start_prefill(rep, self.queue.pop())
                return True
        if rep.role == "decode" and taking_new:
            # batch up waiting handoffs before dispatching, so freshly
            # ingested requests ride full-width decode groups
            while (len(self.decode_pending) > 0
                   and len(rep.active) < model.effective_max_active
                   and len(rep.ready) < model.max_batch):
                st = self.decode_pending.pop()
                rep.active[st.rid] = st
                rep.ready.append(st)
        if rep.role in ("unified", "decode") and rep.ready:
            self.start_decode(rep)
            return True
        return False

    def finish_group(self, rep: _FleetReplica,
                     group: List[_FleetReq]) -> None:
        now = self.env.now
        rep.inflight -= 1
        if rep.role == "prefill":
            # prompt processed: the KV handoff (priced) carries the
            # request to the decode pool; first token lands at handoff
            for st in group:
                del rep.active[st.rid]
                self._span(rep.index, "serve", "prefill", st.last_step_s,
                           now, st.rid)
                rep.handoffs[st.rid] = (st, self.env.process(
                    self._handoff_proc(rep, st), name=f"handoff-{st.rid}"))
        else:
            for st in group:
                self.emit_token(rep, st, now)
        # Only ``rep`` can have gained room or work.  Every other state
        # change ends in ``pump_all``, after which no replica can dispatch,
        # and what ``rep`` pulls from the shared queues only takes work
        # from the others.
        while self.pump_one(rep):
            pass

    def first_token(self, st: _FleetReq, now: float) -> None:
        super().first_token(st, now)
        self.stats.ttft_by_class.setdefault(st.cls.name, []).append(
            now - st.arrival_s)

    def _handoff_proc(self, rep: _FleetReplica, st: _FleetReq):
        """Priced KV transfer from prefill replica ``rep`` to the decode
        pool (disaggregated)."""
        try:
            yield self.env.timeout(
                self.model.kv_transfer_s_per_token * st.prompt_len)
        except Interrupt:
            return  # the source died mid-read; ``kill`` orphaned ``st``
        del rep.handoffs[st.rid]
        now = self.env.now
        self.stats.n_handoffs += 1
        # the decode tail samples the first token from the handed-off
        # logits the moment the KV lands (the functional protocol's
        # TAG_INGEST semantics)
        st.tokens_done = 1
        self.stats.tokens_out += 1
        self.first_token(st, now)
        if st.new_tokens <= 1:  # the first token was the last
            self.complete(rep, st, now)
            return
        self.decode_pending.push(st, st.cls.priority)
        self.pump_all()

    # -- control loop ------------------------------------------------------
    def controller_proc(self):
        model = self.model
        interval = model.control_interval_s
        while self.env.now < self.horizon_s:
            yield self.env.timeout(interval)
            self.control_tick(self._arrivals_window / interval)
            self._arrivals_window = 0

    def control_tick(self, observed_rate: float) -> None:
        """One policy consultation + drain housekeeping."""
        now = self.env.now
        role = self.scaled_role
        pool = self.pool(role)
        # finish (or force) pending drains first
        for rep in pool:
            if rep.state == "draining":
                idle = not rep.active and rep.inflight == 0
                timed_out = rep.drain_started is not None and \
                    now - rep.drain_started >= self.model.drain_timeout_s
                if idle or timed_out:
                    self.decommission(rep, "retire")
        live = self.n_state(role, "serving")
        prov = self.n_state(role, "provisioning")
        drain = self.n_state(role, "draining")
        serving_reps = [r for r in pool if r.state == "serving"]
        util = float(np.mean([
            r.inflight / self.model.pipeline_limit_for(r.role)
            for r in serving_reps])) if serving_reps else 1.0
        waiting = len(self.queue) + (len(self.decode_pending)
                                     if self.model.disaggregated else 0)
        obs = FleetObservation(
            now_s=now, queue_depth=waiting, n_live=live,
            n_provisioning=prov, n_draining=drain, utilization=util,
            arrival_rate=observed_rate,
            service_rate_per_replica=self.mu)
        target = self.policy.decide(obs)
        provisioned = live + prov
        while provisioned < target:
            self.spawn(role, reason=self.policy.name)
            self._event("up", provisioned, provisioned + 1,
                        self.policy.name, role)
            provisioned += 1
        if provisioned > target:
            victims = sorted(
                (r for r in pool if r.state in ("serving", "provisioning")),
                key=lambda r: (r.state == "serving",
                               len(r.active) > 0, -r.index))
            for rep in victims[:provisioned - target]:
                self.start_drain(rep)
                self._event("down", provisioned, provisioned - 1,
                            self.policy.name, role)
                provisioned -= 1


def _draw_class(admission: AdmissionController,
                fractions: Optional[Dict[str, float]],
                rng: np.random.Generator) -> SLOClass:
    names = list(admission.classes)
    if fractions is None or len(names) == 1:
        return admission.classes[names[0]]
    probs = np.array([fractions.get(n, 0.0) for n in names])
    total = probs.sum()
    if total <= 0:
        return admission.classes[names[0]]
    return admission.classes[
        names[int(rng.choice(len(names), p=probs / total))]]


def simulate_fleet(model: FleetModel, policy: AutoscalerPolicy,
                   arrivals: ArrivalSpec, horizon_s: float,
                   request_spec: Optional[RequestSpec] = None,
                   seq_len: int = 64,
                   admission: Optional[AdmissionController] = None,
                   class_fractions: Optional[Dict[str, float]] = None,
                   plan: Optional[FaultPlan] = None,
                   spans: Optional[List[ObsSpan]] = None) -> FleetStats:
    """Open-loop elastic run over a seeded arrival trace.

    ``plan`` may carry ``crash`` faults (replica ``rank`` dies at second
    ``tick``) and ``retire`` faults (forced scale-down at ``tick`` — with
    ``drain_timeout_s == 0`` it decommissions immediately, the exact
    mirror of the crash for the shared-path tests).  Replica indices
    follow spawn order: the initial fleet is ``0..n-1``.
    """
    spec = request_spec or RequestSpec()
    admission = admission or AdmissionController(classes=(SLOClass(),))
    policy.reset()
    env = Environment()
    stats = FleetStats(horizon_s=horizon_s,
                       offered_req_s=arrivals.rate_per_s)
    mu = service_rate_per_replica(model.serving, spec)
    fleet = _Fleet(env, model, stats, policy, admission, mu, horizon_s,
                   spans)
    size_rng = np.random.default_rng(spec.seed + 1)
    class_rng = np.random.default_rng(spec.seed + 3)
    next_rid = [0]

    def on_arrival(now: float) -> None:
        p, m = request_sizes(seq_len, spec, size_rng)
        cls = _draw_class(admission, class_fractions, class_rng)
        fleet.on_arrival(_FleetReq(next_rid[0], now, p, m, cls))
        next_rid[0] += 1

    env.process(
        poisson_process(env, arrivals.mean_interarrival(),
                        seed=arrivals.seed, on_event=on_arrival,
                        alive=lambda: env.now < horizon_s),
        name="request-arrivals")
    env.process(fleet.controller_proc(), name="fleet-controller")
    if plan is not None:
        for fault in list(plan.crashes()) + list(plan.retires()):
            idx = fault.rank if fault.rank is not None else 0
            at_s = float(fault.tick)

            def _fault_proc(env: Environment, idx: int = idx,
                            t: float = at_s, kind: str = fault.kind):
                yield env.timeout(t)
                if not 0 <= idx < len(fleet.replicas):
                    return
                rep = fleet.replicas[idx]
                if rep.state == "dead":
                    return
                if kind == "crash":
                    fleet.decommission(rep, "crash")
                elif model.drain_timeout_s == 0:
                    fleet.decommission(rep, "retire")
                else:
                    fleet.start_drain(rep)

            env.process(_fault_proc(env),
                        name=f"{fault.kind}-replica{idx}@{at_s}")
    env.run(until=horizon_s)
    env.run()  # drain in-system work so completions are counted
    fleet.flush()
    return stats
