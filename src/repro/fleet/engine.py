"""Elastic serving on the functional runtime: an autoscaled replica fleet.

:class:`FleetServer` is an elastic fleet of
:class:`~repro.serve.engine.PipelineServer` replicas — the one functional
server, built from the real message-driven machinery rather than a model
of it — driven round by round: arrivals from a seeded trace (see
:meth:`repro.serve.ArrivalSpec.sample_times`) pass SLO admission, an
:class:`~repro.fleet.policy.AutoscalerPolicy` observes the fleet between
rounds and scales it, and *both* planned scale-down and injected crashes
decommission a replica through one code path
(:meth:`FleetServer._decommission`), re-admitting outstanding requests
under a :class:`~repro.runtime.transport.RankFailure` — the resilience
layer's failure carrier — so retirement is provably just a crash the
scheduler knew about in advance.

Prefill/decode disaggregation is not a second server here: it is a
placement of that same class, ``PipelineServer(g_prefill=...)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GPTConfig
from ..obs import Tracer
from ..resilience import FaultPlan
from ..runtime.transport import RankFailure
from ..serve.engine import PipelineServer, Request
from .policy import AutoscalerPolicy, FleetObservation, ScaleEvent
from .slo import (ADMIT, AdmissionController, BACKPRESSURE, DOWN,
                  PriorityQueue, SHED, SLOClass)

__all__ = ["FleetServer", "FleetRunReport"]


@dataclass
class _FunctionalReplica:
    """Lifecycle record of one fleet member."""

    id: int
    state: str                     #: provisioning | serving | draining | dead
    cold_remaining: int
    server: Optional[PipelineServer] = None
    backlog: deque = field(default_factory=deque)

    @property
    def alive(self) -> bool:
        return self.state in ("serving", "draining")


@dataclass
class FleetRunReport:
    """Everything a :meth:`FleetServer.run` produced."""

    results: Dict[int, np.ndarray]
    events: List[ScaleEvent]
    rounds: int
    replica_rounds: int            #: paid capacity (functional analogue of
    n_arrived: int = 0             #: replica-seconds in the DES)
    n_admitted: int = 0
    n_completed: int = 0
    n_shed: int = 0
    n_backpressure: int = 0
    n_down: int = 0
    n_readmitted: int = 0
    failures: List[RankFailure] = field(default_factory=list)
    max_replicas_seen: int = 0

    @property
    def n_lost(self) -> int:
        return self.n_admitted - self.n_completed

    def replica_counts(self) -> List[Tuple[str, int]]:
        return [(e.kind, e.n_to) for e in self.events]


class FleetServer:
    """Round-driven elastic fleet of unified pipeline replicas.

    Each *round* spans ``round_s`` of trace time: arrivals within the
    window face SLO admission, the policy observes the fleet and scales
    it, cold starts tick down, queued requests are dispatched to the
    least-loaded serving replica, and every live replica serves up to
    ``serve_per_round`` of its backlog with a real
    :class:`~repro.serve.engine.PipelineServer` pass over RankTransport.

    ``fault_plan`` may schedule ``crash`` and ``retire`` faults against
    replica ids (``Fault(kind=..., rank=replica_id, tick=round)``); both
    funnel into :meth:`_decommission`, which re-admits the victim's
    outstanding backlog under a :class:`RankFailure` — the shared failure
    path the tests pin down.
    """

    def __init__(self, cfg: GPTConfig, policy: AutoscalerPolicy, *,
                 g_inter: int = 2, max_batch: int = 4,
                 round_s: float = 1.0, serve_per_round: int = 4,
                 cold_start_rounds: int = 1,
                 backlog_limit: Optional[int] = None,
                 admission: Optional[AdmissionController] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None,
                 max_rounds: int = 10_000):
        if round_s <= 0 or serve_per_round < 1 or cold_start_rounds < 0:
            raise ValueError("round_s must be positive, serve_per_round "
                             ">= 1, cold_start_rounds >= 0")
        #: how far ahead a replica may own queued work; > serve_per_round
        #: means backlogs survive round boundaries, so a decommissioned
        #: replica really does hold requests to re-admit
        self.backlog_limit = backlog_limit if backlog_limit is not None \
            else 2 * serve_per_round
        if self.backlog_limit < serve_per_round:
            raise ValueError("backlog_limit must be >= serve_per_round")
        self.cfg = cfg
        self.policy = policy
        self.g_inter = g_inter
        self.max_batch = max_batch
        self.round_s = round_s
        self.serve_per_round = serve_per_round
        self.cold_start_rounds = cold_start_rounds
        self.admission = admission or AdmissionController(
            classes=(SLOClass(),))
        self.fault_plan = fault_plan or FaultPlan()
        self.tracer = tracer
        self.max_rounds = max_rounds

    # -- shared decommission path (scale-down AND crash) -------------------
    def _decommission(self, rep: _FunctionalReplica, kind: str,
                      round_idx: int, queue: PriorityQueue,
                      priorities: Dict[int, int],
                      report: FleetRunReport) -> None:
        """Remove ``rep`` from the fleet; re-admit whatever it still owed.

        This is the one exit for replicas: graceful retirement arrives
        with an empty backlog, a crash (or forced retire) with outstanding
        requests — either way the bookkeeping, the re-admission, and the
        failure record are identical.
        """
        outstanding = list(rep.backlog)
        rep.backlog.clear()
        rep.state = "dead"
        rep.server = None
        if outstanding:
            failure = RankFailure(
                f"replica {rep.id} {kind} with {len(outstanding)} "
                "outstanding requests", dead=[rep.id],
                detected_at=round_idx)
            report.failures.append(failure)
            for req in outstanding:  # head of queue: they already waited
                queue.push_front(req, priorities[req.rid])
            report.n_readmitted += len(outstanding)
        self._span(rep.id, kind, round_idx)

    def _span(self, replica_id: int, name: str, round_idx: int) -> None:
        if self.tracer is not None and self.tracer.enabled:
            t0 = round_idx * self.round_s
            self.tracer.record(replica_id, "fleet", name, t0,
                               t0 + self.round_s, category="recovery")

    # -- the run loop ------------------------------------------------------
    def run(self, trace: Sequence[Tuple[float, Request]],
            classes: Optional[Dict[int, str]] = None) -> FleetRunReport:
        """Serve a timed ``[(arrival_s, request), ...]`` trace to drain.

        ``classes`` maps rid -> SLO class name (defaults to the admission
        controller's first class).  Returns the merged results — every
        admitted request's full sequence, regardless of how many replicas
        it bounced through.
        """
        self.policy.reset()
        trace = sorted(trace, key=lambda tr: tr[0])
        default_cls = next(iter(self.admission.classes))
        classes = classes or {}
        priorities: Dict[int, int] = {}
        queue: PriorityQueue = PriorityQueue()
        replicas: List[_FunctionalReplica] = []
        report = FleetRunReport(results={}, events=[], rounds=0,
                                replica_rounds=0)
        faults_by_round: Dict[int, List] = {}
        for f in list(self.fault_plan.crashes()) + \
                list(self.fault_plan.retires()):
            faults_by_round.setdefault(f.tick, []).append(f)

        def spawn(round_idx: int, reason: str) -> _FunctionalReplica:
            rep = _FunctionalReplica(
                id=len(replicas), state="provisioning",
                cold_remaining=self.cold_start_rounds)
            if rep.cold_remaining == 0:
                rep.state = "serving"
                rep.server = self._build_server()
            replicas.append(rep)
            self._span(rep.id, f"spawn:{reason}", round_idx)
            return rep

        def fleet_counts() -> Tuple[int, int, int]:
            live = sum(r.state == "serving" for r in replicas)
            prov = sum(r.state == "provisioning" for r in replicas)
            drain = sum(r.state == "draining" for r in replicas)
            return live, prov, drain

        spawn(0, "initial")
        trace_i = 0
        admitted_rids: set = set()
        served_last = capacity_last = 0
        round_idx = 0
        while round_idx < self.max_rounds:
            now = round_idx * self.round_s
            # 1. arrivals in [now, now + round_s) hit the front door
            n_arrived_round = 0
            while trace_i < len(trace) and \
                    trace[trace_i][0] < now + self.round_s:
                _, req = trace[trace_i]
                trace_i += 1
                n_arrived_round += 1
                report.n_arrived += 1
                cls = self.admission.slo_class(
                    classes.get(req.rid, default_cls))
                live, _, _ = fleet_counts()
                depth = len(queue) + sum(len(r.backlog) for r in replicas
                                         if r.alive)
                ahead = depth  # priority queue: conservative estimate
                rate = live * self.serve_per_round / self.round_s
                verdict = self.admission.verdict(cls, depth, ahead,
                                                 max(live, 1), rate)
                if verdict == ADMIT:
                    priorities[req.rid] = cls.priority
                    queue.push(req, cls.priority)
                    admitted_rids.add(req.rid)
                    report.n_admitted += 1
                elif verdict == SHED:
                    report.n_shed += 1
                elif verdict == BACKPRESSURE:
                    report.n_backpressure += 1
                else:
                    report.n_down += 1
            # 2. scheduled faults: crash now, retire = forced scale-down
            for f in faults_by_round.get(round_idx, []):
                if f.rank is None or f.rank >= len(replicas):
                    continue
                rep = replicas[f.rank]
                if not rep.alive:
                    continue
                live, prov, drain = fleet_counts()
                self._decommission(rep, f.kind, round_idx, queue,
                                   priorities, report)
                report.events.append(ScaleEvent(
                    t_s=now, kind="crash" if f.kind == "crash" else "down",
                    n_from=live + prov + drain,
                    n_to=live + prov + drain - 1, reason=f.kind))
            # 3. the policy looks at the fleet and names a target size
            live, prov, drain = fleet_counts()
            obs = FleetObservation(
                now_s=now, queue_depth=len(queue), n_live=live,
                n_provisioning=prov, n_draining=drain,
                utilization=(served_last / capacity_last
                             if capacity_last else 0.0),
                arrival_rate=n_arrived_round / self.round_s,
                service_rate_per_replica=self.serve_per_round /
                self.round_s)
            target = self.policy.decide(obs)
            provisioned = live + prov
            while provisioned < target:
                spawn(round_idx, "policy")
                report.events.append(ScaleEvent(
                    t_s=now, kind="up", n_from=provisioned,
                    n_to=provisioned + 1, reason=self.policy.name))
                provisioned += 1
            if provisioned > target:
                # retire from the top: newest serving replicas first,
                # preferring ones with nothing left to do
                victims = sorted(
                    (r for r in replicas if r.state == "serving"),
                    key=lambda r: (len(r.backlog) > 0, -r.id))
                for rep in victims[:provisioned - target]:
                    rep.state = "draining"
                    report.events.append(ScaleEvent(
                        t_s=now, kind="down", n_from=provisioned,
                        n_to=provisioned - 1, reason=self.policy.name))
                    provisioned -= 1
            # 4. cold starts tick down
            for rep in replicas:
                if rep.state == "provisioning":
                    if rep.cold_remaining > 0:
                        rep.cold_remaining -= 1
                    if rep.cold_remaining == 0:
                        rep.state = "serving"
                        rep.server = self._build_server()
                        self._span(rep.id, "warm", round_idx)
            # 5. last line of defence: never strand admitted work
            live, prov, _ = fleet_counts()
            if live + prov == 0 and (len(queue) > 0 or trace_i < len(trace)
                                     or admitted_rids -
                                     set(report.results)):
                spawn(round_idx, "restore")
                report.events.append(ScaleEvent(
                    t_s=now, kind="up", n_from=0, n_to=1, reason="restore"))
            # 6. dispatch: least-loaded serving replica wins each request
            serving = [r for r in replicas if r.state == "serving"]
            while len(queue) > 0 and serving:
                rep = min(serving, key=lambda r: (len(r.backlog), r.id))
                if len(rep.backlog) >= self.backlog_limit:
                    break
                rep.backlog.append(queue.pop())
            # 7. serve: one real pipeline pass per replica with work
            served_last = 0
            capacity_last = max(1, len(serving) * self.serve_per_round)
            for rep in replicas:
                if not rep.alive:
                    continue
                batch = [rep.backlog.popleft()
                         for _ in range(min(len(rep.backlog),
                                            self.serve_per_round))]
                if batch:
                    out = rep.server.serve(batch)
                    report.results.update(out)
                    report.n_completed += len(out)
                    served_last += len(batch)
                if rep.state == "draining" and not rep.backlog:
                    self._decommission(rep, "retire", round_idx, queue,
                                       priorities, report)
            report.replica_rounds += sum(1 for r in replicas
                                         if r.state != "dead")
            report.max_replicas_seen = max(
                report.max_replicas_seen,
                sum(1 for r in replicas if r.state != "dead"))
            round_idx += 1
            report.rounds = round_idx
            if trace_i >= len(trace) and len(queue) == 0 and \
                    not any(r.backlog for r in replicas) and \
                    round_idx > max(faults_by_round, default=-1):
                break
        else:
            raise RuntimeError(f"fleet did not drain in "
                               f"{self.max_rounds} rounds")
        return report

    def _build_server(self) -> PipelineServer:
        return PipelineServer(self.cfg, g_inter=self.g_inter,
                              max_batch=self.max_batch)
