"""Tests for repro.fleet: the elastic serving layer on both substrates.

Functional side: the pipeline server's disaggregated KV-handoff placement
and the elastic FleetServer must be token-for-token identical to serial
``generate`` no matter how the fleet membership changes mid-run, and
scale-down must share one decommission path with crashes.  DES side: Little's law under
time-varying arrivals, autoscaler determinism, hysteresis no-flap, the
split rejection ledger, and the crash/retire mirror.
"""

import numpy as np
import pytest

from repro.fleet import (AdmissionController, AutoscalerPolicy, FleetModel,
                         FleetObservation, FleetServer, ReactivePolicy,
                         SLOClass, StaticPolicy, service_rate_per_replica,
                         simulate_fleet)
from repro.nn import GPT, GPTConfig, generate
from repro.resilience import Fault, FaultPlan
from repro.serve import (ArrivalSpec, PipelineServer, Request, RequestSpec,
                         ServingModel, make_requests)
from repro.sim import Environment, poisson_process

CFG = GPTConfig(vocab_size=61, seq_len=48, n_layer=4, n_head=2, hidden=16)

#: Cheap hand-set cost model — tests must not depend on the V100 numbers.
MODEL = ServingModel(n_replicas=3, g_inter=2, stage_alpha_s=1e-3,
                     decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                     max_batch=8)
SPEC = RequestSpec(mean_prompt=6, mean_new_tokens=6, seed=0)


def serial_reference(cfg, requests):
    """What each request would produce through plain `generate`."""
    model = GPT(cfg)
    return {
        req.rid: generate(model, req.prompt, req.max_new_tokens,
                          temperature=req.temperature, top_k=req.top_k,
                          rng=np.random.default_rng(req.seed),
                          greedy=req.greedy)
        for req in requests
    }


def one_class(**kw):
    defaults = dict(name="interactive", priority=0, ttft_slo_s=1.0,
                    max_wait_s=float("inf"))
    defaults.update(kw)
    return AdmissionController(classes=(SLOClass(**defaults),))


def run_fleet(model=None, policy=None, rate=20.0, horizon=30.0, *,
              arrivals=None, seed=1, **kw):
    model = model or FleetModel(serving=MODEL, cold_start_s=0.5,
                                control_interval_s=0.5, drain_timeout_s=2.0)
    policy = policy or StaticPolicy(MODEL.n_replicas)
    arrivals = arrivals or ArrivalSpec(rate_per_s=rate, seed=seed)
    kw.setdefault("admission", one_class())
    return simulate_fleet(model, policy, arrivals, horizon,
                          request_spec=SPEC, seq_len=48, **kw)


# ---------------------------------------------------------------------------
# functional substrate: disaggregated prefill/decode
# ---------------------------------------------------------------------------
class TestDisaggTokenEquivalence:
    @pytest.mark.parametrize("g_prefill,g_decode",
                             [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)])
    def test_matches_serial_generate(self, g_prefill, g_decode):
        requests = make_requests(
            CFG, 8, RequestSpec(mean_prompt=5, mean_new_tokens=5, seed=3))
        expected = serial_reference(CFG, requests)
        server = PipelineServer(CFG, g_inter=g_decode, g_prefill=g_prefill,
                                max_batch=4)
        got = server.serve(requests)
        assert set(got) == set(expected)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid
        # the handoff really moved the KV out of the prefill pool
        assert all(s.inflight_requests == 0 for s in server.prefill_stages)
        assert all(s.inflight_requests == 0 for s in server.stages)

    def test_matches_unified_server(self):
        """Disaggregation is a placement decision, not a sampling one."""
        requests = make_requests(
            CFG, 6, RequestSpec(mean_prompt=4, mean_new_tokens=6, seed=9))
        unified = PipelineServer(CFG, g_inter=2, max_batch=4) \
            .serve(requests)
        disagg = PipelineServer(CFG, g_inter=2, g_prefill=2,
                                max_batch=4).serve(requests)
        for rid in unified:
            assert np.array_equal(unified[rid], disagg[rid]), rid

    def test_zero_token_request_returns_prompt(self):
        req = Request(rid=7, prompt=np.array([3, 1]), max_new_tokens=0)
        out = PipelineServer(CFG, g_inter=2, g_prefill=1).serve([req])
        assert np.array_equal(out[7], [3, 1])

    def test_validation(self):
        with pytest.raises(ValueError, match="g_prefill"):
            PipelineServer(CFG, g_inter=1, g_prefill=-1)
        for bad in (dict(g_inter=0), dict(max_batch=0), dict(max_active=0)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                PipelineServer(CFG, g_prefill=1, **bad)
        with pytest.raises(ValueError, match="duplicate"):
            reqs = [Request(rid=1, prompt=np.array([2]), max_new_tokens=1)
                    for _ in range(2)]
            PipelineServer(CFG, g_prefill=1).serve(reqs)


# ---------------------------------------------------------------------------
# functional substrate: the elastic fleet
# ---------------------------------------------------------------------------
def flash_trace(n=30, horizon=12.0, seed=0):
    reqs = make_requests(CFG, n, RequestSpec(mean_prompt=6,
                                             mean_new_tokens=6, seed=seed))
    times = ArrivalSpec(rate_per_s=1.0, seed=5, kind="flash",
                        flash_at_s=2.0, flash_factor=15.0) \
        .sample_times(horizon_s=horizon)
    return list(zip(times, reqs))[:n]


class TestFleetServerElastic:
    def test_scale_up_and_down_with_zero_loss(self):
        """The pinned 1 -> 2 -> 1 smoke: a flash crowd at t=2s forces the
        reactive policy up, the decay brings it back down, and every
        request still matches serial generate."""
        trace = flash_trace()
        expected = serial_reference(CFG, [r for _, r in trace])
        fleet = FleetServer(
            CFG, ReactivePolicy(min_replicas=1, max_replicas=2,
                                cooldown_s=2.0),
            g_inter=2, max_batch=4, serve_per_round=2)
        report = fleet.run(trace)
        kinds = [e.kind for e in report.events]
        assert "up" in kinds and "down" in kinds
        assert report.max_replicas_seen == 2
        assert report.n_admitted == len(trace)
        assert report.n_lost == 0
        assert set(report.results) == set(expected)
        for rid in report.results:
            assert np.array_equal(report.results[rid], expected[rid]), rid

    def test_static_policy_never_scales(self):
        report = FleetServer(CFG, StaticPolicy(1), g_inter=2, max_batch=4,
                             serve_per_round=4).run(flash_trace(n=10))
        assert [e.kind for e in report.events] == []
        assert report.max_replicas_seen == 1
        assert report.n_lost == 0

    def test_replica_rounds_track_paid_capacity(self):
        """An elastic run pays for fewer replica-rounds than a static
        2-replica fleet over the same trace."""
        trace = flash_trace()
        elastic = FleetServer(
            CFG, ReactivePolicy(min_replicas=1, max_replicas=2,
                                cooldown_s=2.0),
            g_inter=2, max_batch=4, serve_per_round=2).run(trace)
        static = FleetServer(CFG, StaticPolicy(2), g_inter=2, max_batch=4,
                             serve_per_round=2).run(trace)
        assert elastic.replica_rounds < static.replica_rounds
        assert set(elastic.results) == set(static.results)

    def test_deterministic_replay(self):
        a = FleetServer(CFG, ReactivePolicy(min_replicas=1, max_replicas=2,
                                            cooldown_s=2.0),
                        g_inter=2, max_batch=4, serve_per_round=2) \
            .run(flash_trace())
        b = FleetServer(CFG, ReactivePolicy(min_replicas=1, max_replicas=2,
                                            cooldown_s=2.0),
                        g_inter=2, max_batch=4, serve_per_round=2) \
            .run(flash_trace())
        assert [e.as_dict() for e in a.events] == \
            [e.as_dict() for e in b.events]
        assert a.replica_rounds == b.replica_rounds
        for rid in a.results:
            assert np.array_equal(a.results[rid], b.results[rid])


class TestFunctionalSharedFailurePath:
    """Crash and forced retire funnel into one decommission path, so the
    two runs are indistinguishable in everything but the label."""

    def _run(self, kind):
        trace = flash_trace(n=16)
        plan = FaultPlan.of(Fault(kind=kind, rank=0, tick=3))
        fleet = FleetServer(CFG, StaticPolicy(2), g_inter=2, max_batch=4,
                            serve_per_round=2, fault_plan=plan)
        return fleet.run(trace)

    def test_crash_and_retire_serve_identical_tokens(self):
        crash = self._run("crash")
        retire = self._run("retire")
        assert set(crash.results) == set(retire.results)
        for rid in crash.results:
            assert np.array_equal(crash.results[rid], retire.results[rid])
        assert crash.n_lost == 0 and retire.n_lost == 0
        assert crash.n_readmitted == retire.n_readmitted

    def test_outstanding_work_readmitted_under_rank_failure(self):
        report = self._run("crash")
        assert report.n_readmitted > 0
        assert report.failures and report.failures[0].dead == [0]

    def test_whole_fleet_crash_recovers(self):
        """Even a policy that wants zero replicas cannot strand admitted
        work: the restore path spawns one back."""
        class ZeroPolicy(AutoscalerPolicy):
            name = "zero"

            def decide(self, obs):
                return 0

        report = FleetServer(CFG, ZeroPolicy(), g_inter=2, max_batch=4,
                             serve_per_round=2).run(flash_trace(n=8))
        assert report.n_lost == 0
        assert any(e.reason == "restore" for e in report.events)


# ---------------------------------------------------------------------------
# DES substrate
# ---------------------------------------------------------------------------
class TestFleetModelValidation:
    def test_prefill_window_defaults_to_4x_pipeline_depth(self):
        model = FleetModel(serving=MODEL)
        assert model.pipeline_limit_for("prefill") == \
            4 * MODEL.effective_pipeline_limit
        assert model.pipeline_limit_for("decode") == \
            MODEL.effective_pipeline_limit

    def test_prefill_window_override(self):
        model = FleetModel(serving=MODEL, prefill_pipeline_limit=2)
        assert model.pipeline_limit_for("prefill") == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="prefill_pipeline_limit"):
            FleetModel(serving=MODEL, prefill_pipeline_limit=0)
        with pytest.raises(ValueError, match="each pool"):
            FleetModel(serving=MODEL, disaggregated=True,
                       n_decode_replicas=0)
        with pytest.raises(ValueError, match="drain_timeout_s"):
            FleetModel(serving=MODEL, drain_timeout_s=-1.0)


class TestLittlesLaw:
    def test_holds_under_diurnal_arrivals(self):
        """L = lambda_eff * W within 5% on a time-varying trace (all
        arrivals eventually served, so the effective rate is exact)."""
        arrivals = ArrivalSpec(rate_per_s=25.0, seed=2, kind="diurnal",
                               diurnal_period_s=40.0,
                               diurnal_amplitude=0.6)
        stats = run_fleet(arrivals=arrivals, horizon=120.0)
        assert stats.n_rejected == 0
        assert stats.n_rejected_admission == 0
        assert stats.n_completed == stats.n_admitted > 1000
        lam_eff = stats.n_completed / stats.horizon_s
        assert stats.mean_concurrency == pytest.approx(
            lam_eff * stats.mean_sojourn_s, rel=0.05)


class TestAutoscalerDeterminism:
    def _reactive(self):
        return ReactivePolicy(min_replicas=1, max_replicas=3,
                              cooldown_s=2.0)

    def _diurnal(self, seed):
        return ArrivalSpec(rate_per_s=18.0, seed=seed, kind="diurnal",
                           diurnal_period_s=30.0, diurnal_amplitude=0.8)

    def test_same_seed_same_run(self):
        a = run_fleet(policy=self._reactive(), arrivals=self._diurnal(4),
                      horizon=60.0)
        b = run_fleet(policy=self._reactive(), arrivals=self._diurnal(4),
                      horizon=60.0)
        assert [e.as_dict() for e in a.scale_events] == \
            [e.as_dict() for e in b.scale_events]
        assert a.ttft_s == b.ttft_s
        assert a.replica_seconds == b.replica_seconds
        assert len(a.scale_events) > 0  # the policy actually acted

    def test_different_seed_different_trace(self):
        a = run_fleet(policy=self._reactive(), arrivals=self._diurnal(4),
                      horizon=60.0)
        b = run_fleet(policy=self._reactive(), arrivals=self._diurnal(5),
                      horizon=60.0)
        assert a.ttft_s != b.ttft_s


class TestHysteresisNoFlap:
    """ReactivePolicy's documented invariant: up_threshold >
    down_threshold means a scale-up can never immediately qualify for
    scale-down, cooldown or not."""

    def _obs(self, now, prov, rate, queue=0):
        return FleetObservation(now_s=now, queue_depth=queue,
                                n_live=prov, n_provisioning=0,
                                n_draining=0, utilization=0.9,
                                arrival_rate=rate,
                                service_rate_per_replica=1.0)

    def test_no_down_right_after_up(self):
        pol = ReactivePolicy(min_replicas=1, max_replicas=8,
                             target_utilization=1.0, cooldown_s=0.0)
        rate = 2.2  # rho = 1.1 at prov=2: over the up threshold
        assert pol.decide(self._obs(0.0, 2, rate)) == 3
        # same offered load, grown fleet, cooldown expired: must hold
        for t in (1.0, 50.0, 1000.0):
            assert pol.decide(self._obs(t, 3, rate)) == 3

    def test_cooldown_spaces_consecutive_events(self):
        pol = ReactivePolicy(min_replicas=1, max_replicas=8,
                             target_utilization=1.0, cooldown_s=10.0)
        assert pol.decide(self._obs(0.0, 1, 5.0)) == 2
        assert pol.decide(self._obs(1.0, 2, 5.0)) == 2   # cooling
        assert pol.decide(self._obs(11.0, 2, 5.0)) == 3  # expired

    def test_decision_sequence_never_flaps(self):
        """Closed loop at constant load: once the fleet stops moving it
        stays put — no up immediately followed by down or vice versa."""
        pol = ReactivePolicy(min_replicas=1, max_replicas=8,
                             target_utilization=1.0, cooldown_s=0.0)
        prov, sizes = 1, []
        for step in range(100):
            prov = pol.decide(self._obs(float(step), prov, 3.3))
            sizes.append(prov)
        deltas = [b - a for a, b in zip(sizes, sizes[1:]) if b != a]
        assert all(d > 0 for d in deltas)  # monotone approach, no flap
        assert sizes[-1] == sizes[-10]     # and it settled

    def test_hysteresis_band_required(self):
        with pytest.raises(ValueError, match="hysteresis"):
            ReactivePolicy(up_threshold=0.5, down_threshold=0.7)


class TestTraceReplay:
    """ArrivalSpec.sample_times must replay exactly the instants the DES
    poisson_process fires — the bridge that lets a functional run consume
    the trace a DES run was scored on."""

    @pytest.mark.parametrize("spec", [
        ArrivalSpec(rate_per_s=5.0, seed=3),
        ArrivalSpec(rate_per_s=5.0, seed=3, kind="diurnal",
                    diurnal_period_s=20.0, diurnal_amplitude=0.7),
        ArrivalSpec(rate_per_s=5.0, seed=3, kind="flash", flash_at_s=4.0,
                    flash_factor=10.0, flash_decay_s=3.0),
    ])
    def test_matches_des_draws(self, spec):
        env = Environment()
        des_times = []
        env.process(poisson_process(env, spec.mean_interarrival(),
                                    seed=spec.seed,
                                    on_event=lambda now: des_times.append(now),
                                    alive=lambda: env.now < 30.0),
                    name="arrivals")
        env.run(until=30.0)
        replay = spec.sample_times(horizon_s=30.0)
        assert len(replay) > 20
        assert replay == pytest.approx(des_times)


class TestFleetLedger:
    def test_static_fleet_pays_n_times_horizon(self):
        stats = run_fleet(horizon=20.0)
        assert stats.replica_seconds == pytest.approx(
            MODEL.n_replicas * 20.0, rel=0.01)
        assert stats.peak_replicas == MODEL.n_replicas
        assert stats.n_cold_starts == 0  # the initial fleet starts warm

    def test_disagg_run_counts_handoffs(self):
        model = FleetModel(serving=MODEL, disaggregated=True,
                           n_prefill_replicas=1, n_decode_replicas=2,
                           kv_transfer_s_per_token=1e-5)
        stats = run_fleet(model=model, policy=StaticPolicy(2), rate=10.0,
                          horizon=20.0)
        assert stats.n_rejected == 0
        assert stats.n_handoffs == stats.n_completed > 0

    @pytest.mark.parametrize("disaggregated", [False, True])
    def test_every_completion_leaves_a_request_span(self, disaggregated):
        """Long prompts clipped against ``seq_len`` leave one token to
        generate; disaggregated, that token lands at the KV handoff —
        which must complete the request on the one completion path."""
        spans = []
        stats = simulate_fleet(
            FleetModel(serving=ServingModel(n_replicas=2, g_inter=2),
                       disaggregated=disaggregated),
            StaticPolicy(1), ArrivalSpec(rate_per_s=20.0), 5.0,
            RequestSpec(mean_prompt=500, mean_new_tokens=4), spans=spans)
        assert stats.n_completed > 50
        assert sum(s.name == "request" for s in spans) == stats.n_completed

    def test_slo_shedding_is_counted_separately(self):
        """A tight per-class wait budget sheds load the queue-capacity
        backpressure path would have accepted."""
        admission = one_class(max_wait_s=0.02)
        stats = run_fleet(policy=StaticPolicy(1), rate=120.0, horizon=10.0,
                          admission=admission)
        assert stats.n_rejected_admission > 0
        assert stats.n_rejected_down == 0
        assert stats.n_admitted + stats.n_rejected_admission \
            + stats.n_rejected_backpressure == stats.n_arrived

    def test_replica_without_cold_start_serves_when_spawned(self):
        """With ``cold_start_s=0`` a replica the policy adds is warm at
        once and takes queued work on the same control tick, as a replica
        finishing its cold start does."""
        serving = ServingModel(n_replicas=1, g_inter=2, stage_alpha_s=1e-3,
                               decode_s_per_item=5e-4,
                               prefill_s_per_token=1e-4, max_batch=8)
        spans = []
        stats = run_fleet(model=FleetModel(serving=serving, cold_start_s=0.0,
                                           control_interval_s=0.5),
                          policy=StaticPolicy(2), rate=400.0, horizon=2.0,
                          spans=spans)
        assert stats.n_cold_starts == 0 and stats.peak_replicas == 2
        assert min(s.start for s in spans
                   if s.rank == 1 and s.name == "prefill") == 0.5

    def test_scale_events_recorded_with_kinds(self):
        mu = service_rate_per_replica(MODEL, SPEC)
        arrivals = ArrivalSpec(rate_per_s=1.5 * mu, seed=4, kind="diurnal",
                               diurnal_period_s=30.0,
                               diurnal_amplitude=0.8)
        stats = run_fleet(policy=ReactivePolicy(min_replicas=1,
                                                max_replicas=5,
                                                cooldown_s=2.0),
                          arrivals=arrivals, horizon=60.0)
        kinds = {e.kind for e in stats.scale_events}
        assert "up" in kinds and "down" in kinds
        assert stats.n_cold_starts > 0
        assert stats.n_retired > 0


class TestDesSharedFailurePath:
    """With drain_timeout_s=0 a retire decommissions immediately — the
    exact mirror of a crash, so the two runs must agree on everything
    except which counter ticked."""

    #: heavy enough that every replica holds in-flight work at the fault
    RATE = 1.5 * service_rate_per_replica(MODEL, SPEC)

    def _run(self, kind):
        model = FleetModel(serving=MODEL, cold_start_s=0.5,
                           control_interval_s=0.5, drain_timeout_s=0.0)
        plan = FaultPlan.of(Fault(kind=kind, rank=1, tick=5))
        return run_fleet(model=model, rate=self.RATE, horizon=20.0,
                         plan=plan)

    def test_crash_and_retire_runs_identical(self):
        crash = self._run("crash")
        retire = self._run("retire")
        assert crash.n_crashes == 1 and crash.n_retired == 0
        assert retire.n_retired == 1 and retire.n_crashes == 0
        assert crash.n_completed == retire.n_completed
        assert crash.n_restarts == retire.n_restarts
        assert crash.ttft_s == retire.ttft_s
        assert crash.sojourn_s == retire.sojourn_s

    def test_nothing_lost_and_orphans_restart(self):
        stats = self._run("crash")
        assert stats.n_restarts > 0
        assert stats.n_completed == stats.n_admitted

    def test_graceful_drain_avoids_restarts(self):
        """With a generous drain budget the retiring replica finishes its
        own work — same completions, no re-admissions."""
        model = FleetModel(serving=MODEL, cold_start_s=0.5,
                           control_interval_s=0.5, drain_timeout_s=30.0)
        plan = FaultPlan.of(Fault(kind="retire", rank=1, tick=5))
        stats = run_fleet(model=model, rate=self.RATE, horizon=20.0,
                          plan=plan)
        assert stats.n_retired == 1
        assert stats.n_restarts == 0
        assert stats.n_completed == stats.n_admitted

    def test_kv_handoff_dies_with_its_source_replica(self):
        """A priced KV transfer reads from the prefill replica: crash the
        source mid-read and the request restarts from its prompt instead
        of completing from a dead replica — and an interrupted transfer
        is not a handoff."""
        model = FleetModel(serving=MODEL, disaggregated=True,
                           n_prefill_replicas=2, n_decode_replicas=2,
                           kv_transfer_s_per_token=2e-2, cold_start_s=0.5,
                           control_interval_s=0.5, drain_timeout_s=2.0)
        plan = FaultPlan.of(Fault("crash", rank=0, tick=5))
        stats = run_fleet(model=model, policy=StaticPolicy(2), rate=20.0,
                          horizon=20.0, plan=plan, admission=None)
        assert stats.n_crashes == 1
        assert stats.n_restarts > 0  # transfers in flight at t=5 s
        assert stats.n_completed == stats.n_admitted > 0
        assert stats.n_handoffs == stats.n_completed
