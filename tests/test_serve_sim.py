"""Tests for repro.serve.sim (the DES serving twin) and the shared
repro.sim.poisson_process arrival utility."""

import numpy as np
import pytest

from repro.nn import GPTConfig
from repro.resilience import Fault, FaultPlan
from repro.serve import (ArrivalSpec, RequestSpec, ServingModel,
                         make_requests, simulate_closed_loop,
                         simulate_serving, sweep_offered_load)
from repro.serve.sim import ServingStats, _Cluster, _ReqState
from repro.serve.workload import request_sizes
from repro.sim import Environment, poisson_process

#: Cheap hand-set cost model — tests must not depend on the V100 numbers.
MODEL = ServingModel(n_replicas=2, g_inter=4, stage_alpha_s=1e-3,
                     decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                     max_batch=8)
SPEC = RequestSpec(mean_prompt=8, mean_new_tokens=8, seed=0)


def run(rate, horizon=20.0, **kw):
    return simulate_serving(MODEL, ArrivalSpec(rate_per_s=rate, seed=1),
                            horizon, request_spec=SPEC, **kw)


class TestPoissonProcess:
    def _collect(self, mean, seed, horizon=50.0):
        env = Environment()
        times = []
        env.process(poisson_process(env, mean, seed, times.append),
                    name="arrivals")
        env.run(until=horizon)
        return times

    def test_seeded_and_deterministic(self):
        a = self._collect(0.5, seed=3)
        b = self._collect(0.5, seed=3)
        assert a == b and len(a) > 50
        assert a != self._collect(0.5, seed=4)

    def test_mean_rate_matches(self):
        times = self._collect(0.1, seed=0, horizon=200.0)
        assert len(times) == pytest.approx(2000, rel=0.1)

    def test_callable_mean_is_time_varying(self):
        # 10x rate in [0, 10), nearly off afterwards
        mean = lambda now: 0.01 if now < 10.0 else 100.0
        times = self._collect(mean, seed=0, horizon=60.0)
        assert sum(t < 10.0 for t in times) > 500
        assert sum(t >= 10.0 for t in times) < 5

    def test_alive_gate_stops_events(self):
        env = Environment()
        times = []
        env.process(poisson_process(env, 0.5, 0, times.append,
                                    alive=lambda: env.now < 10.0),
                    name="arrivals")
        env.run(until=100.0)
        assert times and max(times) < 11.0

    def test_nonpositive_mean_rejected(self):
        env = Environment()
        proc = env.process(poisson_process(env, 0.0, 0, lambda t: None),
                           name="bad")
        with pytest.raises(ValueError):
            env.run()


class TestRequestSizes:
    """One clipping contract for the functional engine's request mix and
    both DES twins; every seeded trace hangs off its draw order."""

    CFG = GPTConfig(vocab_size=31, seq_len=32, n_layer=4, n_head=2,
                    hidden=12)

    def test_make_requests_lengths_are_pinned(self):
        def sizes(spec):
            return [(r.prompt.size, r.max_new_tokens)
                    for r in make_requests(self.CFG, 6, spec)]

        assert sizes(RequestSpec(seed=0)) == [
            (7, 9), (31, 1), (15, 14), (16, 6), (7, 9), (4, 5)]
        # long prompts: both clips engage (p <= seq_len - 1, p + m <= 32)
        assert sizes(RequestSpec(mean_prompt=40, mean_new_tokens=4,
                                 seed=1)) == [
            (31, 1), (31, 1), (24, 4), (10, 2), (12, 2), (28, 4)]

    def test_first_draws_match_the_des(self):
        """``make_requests`` draws its sizes through ``request_sizes``:
        prompt first, then budget, before anything else of the request."""
        spec = RequestSpec(mean_prompt=40, mean_new_tokens=4, seed=1)
        first = make_requests(self.CFG, 1, spec)[0]
        assert request_sizes(self.CFG.seq_len, spec,
                             np.random.default_rng(spec.seed)) == \
            (first.prompt.size, first.max_new_tokens)


class TestServingModel:
    def test_stage_time_components(self):
        t = MODEL.stage_time_s(4, 16)
        assert t == pytest.approx(1e-3 + 4 * 5e-4 + 16 * 1e-4)

    def test_rooflines_positive_and_ordered(self):
        decode = MODEL.decode_roofline_tok_s()
        token = MODEL.token_roofline_tok_s(SPEC.mean_prompt,
                                           SPEC.mean_new_tokens)
        assert 0 < token < decode

    def test_max_active_defaults_to_full_pipeline(self):
        assert MODEL.effective_pipeline_limit == MODEL.g_inter
        assert MODEL.effective_max_active == \
            MODEL.max_batch * MODEL.g_inter

    def test_from_cluster_derivation(self):
        from repro.nn import GPTConfig
        cfg = GPTConfig(vocab_size=51200, seq_len=2048, n_layer=32,
                        n_head=32, hidden=2560)
        m = ServingModel.from_cluster(cfg)
        assert m.decode_s_per_item > 0 and m.prefill_s_per_token > 0
        # decode is memory-bound: far more expensive per token than one
        # prefill token riding a batched matmul
        assert m.decode_s_per_item > 10 * m.prefill_s_per_token

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingModel(n_replicas=0)
        with pytest.raises(ValueError):
            ServingModel(decode_s_per_item=0.0)

    @pytest.mark.parametrize("kw", [{"pipeline_limit": -1},
                                    {"max_active": -2}])
    def test_negative_limits_rejected(self, kw):
        """A negative limit is an error, not a request for the default;
        0 still means "derive"."""
        with pytest.raises(ValueError, match="must be >= 0"):
            ServingModel(**kw)
        derived = ServingModel(**{key: 0 for key in kw})
        assert derived.effective_pipeline_limit == derived.g_inter
        assert derived.effective_max_active == \
            derived.max_batch * derived.g_inter


class TestReplicaPipeline:
    """A replica's stages are FIFO servers priced in closed form: a group
    leaves stage ``i`` at ``max(arrival, free_i) + cost``."""

    MODEL = ServingModel(n_replicas=2, g_inter=3, stage_alpha_s=1e-3,
                         decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                         max_batch=8)

    def _cluster(self):
        env = Environment()
        cluster = _Cluster(env, self.MODEL,
                           ServingStats(horizon_s=1.0, offered_req_s=0.0),
                           None)
        finished = []
        finish = cluster.finish_group

        def spy(rep, group):
            finished.append((env.now, rep.index, [st.rid for st in group]))
            finish(rep, group)

        cluster.finish_group = spy
        return env, cluster, finished

    def _dispatch_prefill_then_decode(self, env, cluster):
        """A 100-token prefill at t=0, then at t=1 ms a one-token decode
        group while the prefill is still on stage 0."""
        rep = cluster.replicas[0]
        prefill = _ReqState(0, 0.0, prompt_len=100, new_tokens=1)
        decode = _ReqState(1, 0.0, prompt_len=4, new_tokens=2)
        decode.tokens_done = 1
        rep.active[decode.rid] = decode
        rep.ready.append(decode)
        cluster.start_prefill(rep, prefill)
        env.run(until=1e-3)
        cluster.start_decode(rep)
        return rep, prefill, decode

    def test_exits_follow_the_fifo_recurrence(self):
        env, cluster, finished = self._cluster()
        self._dispatch_prefill_then_decode(env, cluster)
        p = self.MODEL.stage_time_s(0, 100)
        d = self.MODEL.stage_time_s(1, 0)
        prefill_exits = [0.0 + p]
        prefill_exits.append(prefill_exits[-1] + p)
        prefill_exits.append(prefill_exits[-1] + p)
        t = 1e-3
        for free in prefill_exits:  # the decode queues behind it
            t = max(t, free) + d
        env.run()
        assert finished == [(prefill_exits[-1], 0, [0]), (t, 0, [1])]
        assert t > 1e-3 + 3 * d

    def test_crash_in_flight_orphans_the_group_once(self):
        env, cluster, finished = self._cluster()
        rep, prefill, decode = self._dispatch_prefill_then_decode(env, cluster)
        env.run(until=2 * self.MODEL.stage_time_s(0, 100))
        cluster.crash(rep)
        env.run()
        # both exit events fire, but the dead replica finishes nothing:
        # the orphans restart from their prompts on replica 1
        assert [index for _, index, _ in finished] == [1, 1, 1]
        assert cluster.stats.n_restarts == 2
        assert prefill.restarts == decode.restarts == 1
        assert (prefill.tokens_done, decode.tokens_done) == (1, 2)
        assert cluster.stats.n_completed == 2


class TestOpenLoop:
    def test_deterministic_given_seeds(self):
        a, b = run(20.0), run(20.0)
        assert a.n_arrived == b.n_arrived
        assert a.n_completed == b.n_completed
        assert a.tokens_out == b.tokens_out
        assert a.ttft_s == b.ttft_s

    def test_throughput_saturates_near_roofline(self):
        roofline = MODEL.token_roofline_tok_s(SPEC.mean_prompt,
                                              SPEC.mean_new_tokens)
        light = run(0.3 * roofline / SPEC.mean_new_tokens)
        heavy = run(1.5 * roofline / SPEC.mean_new_tokens)
        # light load: delivered ~ offered; heavy load: saturates at the
        # bottleneck, between 70% of the roofline and the roofline itself
        assert light.throughput_tok_s < 0.5 * roofline
        assert 0.70 * roofline <= heavy.throughput_tok_s <= 1.02 * roofline

    def test_p99_ttft_diverges_past_saturation(self):
        roofline = MODEL.token_roofline_tok_s(SPEC.mean_prompt,
                                              SPEC.mean_new_tokens)
        light = run(0.3 * roofline / SPEC.mean_new_tokens)
        heavy = run(1.5 * roofline / SPEC.mean_new_tokens)
        assert heavy.ttft_percentile(99) > 5 * light.ttft_percentile(99)

    def test_backpressure_bounds_the_queue(self):
        roofline = MODEL.token_roofline_tok_s(SPEC.mean_prompt,
                                              SPEC.mean_new_tokens)
        heavy = run(2.0 * roofline / SPEC.mean_new_tokens)
        assert heavy.n_rejected > 0
        assert heavy.n_admitted == heavy.n_completed  # all admitted finish
        light = run(0.2 * roofline / SPEC.mean_new_tokens)
        assert light.n_rejected == 0

    def test_bursty_arrivals_preserve_mean_rate(self):
        horizon = 40.0
        const = simulate_serving(
            MODEL, ArrivalSpec(rate_per_s=10.0, seed=5), horizon,
            request_spec=SPEC)
        burst = simulate_serving(
            MODEL, ArrivalSpec(rate_per_s=10.0, seed=5, burst_factor=2.5,
                               burst_period_s=8.0, burst_fraction=0.25),
            horizon, request_spec=SPEC)
        expected = 10.0 * horizon
        assert const.n_arrived == pytest.approx(expected, rel=0.2)
        assert burst.n_arrived == pytest.approx(expected, rel=0.2)

    def test_spans_emitted_on_serve_stream(self):
        spans = []
        stats = run(10.0, spans=spans)
        assert stats.n_completed > 0
        names = {s.name for s in spans}
        assert "request" in names and "prefill" in names
        assert any(n.startswith("decode") for n in names)
        assert all(s.stream == "serve" for s in spans)

    def test_sweep_rows_shape(self):
        rows = sweep_offered_load(MODEL, [0.3, 1.2], horizon_s=10.0,
                                  request_spec=SPEC)
        assert [r["load_fraction"] for r in rows] == [0.3, 1.2]
        for row in rows:
            for key in ("offered_tok_s", "throughput_tok_s",
                        "roofline_tok_s", "ttft_p50_ms", "ttft_p99_ms",
                        "tpot_ms", "completed", "rejected"):
                assert key in row


class TestClosedLoop:
    def test_littles_law_holds(self):
        stats = simulate_closed_loop(MODEL, n_clients=48, horizon_s=20.0,
                                     request_spec=SPEC)
        L = stats.mean_concurrency
        XW = stats.throughput_req_s * stats.mean_sojourn_s
        assert L > 0
        assert abs(L - XW) / L < 0.05


class TestFailover:
    def test_crash_reroutes_to_surviving_replica(self):
        roofline = MODEL.token_roofline_tok_s(SPEC.mean_prompt,
                                              SPEC.mean_new_tokens)
        plan = FaultPlan.of(Fault(kind="crash", rank=0, tick=10))
        spans = []
        stats = run(0.8 * roofline / SPEC.mean_new_tokens, horizon=20.0,
                    plan=plan, spans=spans)
        assert stats.n_restarts > 0
        assert stats.n_completed == stats.n_admitted  # nothing lost
        assert any(s.name == "replica-crash" for s in spans)

    def test_crash_of_all_replicas_loses_outstanding(self):
        model = ServingModel(n_replicas=1, g_inter=2, stage_alpha_s=1e-3,
                             decode_s_per_item=5e-4,
                             prefill_s_per_token=1e-4, max_batch=4)
        plan = FaultPlan.of(Fault(kind="crash", rank=0, tick=5))
        stats = simulate_serving(model, ArrivalSpec(rate_per_s=30.0,
                                                    seed=2), 10.0,
                                 request_spec=SPEC, plan=plan)
        assert stats.n_completed < stats.n_admitted
        # arrivals after the crash are rejected, not silently dropped
        assert stats.n_rejected > 0
