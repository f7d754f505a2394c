"""Tests for repro.resilience: deterministic fault injection, failure
detection, and checkpoint-based recovery across both substrates."""

import json

import numpy as np
import pytest

from repro.nn import GPTConfig, LMBatches, LossScaler, SyntheticCorpus
from repro.obs import CATEGORIES, Tracer
from repro.resilience import (DELIVER, DROP, FailureModel, Fault,
                              FaultInjector, FaultPlan, ResilientTrainer,
                              RetryPolicy, fit_optimal_interval,
                              simulate_resilient_run, sweep_intervals,
                              young_daly_interval_s)
from repro.runtime import AxoNNTrainer
from repro.runtime.transport import (RECV, DeadlockError, RankFailure,
                                     RankTransport)

CFG = GPTConfig(vocab_size=17, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.1, init_seed=33)


def make_batches(seed=6):
    corpus = SyntheticCorpus(CFG.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=8, seq_len=CFG.seq_len)


def make_trainer(**kw):
    base = dict(g_inter=2, g_data=2, microbatch_size=2, lr=1e-3)
    base.update(kw)
    return AxoNNTrainer(CFG, **base)


# -- the fault model ----------------------------------------------------------

class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(11, n_ranks=4, n_steps=8)
        b = FaultPlan.random(11, n_ranks=4, n_steps=8)
        assert a.faults == b.faults
        c = FaultPlan.random(12, n_ranks=4, n_steps=8)
        assert a.faults != c.faults

    def test_json_round_trip(self):
        plan = FaultPlan.of(
            Fault(kind="crash", rank=1, step=2, tick=3),
            Fault(kind="drop", src=0, dst=1, tag="act", count=2),
            Fault(kind="straggler", rank=2, ticks=4),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.faults == plan.faults
        # and the JSON is a plain document (the --plan file format)
        doc = json.loads(plan.to_json())
        assert doc["faults"][0]["kind"] == "crash"

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(kind="meteor", rank=0)
        with pytest.raises(ValueError, match="rank"):
            Fault(kind="crash")
        with pytest.raises(ValueError, match="rank"):
            Fault(kind="straggler")

    def test_crash_filters_by_step(self):
        plan = FaultPlan.of(Fault(kind="crash", rank=0, step=3),
                            Fault(kind="crash", rank=1, step=5))
        assert [f.rank for f in plan.crashes(3)] == [0]
        assert len(plan.crashes()) == 2

    def test_matches_send_wildcards(self):
        f = Fault(kind="drop", src=0)
        assert f.matches_send(0, 1, "x", 0)
        assert f.matches_send(0, 2, "y", 9)
        assert not f.matches_send(1, 0, "x", 0)
        tagged = Fault(kind="drop", src=0, dst=1, tag="act")
        assert not tagged.matches_send(0, 1, "grad", 0)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        r = RetryPolicy(max_retries=4, base_backoff=1)
        assert [r.backoff(a) for a in range(4)] == [1, 2, 4, 8]

    def test_backoff_is_at_least_one_tick(self):
        assert RetryPolicy(base_backoff=0).backoff(0) == 1


class TestFaultInjector:
    def test_crash_fires_once_across_attempts(self):
        plan = FaultPlan.of(Fault(kind="crash", rank=1, step=0, tick=2))
        spent = set()
        first = FaultInjector(plan, step=0, spent=spent)
        assert [f.rank for f in first.crashes_due(2)] == [1]
        retry = FaultInjector(plan, step=0, spent=spent)
        assert retry.crashes_due(2) == []

    def test_crash_fires_at_or_after_tick(self):
        plan = FaultPlan.of(Fault(kind="crash", rank=0, step=0, tick=5))
        inj = FaultInjector(plan, step=0)
        assert inj.crashes_due(4) == []
        assert [f.rank for f in inj.crashes_due(7)] == [0]

    def test_drop_budget_is_consumed(self):
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=2))
        inj = FaultInjector(plan, step=0)
        assert inj.on_send(0, 1, "x", 0) == DROP
        assert inj.on_send(0, 1, "x", 1) == DROP
        assert inj.on_send(0, 1, "x", 2) == DELIVER

    def test_delays_accumulate(self):
        plan = FaultPlan.of(Fault(kind="straggler", rank=0, ticks=2),
                            Fault(kind="degrade", src=0, dst=1, ticks=3))
        inj = FaultInjector(plan, step=0)
        assert inj.on_send(0, 1, "x", 0) == 5
        assert inj.on_send(0, 2, "x", 0) == 2

    def test_injected_log(self):
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=1))
        inj = FaultInjector(plan, step=0)
        inj.on_send(0, 1, "act", 4)
        assert inj.injected and "drop" in inj.injected[0][1]


# -- transport fault layer ----------------------------------------------------

def _producer(transport, dst, payload):
    transport.send(0, dst, "data", 0, payload)
    return
    yield  # pragma: no cover - generator marker


class TestTransportFaults:
    @staticmethod
    def _consumer(got):
        pkt = yield RECV
        got.append(pkt.data)

    def test_dropped_send_is_retransmitted(self):
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=2))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj, retry=RetryPolicy())
        got = []
        t.run({0: _producer(t, 1, "hello"), 1: self._consumer(got)})
        assert got == ["hello"]
        assert t.lost_packets == []

    def test_drop_without_retry_loses_packet(self):
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=1))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj, strict=False)
        got = []
        with pytest.raises(DeadlockError):
            t.run({0: _producer(t, 1, "x"), 1: self._consumer(got)})
        assert got == []
        assert len(t.lost_packets) == 1
        assert t._send_times == {}

    def test_retry_budget_exhaustion_loses_packet(self):
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=99))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj, strict=False,
                          retry=RetryPolicy(max_retries=2))
        got = []
        with pytest.raises(DeadlockError):
            t.run({0: _producer(t, 1, "x"), 1: self._consumer(got)})
        assert got == []
        assert len(t.lost_packets) == 1
        assert t._send_times == {}

    def test_delayed_delivery(self):
        plan = FaultPlan.of(Fault(kind="delay", src=0, dst=1, ticks=3))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj)
        got = []

        def consumer():
            pkt = yield RECV
            got.append((pkt.data, t.tick))

        t.run({0: _producer(t, 1, "late"), 1: consumer()})
        assert len(got) == 1 and got[0][0] == "late"
        assert got[0][1] >= 3  # not before the injected delay

    def test_crash_is_detected_as_rank_failure(self):
        plan = FaultPlan.of(Fault(kind="crash", rank=1, step=0, tick=1))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj, detect_timeout=5)

        def waits_forever():
            while True:
                yield RECV

        def victim():
            while True:
                yield RECV

        with pytest.raises(RankFailure) as exc:
            t.run({0: waits_forever(), 1: victim()})
        assert exc.value.dead == [1]
        assert exc.value.detected_at > 1  # detection lags the crash
        assert 1 in t.dead

    def test_crash_after_completion_still_fails_the_batch(self):
        """A rank that dies after its program returned still fails the
        batch at the end-of-batch barrier."""
        plan = FaultPlan.of(Fault(kind="crash", rank=0, step=0, tick=50))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj)
        got = []

        def consumer():
            pkt = yield RECV
            got.append(pkt.data)

        with pytest.raises(RankFailure) as exc:
            t.run({0: _producer(t, 1, 1), 1: consumer()})
        assert exc.value.dead == [0]
        assert got == [1]  # the batch itself completed before the barrier

    def test_send_to_dead_rank_is_discarded(self):
        plan = FaultPlan.of(Fault(kind="crash", rank=1, step=0, tick=0))
        inj = FaultInjector(plan, step=0)
        t = RankTransport(2, injector=inj, detect_timeout=3, strict=False)

        def talker():
            t.send(0, 1, "data", 0, "into the void")
            while True:
                yield RECV

        def victim():
            while True:
                yield RECV

        with pytest.raises(RankFailure):
            t.run({0: talker(), 1: victim()})
        assert any(p.dst == 1 for p in t.lost_packets)

    def test_fault_free_transport_unchanged(self):
        """Without an injector the transport has no fault state on exit."""
        t = RankTransport(2)
        got = []

        def consumer():
            pkt = yield RECV
            got.append(pkt.data)

        t.run({0: _producer(t, 1, 7), 1: consumer()})
        assert got == [7]
        assert t.dead == set() and t.lost_packets == []


# -- recovery: the headline guarantee ----------------------------------------

class TestRecoveryEquivalence:
    def test_crash_recovery_is_bit_identical(self):
        """The acceptance test: inject rank crashes mid-run; the recovered
        loss trajectory and final parameters must be bit-identical to an
        uninterrupted run."""
        batches = make_batches()
        ref = make_trainer()
        ref_losses = [ref.train_batch(*batches.batch(i)).loss
                      for i in range(6)]

        plan = FaultPlan.of(Fault(kind="crash", rank=1, step=2, tick=3),
                            Fault(kind="crash", rank=3, step=4, tick=2))
        resilient = ResilientTrainer(make_trainer(), plan, detect_timeout=8)
        losses = [resilient.train_batch(*batches.batch(i)).loss
                  for i in range(6)]

        assert resilient.total_recoveries == 2
        assert losses == ref_losses  # bit-identical, not approx
        a, b = ref.gather_state(), resilient.trainer.gather_state()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    @pytest.mark.parametrize("follower", [1, 3])
    def test_tp_follower_crash_respawns_only_the_follower(self, follower):
        """A tensor-parallel follower holds no stage and no optimizer, so
        recovery rebuilds it alone and the run stays bit-identical.
        Ranks 1 and 3 are the followers at g_inter=2 x g_intra=2."""
        batches = make_batches()
        grid = dict(g_data=1, g_intra=2)
        ref = make_trainer(**grid)
        ref_losses = [ref.train_batch(*batches.batch(i)).loss
                      for i in range(3)]

        plan = FaultPlan.of(Fault(kind="crash", rank=follower, step=1,
                                  tick=2))
        resilient = ResilientTrainer(make_trainer(**grid), plan,
                                     detect_timeout=8)
        losses = [resilient.train_batch(*batches.batch(i)).loss
                  for i in range(3)]

        [event] = resilient.recoveries
        assert event.dead == (follower,)
        assert losses == ref_losses

    def test_recovery_with_replay(self):
        """snapshot_interval > 1 forces the rollback to silently replay
        intermediate batches; the result must still be bit-identical."""
        batches = make_batches()
        ref = make_trainer()
        ref_losses = [ref.train_batch(*batches.batch(i)).loss
                      for i in range(5)]

        plan = FaultPlan.of(Fault(kind="crash", rank=2, step=2, tick=2))
        resilient = ResilientTrainer(make_trainer(), plan,
                                     snapshot_interval=3, detect_timeout=8)
        losses = [resilient.train_batch(*batches.batch(i)).loss
                  for i in range(5)]

        assert losses == ref_losses
        [event] = resilient.recoveries
        assert event.restored_from == 0 and event.replayed == 2

    def test_mixed_precision_recovery(self):
        """Crash recovery under mixed precision restores the loss scale
        and its good-step counter bit-exactly."""
        batches = make_batches()
        scaler_kw = dict(init_scale=64, dynamic=True, growth_interval=3)
        ref = make_trainer(precision="mixed",
                           loss_scaler=LossScaler(**scaler_kw))
        ref_losses = [ref.train_batch(*batches.batch(i)).loss
                      for i in range(6)]

        plan = FaultPlan.of(Fault(kind="crash", rank=0, step=4, tick=2))
        resilient = ResilientTrainer(
            make_trainer(precision="mixed",
                         loss_scaler=LossScaler(**scaler_kw)),
            plan, detect_timeout=8)
        losses = [resilient.train_batch(*batches.batch(i)).loss
                  for i in range(6)]

        assert resilient.total_recoveries == 1
        assert losses == ref_losses
        assert resilient.trainer.scaler.scale == ref.scaler.scale
        assert resilient.trainer.scaler.good_steps == ref.scaler.good_steps

    def test_repeated_failures_give_up(self):
        """A batch that fails on every attempt exhausts the recovery
        budget with a clear error instead of looping forever."""
        batches = make_batches()
        resilient = ResilientTrainer(make_trainer(), FaultPlan.of(),
                                     max_recoveries_per_batch=2)

        def always_dies(x, y):
            raise RankFailure("injected", dead=[1], detected_at=7)

        resilient.trainer.train_batch = always_dies
        with pytest.raises(RuntimeError, match="giving up"):
            resilient.train_batch(*batches.batch(0))
        assert resilient.total_recoveries == 2

    def test_fault_spans_appear_in_tracer(self):
        """Injected faults, snapshots, and recoveries all emit ObsSpans."""
        tracer = Tracer()
        trainer = make_trainer(tracer=tracer)
        plan = FaultPlan.of(Fault(kind="crash", rank=1, step=1, tick=2))
        resilient = ResilientTrainer(trainer, plan, detect_timeout=8)
        batches = make_batches()
        for i in range(3):
            resilient.train_batch(*batches.batch(i))

        cats = {s.category for s in tracer.spans}
        assert {"fault", "recovery", "checkpoint"} <= cats
        assert all(c in CATEGORIES for c in cats)
        crash = [s for s in tracer.spans if s.name.startswith("crash-rank")]
        assert crash and crash[0].rank == 1

    def test_snapshot_interval_validation(self):
        with pytest.raises(ValueError):
            ResilientTrainer(make_trainer(), FaultPlan.of(),
                             snapshot_interval=0)


# -- the performance substrate ------------------------------------------------

class TestResilienceSim:
    BASE = dict(step_time_s=30.0, checkpoint_write_s=12.0, restart_s=60.0,
                mtbf_s=9375.0, interval_steps=10, total_steps=3000)

    def test_young_daly(self):
        assert young_daly_interval_s(10000, 50) == \
            pytest.approx((2 * 50 * 10000) ** 0.5)

    def test_run_is_deterministic(self):
        a = simulate_resilient_run(FailureModel(**self.BASE, seed=3))
        b = simulate_resilient_run(FailureModel(**self.BASE, seed=3))
        assert a == b
        c = simulate_resilient_run(FailureModel(**self.BASE, seed=4))
        assert a.total_time_s != c.total_time_s

    def test_no_failures_means_checkpoint_overhead_only(self):
        p = FailureModel(**{**self.BASE, "mtbf_s": 1e12,
                            "total_steps": 100})
        st = simulate_resilient_run(p)
        assert st.n_failures == 0
        assert st.n_checkpoints == 10
        assert st.total_time_s == pytest.approx(
            st.useful_time_s + st.checkpoint_time_s)

    def test_failures_cost_rework_and_restart(self):
        st = simulate_resilient_run(FailureModel(**self.BASE, seed=0))
        assert st.n_failures > 0
        assert st.lost_work_s > 0 and st.restart_time_s > 0
        assert st.total_time_s == pytest.approx(
            st.useful_time_s + st.checkpoint_time_s + st.lost_work_s
            + st.restart_time_s)
        assert 0 < st.efficiency < 1

    def test_spans_cover_the_lifecycle(self):
        spans = []
        simulate_resilient_run(FailureModel(**{**self.BASE,
                                               "total_steps": 300,
                                               "mtbf_s": 1500.0},
                                            seed=0), spans=spans)
        cats = {s.category for s in spans}
        assert {"compute", "checkpoint", "fault", "recovery"} <= cats

    def test_optimal_interval_matches_young_daly(self):
        """The acceptance test on the DES side: the fitted optimum of the
        MTBF x interval sweep lands within 20% of sqrt(2 C M)."""
        base = FailureModel(step_time_s=30.0, checkpoint_write_s=12.0,
                            restart_s=60.0, mtbf_s=9375.0,
                            interval_steps=10, total_steps=15000)
        yd = young_daly_interval_s(base.mtbf_s, base.checkpoint_write_s)
        steps = yd / base.step_time_s
        intervals = sorted({max(1, round(steps * f))
                            for f in (0.25, 0.5, 0.8, 1.0, 1.4, 2.0, 3.0)})
        rows = sweep_intervals(base, intervals, seeds=[0, 1, 2])
        fitted = fit_optimal_interval(rows)
        assert abs(fitted / yd - 1.0) <= 0.20

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FailureModel(step_time_s=0, checkpoint_write_s=1, restart_s=1,
                         mtbf_s=1, interval_steps=1, total_steps=1)
        with pytest.raises(ValueError):
            FailureModel(step_time_s=1, checkpoint_write_s=1, restart_s=1,
                         mtbf_s=1, interval_steps=0, total_steps=1)
        with pytest.raises(ValueError):
            fit_optimal_interval([{"interval_s": 1.0, "overhead": 0.1}])


class TestResilienceExperiment:
    def test_report_claims_hold(self):
        """The paper-scale sweep: optimal interval within 20% of Young/Daly
        at 48 and 384 GPUs, and shorter intervals at larger scale."""
        from repro.experiments import resilience_claims, resilience_rows
        rows = resilience_rows(models=("12B", "100B"), seeds=(0, 1))
        claims = resilience_claims(rows)
        assert claims["all_within_tolerance"], claims
        assert claims["interval_shrinks_with_scale"]
        for row in rows:
            assert row["gpus"] in (48, 384)
            assert 0.5 < row["optimum_ratio"] < 2.0
            assert row["best_measured_efficiency"] > 0.9

    def test_report_is_json_serializable(self):
        from repro.experiments import resilience_report
        report = resilience_report(models=("12B",), seeds=(0,),
                                   total_steps=4000)
        text = json.dumps(report, default=float)
        assert "mtbf_x_checkpoint_interval" in text
