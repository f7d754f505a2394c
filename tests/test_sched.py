"""Tests for repro.sched — schedules as data (PR 9).

The IR validator must reject malformed DAGs before anything runs; the
compiler must reproduce the send and receive orders recorded from the
hand-written flushing trainer it replaced (golden digests below) and
stay bit-identical across backends; every shipped schedule must train
to the same update and the new ones (interleaved, ZB-H1) beat 1F1B's
bubble; and every schedule the validator accepts must be provable by
the model checker (the hypothesis fuzz at the bottom drives random
perturbations through the full validate -> compile -> check pipeline).
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import (check_model, extract_skeleton,
                                  scheduled_model)
from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.experiments import replay_winner
from repro.obs import Tracer, member_events
from repro.obs.protocol import ProtocolError, TraceRecorder, assert_clean
from repro.resilience import (Fault, FaultInjector, FaultPlan,
                              ResilientTrainer, RetryPolicy)
from repro.runtime import RECV, AxoNNTrainer, DeadlockError, RankTransport
from repro.sched import (
    BWD,
    FWD,
    RECV_ACT,
    RECV_GRAD,
    SCHEDULE_NAMES,
    SEND_ACT,
    SEND_GRAD,
    W,
    Schedule,
    ScheduleError,
    build_schedule,
    critical_path,
    ir_bubble_fraction,
    peak_resident_activations,
    unit_cost,
    validate,
)
from repro.sched.des import simulate_schedule
from repro.sched.ir import Task
from repro.sched.search import perturb, search_schedules

CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=11)


def make_batches(batch_size=8, seed=0):
    corpus = SyntheticCorpus(CFG.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=batch_size, seq_len=CFG.seq_len)


#: What the hand-written flushing trainer recorded over three batches at
#: commit 29a9141, just before it was deleted — keyed by (schedule,
#: g_inter, g_data, microbatch_size).  Integers and strings only, so
#: machine-independent.  Per key: the event count; the sha256 of the
#: whole trace (:func:`trace_digest`), which also pins the cooperative
#: sweep's global interleaving; and the sha256 of what that trainer
#: actually fixed (:func:`invariant_digest`).  The invariant digests
#: were taken at 70c2696, where all four whole-trace digests still held
#: — the link back to 29a9141.  A schedule's rank program now runs on
#: ``RankTransport.run``, which hands a rank whatever has arrived
#: (an early forward waits in the walk's stash, not in a second inbox):
#: at ("1f1b", 4, 2, 1) that records some receives earlier *across*
#: channels, so that one whole-trace digest is re-recorded (it was
#: 7f33aed5…8567); every send order and per-channel receive order held.
#: The data-parallel reduce then became a rank program of its own
#: (``repro.runtime.column.ColumnStep``) that records each rank's
#: ``allreduce_fp32`` slots when that rank runs, where the trainer used
#: to record them slot by slot across the column: the two ``g_data=2``
#: whole-trace digests moved again (they were 1187f556…f5371 and
#: 604778ee…009a7) with the same 606 events; the invariant digests held.
GOLDEN_TRACES = {
    ("1f1b", 2, 1, 2): (
        48, "17133644e87fb34fe8644b7815c831d00f3e850e62a483f84a471808e322fbf3",
        "3675aa0ef19261e08ddd07e514c489f1576d9c08c64bb9b3286bd20bb6c4f1c7"),
    ("1f1b", 4, 2, 1): (
        606, "7ae7be865bf3dc0f6c62ebb01ceafe76a9cdaf7d72d1ffce3d646e409571841e",
        "ca3f6fc8abb4b2d59b7ca85dd6e50cacd2f9da3ee881cbefe7b545312e4d43b3"),
    ("gpipe", 2, 1, 2): (
        48, "ead3b06651fd25c2a0457a0ff9a5819f093c0cf1b3e43d7437e47ffba455ba6f",
        "3675aa0ef19261e08ddd07e514c489f1576d9c08c64bb9b3286bd20bb6c4f1c7"),
    ("gpipe", 4, 2, 1): (
        606, "314ced28e959c185c29cdf28aa74bf70fb1ec1844849c0613beddf71e78882b6",
        "ac237cfe2a7d0119d308551d66466ac359d13a3e571497ac796b21d31b53433c"),
}


def _sha256(obj):
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def trace_digest(recorder):
    return len(recorder.events), _sha256(
        [(e.rank, e.kind, e.peer, e.tag, e.microbatch)
         for e in recorder.events])


def send_and_receive_orders(events):
    """What every run of a schedule shares, on either backend and under
    any sweep: each rank's sends in program order and each (src, dst)
    channel's receives in order — the property ``verify_trace`` checks.
    Takes recorder events or skeleton ops."""
    sends, recvs = {}, {}
    for e in events:
        if e.kind == "send":
            sends.setdefault(e.rank, []).append((e.peer, e.tag, e.microbatch))
        elif e.kind == "recv":
            recvs.setdefault((e.peer, e.rank), []).append(
                (e.tag, e.microbatch))
    return sorted(sends.items()), sorted(recvs.items())


def invariant_digest(recorder):
    return _sha256(send_and_receive_orders(recorder.events))


class TestValidator:
    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    @pytest.mark.parametrize("n_stages,m", [(2, 2), (2, 4), (4, 4)])
    def test_shipped_builders_validate(self, name, n_stages, m):
        try:
            sched = build_schedule(name, n_stages, m)
        except ValueError:
            pytest.skip(f"{name} rejects {n_stages}x{m}")
        validate(sched)  # builders validate at build; re-assert idempotent

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_schedule("wave", 2, 2)

    @staticmethod
    def _moved(sched, rank, task, before):
        """``sched`` with ``task`` moved to just before ``before`` in
        ``rank``'s program."""
        order = list(sched.rank_order[rank])
        order.remove(task)
        order.insert(order.index(before), task)
        orders = list(sched.rank_order)
        orders[rank] = tuple(order)
        return dataclasses.replace(sched, rank_order=tuple(orders))

    def test_missing_dependency_rejected(self):
        # Rank 0 owns stages 0 and 2: receiving stage 2's activation
        # before running the stage-0 forward it is computed from waits on
        # itself, through rank 1.
        sched = build_schedule("interleaved", 2, 4)
        bad = self._moved(sched, 0, Task(RECV_ACT, 2, 0), Task(FWD, 0, 0))
        with pytest.raises(ScheduleError, match="cycle"):
            validate(bad)

    def test_cycle_rejected(self):
        sched = build_schedule("zb-h1", 2, 3)
        bad = self._moved(sched, 0, Task(W, 0, 0), Task(BWD, 0, 0))
        with pytest.raises(ScheduleError, match="cycle"):
            validate(bad)

    @pytest.mark.parametrize("kind,stage", [
        (SEND_ACT, 1), (RECV_GRAD, 1), (RECV_ACT, 0), (SEND_GRAD, 0)])
    def test_message_without_a_crossing_boundary_rejected(self, kind, stage):
        """A message names a boundary that crosses ranks: none past the
        last stage or before the first (``stage``), and none between two
        stages of one rank, where the handoff is local (``1 - stage`` of
        a two-stage, one-rank pipeline)."""
        def rejected(sched, rank, task):
            orders = [list(o) for o in sched.rank_order]
            orders[rank].insert(0, task)
            bad = dataclasses.replace(
                sched, rank_order=tuple(tuple(o) for o in orders))
            with pytest.raises(ScheduleError, match=re.escape(
                    f"{task!r} names no stage boundary")):
                validate(bad)

        rejected(build_schedule("1f1b", 2, 2), stage, Task(kind, stage, 0))
        local = Schedule("local", 1, 2, 1, ((
            Task(FWD, 0, 0), Task(FWD, 1, 0), Task(BWD, 1, 0),
            Task(BWD, 0, 0)),))
        validate(local)
        rejected(local, 0, Task(kind, 1 - stage, 0))

    def test_dropped_w_means_a_full_backward(self):
        """Whether a backward is split is read off the program: without
        its ``W``, ``BWD`` is the whole backward everywhere."""
        zb = build_schedule("zb-h1", 2, 3)
        whole = dataclasses.replace(zb, rank_order=(
            tuple(t for t in zb.rank_order[0] if t != Task(W, 0, 0)),
            zb.rank_order[1]))
        validate(whole)
        assert not whole.has_w(0, 0) and whole.has_w(0, 1)
        cost = unit_cost(whole)
        assert (cost(Task(BWD, 0, 0)), cost(Task(BWD, 0, 1))) == (2.0, 1.0)
        # Released at BWD[0,0]: never releasing it would hold three.
        assert peak_resident_activations(whole) == (2, 1)
        split, full = simulate_schedule(zb), simulate_schedule(whole)
        assert full.busy[0] == pytest.approx(split.busy[0], rel=1e-4)

    def test_built_schedules_are_shared_frozen_values(self):
        sched = build_schedule("1f1b", 2, 4)
        assert build_schedule("1f1b", 2, 4) is sched
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.name = "mine"

    def test_fifo_swap_rejected(self):
        # Rank 0 produces microbatch 1 before 0 while rank 1 still
        # consumes 0 then 1: acyclic, but the channel FIFO is violated.
        sched = build_schedule("1f1b", 2, 2)
        orders = [list(o) for o in sched.rank_order]
        assert orders[0][:4] == [Task(FWD, 0, 0), Task(SEND_ACT, 0, 0),
                                 Task(FWD, 0, 1), Task(SEND_ACT, 0, 1)]
        orders[0][0], orders[0][2] = orders[0][2], orders[0][0]
        orders[0][1], orders[0][3] = orders[0][3], orders[0][1]
        bad = dataclasses.replace(
            sched, rank_order=tuple(tuple(o) for o in orders))
        with pytest.raises(ScheduleError, match="FIFO mismatch"):
            validate(bad)

    def test_activation_overflow_rejected(self):
        # GPipe holds every microbatch's activation through the flush.
        sched = build_schedule("gpipe", 2, 4)
        bad = dataclasses.replace(sched, activation_limit=1)
        with pytest.raises(ScheduleError, match="in-flight"):
            validate(bad)

    def test_misplaced_task_rejected(self):
        sched = build_schedule("1f1b", 2, 2)
        orders = [list(o) for o in sched.rank_order]
        orders[0][0] = Task(FWD, 1, 0)  # stage 1 lives on rank 1
        bad = dataclasses.replace(
            sched, rank_order=tuple(tuple(o) for o in orders))
        with pytest.raises(ScheduleError):
            validate(bad)


class TestMetrics:
    @pytest.mark.parametrize("n_stages,m", [(2, 4), (3, 6), (4, 8)])
    def test_1f1b_bubble_matches_closed_form(self, n_stages, m):
        closed = (n_stages - 1) / (m + n_stages - 1)
        assert ir_bubble_fraction(n_stages, m, "1f1b") == \
            pytest.approx(closed)
        cp = critical_path(build_schedule("1f1b", n_stages, m))
        assert cp.bubble_fraction == pytest.approx(closed)

    def test_interleaved_and_zb_beat_1f1b_at_4x8(self):
        bar = ir_bubble_fraction(4, 8, "1f1b")
        assert ir_bubble_fraction(4, 8, "interleaved") < bar
        assert ir_bubble_fraction(4, 8, "zb-h1") < bar

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            ir_bubble_fraction(0, 4)
        with pytest.raises(ValueError):
            ir_bubble_fraction(4, 0)

    def test_peak_resident_activations(self):
        # GPipe holds all m per rank; 1F1B caps rank r at S - r.
        assert peak_resident_activations(build_schedule("gpipe", 2, 4)) \
            == (4, 4)
        assert peak_resident_activations(build_schedule("1f1b", 4, 8)) \
            == (4, 3, 2, 1)
        # A split backward releases at W, not at BWD: deferring W[0,0]
        # past the next forward keeps a third activation resident.
        zb = build_schedule("zb-h1", 2, 3)
        assert peak_resident_activations(zb) == (2, 1)
        order = list(zb.rank_order[0])
        order.remove(Task("W", 0, 0))
        order.insert(order.index(Task(FWD, 0, 2)) + 1, Task("W", 0, 0))
        late_w = dataclasses.replace(
            zb, rank_order=(tuple(order), zb.rank_order[1]),
            activation_limit=None)
        validate(late_w)
        assert peak_resident_activations(late_w) == (3, 1)


class TestCompiledBitIdentity:
    @pytest.mark.parametrize("schedule", ["1f1b", "gpipe"])
    @pytest.mark.parametrize("g_inter,g_data,mbs", [(2, 1, 2), (4, 2, 1)])
    def test_matches_hardcoded_trainer(self, schedule, g_inter, g_data, mbs):
        """Compiled-IR 1F1B/GPipe replay the deleted hardcoded trainer's
        send and receive orders exactly (its losses and weights were
        pinned bit-identical to the compiler's while both existed;
        serial equivalence holds them now)."""
        batches = make_batches()
        recorder = TraceRecorder()
        comp = AxoNNTrainer(CFG, g_inter, g_data, mbs, schedule=schedule,
                            recorder=recorder)
        for i in range(3):
            comp.train_batch(*batches.batch(i))
        n, whole, invariant = GOLDEN_TRACES[(schedule, g_inter, g_data, mbs)]
        assert invariant_digest(recorder) == invariant
        assert trace_digest(recorder) == (n, whole)

    @staticmethod
    def _assert_backends_agree(cfg, schedule, n_batches):
        batches = make_batches()
        coop = AxoNNTrainer(cfg, 2, 1, 2, schedule=schedule)
        proc = AxoNNTrainer(cfg, 2, 1, 2, schedule=schedule,
                            backend="process")
        try:
            for i in range(n_batches):
                x, y = batches.batch(i)
                assert proc.train_batch(x, y).loss == \
                    coop.train_batch(x, y).loss
            cs, ps = coop.gather_state(), proc.gather_state()
            for k in cs:
                assert np.array_equal(ps[k], cs[k]), k
        finally:
            proc.close()

    def test_process_backend_bit_identical(self):
        self._assert_backends_agree(CFG, "1f1b", 2)

    @pytest.mark.parametrize("schedule", ["1f1b", "interleaved"])
    def test_process_backend_carries_dropout(self, schedule):
        """Dropout RNG streams make the round trip through the workers
        under a static schedule as under Algorithm 2: losses and weights
        equal the cooperative run's bit for bit."""
        self._assert_backends_agree(dataclasses.replace(CFG, dropout=0.1),
                                    schedule, 3)

    @pytest.mark.parametrize("name", ["axonn", "gpipe", "interleaved",
                                      "zb-h1"])
    def test_new_schedules_compute_the_same_update(self, name):
        """Every schedule only reorders work: losses must equal compiled
        1F1B's exactly (finite by implication)."""
        batches = make_batches()
        ref = AxoNNTrainer(CFG, 2, 1, 2, schedule="1f1b")
        cand = AxoNNTrainer(CFG, 2, 1, 2, schedule=name)
        for i in range(2):
            x, y = batches.batch(i)
            loss = cand.train_batch(x, y).loss
            assert np.isfinite(loss)
            assert loss == ref.train_batch(x, y).loss

    def test_trainer_rejects_bad_configs(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            AxoNNTrainer(CFG, 2, 1, 2, schedule="wave")
        with pytest.raises(ValueError, match="built for 4 stages"):
            AxoNNTrainer(CFG, 2, 1, 2, schedule=build_schedule("1f1b", 4, 4))
        with pytest.raises(ValueError, match="8 virtual stages"):
            AxoNNTrainer(CFG, 4, 1, 2, schedule="interleaved")
        # what a static order cannot honour is refused, not ignored
        with pytest.raises(ValueError, match="pipeline_limit"):
            AxoNNTrainer(CFG, 2, 1, 2, schedule="1f1b", pipeline_limit=2)
        fixed = AxoNNTrainer(CFG, 2, 1, 2,
                             schedule=build_schedule("1f1b", 2, 2))
        x, y = make_batches().batch(0)  # 8 rows / mbs 2 = 4 per shard, not 2
        with pytest.raises(ValueError, match="built for 2 microbatches"):
            fixed.train_batch(x, y)


class TestOneTrainer:
    """A schedule decides *when* work runs, never what: everything the
    trainer does around the walk holds under every static order."""

    WET = dataclasses.replace(CFG, dropout=0.1)

    @pytest.mark.parametrize("offload", [False, True])
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_mixed_precision_equals_message_driven(self, schedule, offload):
        batches = make_batches()
        ref = AxoNNTrainer(self.WET, 2, 2, 2, precision="mixed",
                           offload=offload)
        cand = AxoNNTrainer(self.WET, 2, 2, 2, precision="mixed",
                            offload=offload, schedule=schedule)
        for i in range(4):
            x, y = batches.batch(i)
            r, c = ref.train_batch(x, y), cand.train_batch(x, y)
            assert (c.loss, c.applied, c.loss_scale) == \
                (r.loss, r.applied, r.loss_scale)

    @pytest.mark.parametrize("schedule", ["1f1b", "interleaved"])
    def test_sigkill_recovery_is_bit_identical(self, schedule):
        batches = [make_batches().batch(i) for i in range(4)]
        reference = AxoNNTrainer(self.WET, 2, 1, 2, schedule=schedule)
        ref_losses = [reference.train_batch(x, y).loss for x, y in batches]
        trainer = AxoNNTrainer(self.WET, 2, 1, 2, schedule=schedule,
                               backend="process")
        resilient = ResilientTrainer(
            trainer, FaultPlan.of(Fault("crash", rank=1, step=2, tick=3)))
        try:
            losses = [resilient.train_batch(x, y).loss for x, y in batches]
        finally:
            trainer.close()
        assert resilient.total_recoveries == 1
        assert losses == ref_losses  # exact equality, not approx

    @pytest.mark.parametrize("schedule", (None,) + SCHEDULE_NAMES)
    def test_cooperative_crash_recovery_is_bit_identical(self, schedule):
        """One ``FaultPlan`` under every walk: the cooperative sweep
        clock kills rank 1 mid-batch whichever rank program runs on it."""
        batches = [make_batches().batch(i) for i in range(4)]
        reference = AxoNNTrainer(self.WET, 2, 1, 2, schedule=schedule)
        ref_losses = [reference.train_batch(x, y).loss for x, y in batches]
        resilient = ResilientTrainer(
            AxoNNTrainer(self.WET, 2, 1, 2, schedule=schedule),
            FaultPlan.of(Fault("crash", rank=1, step=2, tick=3)))
        losses = [resilient.train_batch(x, y).loss for x, y in batches]
        assert resilient.total_recoveries == 1
        assert losses == ref_losses  # exact equality, not approx

    @pytest.mark.parametrize("schedule", (None,) + SCHEDULE_NAMES)
    def test_late_messages_move_the_clock_not_the_losses(self, schedule):
        batches = [make_batches().batch(i) for i in range(2)]

        def run(plan, g_inter=2, **kwargs):
            tracer = Tracer()
            trainer = AxoNNTrainer(self.WET, g_inter, 1, 2, schedule=schedule,
                                   tracer=tracer, **kwargs)
            nets = []
            if plan is not None:
                def factory():
                    nets.append(RankTransport(g_inter, injector=FaultInjector(
                        plan, step=len(nets)), retry=RetryPolicy()))
                    return nets[-1]
                trainer.transport_factory = factory
            losses = [trainer.train_batch(x, y).loss for x, y in batches]
            return losses, [net.tick for net in nets], tracer.spans

        losses, _, _ = run(None)
        on_time_losses, on_time, _ = run(FaultPlan.of())
        late_losses, late, _ = run(FaultPlan.of(
            Fault("straggler", rank=0, ticks=3),
            Fault("delay", src=1, dst=0, ticks=2)))
        assert late_losses == on_time_losses == losses  # exact
        assert all(a > b for a, b in zip(late, on_time))
        if schedule is not None:
            return
        # A delay moves a whole group (its members are sent in one visit),
        # so the split comes from one late packet: the middle stage of a
        # 3-deep pipeline, whose forward groups are pairs, loses its first
        # gradient once and gets it resent behind its group mate.  The walk
        # runs the half that arrived, and still agrees exactly.
        split_losses, _, spans = run(FaultPlan.of(
            Fault("drop", src=2, dst=1, step=0)), g_inter=3,
            pipeline_limit=2)
        assert split_losses == losses

        def passes(kind):
            return [s for s in spans
                    if s.rank == 1 and s.name.startswith(kind)]
        group = {mb: s.with_meta()["width"] for s in passes("fwd")
                 for mb in s.with_meta()["microbatches"]}
        assert any(s.with_meta()["width"] < group[s.microbatch]
                   for s in passes("bwd"))

    @pytest.mark.parametrize("g_inter", [2, 4])
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_default_rings_carry_a_deep_batch(self, schedule, g_inter):
        """Ring sizing: a sender blocked on a full ring does not drain
        its inbox, so a static order that ran ahead of its consumer on
        the default ``4 x frame`` rings would wedge.  16 microbatches of
        32 KiB frames complete, and equal the cooperative run."""
        cfg = GPTConfig(vocab_size=19, seq_len=16, n_layer=6, n_head=2,
                        hidden=64, dropout=0.0, init_seed=11)
        mbs = 8  # 4 B x 8 x 16 x 64 = 32 KiB per boundary activation
        rng = np.random.default_rng(0)
        x = rng.integers(0, cfg.vocab_size, (16 * mbs, cfg.seq_len))
        y = rng.integers(0, cfg.vocab_size, (16 * mbs, cfg.seq_len))
        coop = AxoNNTrainer(cfg, g_inter, 1, mbs, schedule=schedule)
        proc = AxoNNTrainer(cfg, g_inter, 1, mbs, schedule=schedule,
                            backend="process")
        try:
            assert proc.train_batch(x, y).loss == coop.train_batch(x, y).loss
        finally:
            proc.close()

    @pytest.mark.parametrize("backend", ["cooperative", "process"])
    def test_tracer_sees_the_same_compute_spans(self, backend):
        """A static order is traceable like Algorithm 2: the same
        ``fwd{mb}`` / ``bwd{mb}`` compute work per rank, in whatever
        order — a grouped pass of Algorithm 2 is one span over its
        members (``member_events``) — plus ``net`` spans for what crossed
        a boundary."""
        x, y = make_batches().batch(0)

        def spans(schedule):
            tracer = Tracer()
            trainer = AxoNNTrainer(CFG, 2, 1, 2, schedule=schedule,
                                   tracer=tracer, backend=backend)
            try:
                trainer.train_batch(x, y)
            finally:
                trainer.close()
            return tracer.spans

        def compute(spans):
            return sorted((s.rank, s.stream, name) for s in spans
                          if s.category == "compute"
                          for name in member_events(s))

        static, driven = spans("1f1b"), spans(None)
        assert len(compute(static)) == 16  # 4 microbatches x fwd, bwd x 2
        assert compute(static) == compute(driven)
        assert sorted(s.name for s in static if s.stream == "net") == \
            ["B"] * 4 + ["F"] * 4
        chunked = spans("interleaved")
        assert len(compute(chunked)) == 32
        assert {s.name for s in chunked if s.stream == "net"} == \
            {"F@1", "F@2", "F@3", "B@0", "B@1", "B@2"}

    @pytest.mark.parametrize("schedule", ["1f1b", "interleaved"])
    def test_process_run_follows_the_proved_skeleton(self, schedule):
        """What the checker proves is what runs on real cores: a process-
        backend run sends, per rank, and receives, per channel, exactly
        the skeleton of ``scheduled_model``.  (Ring arrival interleaves a
        rank's channels nondeterministically, so the merged per-rank
        sequence is not comparable.)"""
        recorder = TraceRecorder()
        trainer = AxoNNTrainer(CFG, 2, 1, 2, schedule=schedule,
                               recorder=recorder, backend="process")
        try:
            trainer.train_batch(*make_batches().batch(0))
        finally:
            trainer.close()
        assert_clean(recorder)
        skeleton = extract_skeleton(scheduled_model(schedule, 2, 1, 4))
        assert send_and_receive_orders(recorder.events) == \
            send_and_receive_orders(
                op for ops in skeleton.ops.values() for op in ops)


class TestPump:
    """The failure paths a static order's scheduler owes its rank
    programs — ``RankTransport.run``'s, since that is what runs them."""

    def test_deadlock_is_typed_and_names_stuck_ranks_and_orphans(self):
        net = RankTransport(2)

        def rank0():
            net.send(0, 1, "F", 0, None)
            net.send(0, 1, "F", 1, None)
            yield RECV  # never sent: rank 1 returns after one forward

        def rank1():
            yield RECV

        with pytest.raises(DeadlockError) as err:
            net.run({0: rank0(), 1: rank1()})
        assert err.value.stuck == [0]
        assert [(p.src, p.dst, p.tag, p.microbatch)
                for p in err.value.orphans] == [(0, 1, "F", 1)]
        assert "0 -> 1 tag='F' microbatch=1" in str(err.value)

    def test_only_recv_may_be_yielded(self):
        with pytest.raises(ProtocolError, match="may only yield RECV"):
            RankTransport(1).run({0: (request for request in ["F"])})


class TestSearch:
    def test_perturb_is_always_valid(self):
        sched = build_schedule("1f1b", 2, 4)
        rng = np.random.default_rng(7)
        for k in range(5):
            cand = perturb(sched, rng, n_swaps=3, label=f"p{k}")
            assert cand.name == f"p{k}"
            validate(cand)  # must not raise

    def test_search_is_deterministic_and_ranked(self):
        a = search_schedules(2, 4, n_perturbations=2, sigma=0.1, seed=3)
        b = search_schedules(2, 4, n_perturbations=2, sigma=0.1, seed=3)
        assert [r.name for r in a] == [r.name for r in b]
        assert [r.sim.makespan for r in a] == [r.sim.makespan for r in b]
        assert all(x.key <= y.key for x, y in zip(a, a[1:]))

    def test_replay_accepts_the_winner(self):
        results = search_schedules(2, 4, n_perturbations=2, sigma=0.1,
                                   seed=0)
        report = replay_winner(results[0].schedule, n_batches=1)
        assert report["accepted"]
        assert report["losses"] == pytest.approx(
            report["reference_losses"], rel=2e-4)


class TestCheckerIntegration:
    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    @pytest.mark.parametrize("g_inter,g_data,m", [(2, 1, 2), (2, 2, 2),
                                                  (4, 1, 4)])
    def test_shipped_schedules_prove_clean(self, name, g_inter, g_data, m):
        try:
            model = scheduled_model(name, g_inter, g_data, m)
        except ValueError:
            pytest.skip(f"{name} rejects {g_inter}x{m}")
        result = check_model(model)
        assert result.ok, result

    def test_schedule_instances_accepted(self):
        sched = build_schedule("zb-h1", 2, 3)
        assert check_model(scheduled_model(sched, 2, 1, 3)).ok
        with pytest.raises(ValueError):  # grid mismatch
            scheduled_model(sched, 4, 1, 3)


class TestFuzzPerturbedSchedules:
    """Validator-accepted implies checker-proven (or an honest reject)."""

    @given(name=st.sampled_from(["1f1b", "gpipe", "zb-h1", "axonn"]),
           seed=st.integers(0, 10_000), n_swaps=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_valid_perturbation_is_deadlock_free(self, name, seed, n_swaps):
        sched = build_schedule(name, 2, 3)
        rng = np.random.default_rng(seed)
        cand = perturb(sched, rng, n_swaps=n_swaps)
        validate(cand)  # perturb() guarantees this; re-assert
        result = check_model(scheduled_model(cand, 2, 1, 3))
        assert result.ok, result

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_dropped_task_is_rejected(self, seed):
        # Every task in a 2-stage 1F1B is dataflow-required, so removing
        # any one must be caught statically, never at run time.
        sched = build_schedule("1f1b", 2, 3)
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, sched.n_stages))
        orders = [list(o) for o in sched.rank_order]
        del orders[r][int(rng.integers(0, len(orders[r])))]
        bad = dataclasses.replace(
            sched, rank_order=tuple(tuple(o) for o in orders))
        with pytest.raises(ScheduleError):
            validate(bad)
