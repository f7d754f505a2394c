"""Tests for the communication-protocol verifier: trace recording from both
substrates, the static checks, and the deadlock wait-for-graph diagnosis."""

import numpy as np
import pytest

from repro.cluster import Machine, summit
from repro.comm import Message, Messenger
from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.obs.protocol import (
    ProtocolError,
    TraceRecorder,
    assert_clean,
    check_collective_order,
    check_match_order,
    check_unmatched_sends,
    verify_trace,
)
from repro.runtime import RECV, AxoNNTrainer, RankTransport


class TestChecks:
    def test_clean_trace_has_no_violations(self):
        tr = TraceRecorder()
        tr.record_send(0, 1, "forward", 0)
        tr.record_recv(1, 0, "forward", 0)
        assert verify_trace(tr) == []
        assert_clean(tr)  # must not raise

    def test_unmatched_send_detected(self):
        tr = TraceRecorder()
        tr.record_send(0, 1, "forward", 0)
        tr.record_send(0, 1, "forward", 1)
        tr.record_recv(1, 0, "forward", 0)
        violations = check_unmatched_sends(tr)
        assert len(violations) == 1
        assert violations[0].code == "UNMATCHED_SEND"
        assert "microbatch=1" in violations[0].message

    def test_match_order_mismatch_detected(self):
        tr = TraceRecorder()
        tr.record_send(0, 1, "forward", 0)
        tr.record_send(0, 1, "forward", 1)
        # Receiver consumed them in the wrong order.
        tr.record_recv(1, 0, "forward", 1)
        tr.record_recv(1, 0, "forward", 0)
        violations = check_match_order(tr)
        assert {v.code for v in violations} == {"MATCH_ORDER"}
        assert "position 0" in violations[0].message

    def test_phantom_recv_detected(self):
        tr = TraceRecorder()
        tr.record_recv(1, 0, "forward", 0)
        violations = check_match_order(tr)
        assert violations[0].code == "PHANTOM_RECV"

    def test_collective_order_divergence(self):
        tr = TraceRecorder()
        tr.record_collective(0, "allreduce", key=0)
        tr.record_collective(1, "allreduce", key=0)
        tr.record_collective(0, "allreduce", key=1)
        tr.record_collective(1, "allreduce", key=2)  # diverges at #1
        violations = check_collective_order(tr, groups=[[0, 1]])
        assert len(violations) == 1
        assert violations[0].code == "COLLECTIVE_ORDER"
        assert "#1" in violations[0].message

    def test_collective_order_clean_across_group(self):
        tr = TraceRecorder()
        for key in range(3):
            for rank in (0, 1, 2):
                tr.record_collective(rank, "allreduce", key=key)
        assert check_collective_order(tr, groups=[[0, 1, 2]]) == []

    def test_assert_clean_raises_with_listing(self):
        tr = TraceRecorder()
        tr.record_send(0, 1, "forward", 7)
        with pytest.raises(ProtocolError, match="UNMATCHED_SEND"):
            assert_clean(tr)

    def test_clear_resets(self):
        tr = TraceRecorder()
        tr.record_send(0, 1, "x", 0)
        assert len(tr) == 1
        tr.clear()
        assert len(tr) == 0 and verify_trace(tr) == []


class TestRankTransportRecording:
    def test_ping_pong_trace_is_clean(self):
        rec = TraceRecorder()
        tr = RankTransport(2, recorder=rec)

        def a():
            tr.send(0, 1, "ping", 0)
            yield RECV

        def b():
            yield RECV
            tr.send(1, 0, "pong", 0)

        tr.run({0: a(), 1: b()})
        assert len(rec.sends()) == 2
        assert len(rec.recvs()) == 2
        assert_clean(rec)

    def test_orphan_visible_in_trace(self):
        rec = TraceRecorder()
        tr = RankTransport(2, recorder=rec, strict=False)

        def sender():
            tr.send(0, 1, "lost", 4)
            return
            yield  # pragma: no cover

        def idle():
            return
            yield  # pragma: no cover

        tr.run({0: sender(), 1: idle()})
        violations = check_unmatched_sends(rec)
        assert len(violations) == 1
        assert "tag='lost'" in violations[0].message


class TestTrainerRecording:
    def _trainer(self, recorder, precision="fp32"):
        cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=2, n_head=2,
                        hidden=16)
        return cfg, AxoNNTrainer(cfg, g_inter=2, g_data=2,
                                 microbatch_size=2, precision=precision,
                                 recorder=recorder)

    def _batch(self, cfg, batch_size=8):
        corpus = SyntheticCorpus(cfg.vocab_size, 2_000, seed=0)
        return LMBatches(corpus, batch_size=batch_size,
                         seq_len=cfg.seq_len).batch(0)

    def test_full_batch_trace_verifies_clean(self):
        rec = TraceRecorder()
        cfg, trainer = self._trainer(rec)
        x, y = self._batch(cfg)
        trainer.train_batch(x, y)
        assert len(rec.sends()) > 0 and len(rec.recvs()) > 0
        columns = [trainer.grid.data_parallel_ranks(i)
                   for i in range(trainer.grid.g_inter)]
        assert_clean(rec, groups=columns)

    def test_collectives_recorded_per_column(self):
        rec = TraceRecorder()
        cfg, trainer = self._trainer(rec)
        x, y = self._batch(cfg)
        trainer.train_batch(x, y)
        colls = rec.collectives()
        assert colls, "fp32 data-parallel phase must record collectives"
        assert {e.tag for e in colls} == {"allreduce_fp32"}
        # Every rank of every column participated.
        ranks_seen = {e.rank for e in colls}
        assert ranks_seen == set(range(trainer.grid.world_size))

    def test_mixed_precision_records_chunked_collectives(self):
        rec = TraceRecorder()
        cfg, trainer = self._trainer(rec, precision="mixed")
        x, y = self._batch(cfg)
        trainer.train_batch(x, y)
        colls = rec.collectives()
        assert {e.tag for e in colls} == {"allreduce_fp16"}
        columns = [trainer.grid.data_parallel_ranks(i)
                   for i in range(trainer.grid.g_inter)]
        assert check_collective_order(rec, groups=columns) == []

    def test_training_unchanged_by_recording(self):
        """The recorder is observational: losses are bit-identical."""
        cfg, plain = self._trainer(None)
        _, recorded = self._trainer(TraceRecorder())
        x, y = self._batch(cfg)
        assert plain.train_batch(x, y).loss == \
            recorded.train_batch(x, y).loss


class TestProcessBackendRecording:
    """The protocol verifier over real-parallelism traces: worker
    processes replay their comm events into the parent's TraceRecorder,
    and the result must satisfy the same static checks as the
    cooperative backend's — indeed the identical per-rank sequences."""

    def _cfg(self):
        return GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2,
                         hidden=8, dropout=0.0, init_seed=5)

    def _batch(self):
        rng = np.random.default_rng(4)
        return (rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6)))

    def _record(self, backend, pipeline_limit=None):
        rec = TraceRecorder()
        trainer = AxoNNTrainer(self._cfg(), g_inter=2, g_data=1,
                               microbatch_size=2, backend=backend,
                               recorder=rec, pipeline_limit=pipeline_limit)
        x, y = self._batch()
        try:
            trainer.train_batch(x, y)
        finally:
            trainer.close()
        return rec

    def test_process_backend_trace_verifies_clean(self):
        rec = self._record("process")
        assert len(rec.sends()) > 0 and len(rec.recvs()) > 0
        assert verify_trace(rec) == []
        assert_clean(rec)

    def test_process_trace_matches_cooperative_trace(self):
        # One microbatch in flight: the last stage's drain can never find
        # a second activation, so each rank's interleaving is fixed.  With
        # two in flight it depends on arrival times on real cores (Algorithm
        # 2 groups whatever has arrived), and only the per-channel orders
        # are common to both backends.
        proc, coop = (self._record(backend, pipeline_limit=1)
                      for backend in ("process", "cooperative"))
        for rank in (0, 1):
            assert [(e.kind, e.peer, e.tag, e.microbatch)
                    for e in proc.events_of(rank)] == \
                   [(e.kind, e.peer, e.tag, e.microbatch)
                    for e in coop.events_of(rank)]

    @staticmethod
    def _channel_orders(rec):
        """{(src, dst): ([sent (tag, microbatch)], [received ...])}."""
        chans = {}
        for e in rec.sends():
            chans.setdefault((e.rank, e.peer), ([], []))[0].append(
                (e.tag, e.microbatch))
        for e in rec.recvs():
            chans.setdefault((e.peer, e.rank), ([], []))[1].append(
                (e.tag, e.microbatch))
        return chans

    def test_process_channels_match_cooperative_channels(self):
        # The trainer's default limit: two microbatches in flight, so the
        # last stage groups whatever has arrived.  Each channel's send
        # and receive order is still the same on both backends.
        proc, coop = (self._record(backend)
                      for backend in ("process", "cooperative"))
        orders = self._channel_orders(coop)
        assert orders[(0, 1)][0] == [("forward", 0), ("forward", 1)]
        assert self._channel_orders(proc) == orders


class TestMessengerRecording:
    def _setup(self, recorder=None):
        m = Machine(spec=summit(2))
        return m, Messenger(m, m.cal.mpi, recorder=recorder)

    def test_counters_count_on_delivery(self):
        """isend() alone must not bump the counters; delivery does."""
        m, msn = self._setup()
        msn.isend(Message(0, 1, 100, meta={"mb": 0}))
        msn.isend(Message(0, 1, 200, meta={"mb": 1}))
        assert msn.messages_sent == 0
        assert msn.bytes_sent == 0
        m.run()
        assert msn.messages_sent == 2
        assert msn.bytes_sent == 300

    def test_blocking_backend_counts_on_delivery_too(self):
        m = Machine(spec=summit(2))
        msn = Messenger(m, m.cal.nccl)
        msn.isend(Message(0, 1, 64, meta={"mb": 0}))
        assert msn.messages_sent == 0
        m.run()
        assert msn.messages_sent == 1

    def test_trace_records_send_and_recv(self):
        rec = TraceRecorder()
        m, msn = self._setup(recorder=rec)
        got = []

        def receiver(env):
            got.append((yield msn.irecv(1)))

        m.env.process(receiver(m.env), name="receiver")
        msn.isend(Message(0, 1, 512, tag="forward", meta={"mb": 3}))
        m.run()
        assert len(got) == 1
        assert [e.kind for e in rec.events] == ["send", "recv"]
        assert rec.events[0].microbatch == 3
        assert rec.events[1].peer == 0
        assert_clean(rec)

    def test_check_drained_flags_orphans(self):
        m, msn = self._setup()
        msn.isend(Message(0, 1, 64, tag="lost", meta={"mb": 9}))
        m.run()  # delivered into gpu 1's inbox, never received
        with pytest.raises(ProtocolError, match="tag='lost'"):
            msn.check_drained()

    def test_check_drained_passes_when_consumed(self):
        m, msn = self._setup()

        def receiver(env):
            yield msn.irecv(1)

        m.env.process(receiver(m.env), name="receiver")
        msn.isend(Message(0, 1, 64, meta={"mb": 0}))
        m.run()
        msn.check_drained()  # must not raise


class TestPipelinePhaseStrict:
    def test_pipeline_phase_trace_is_clean(self):
        from repro.core import AxoNNConfig, WEAK_SCALING_MODELS
        from repro.core.phases import run_pipeline_phase

        rec = TraceRecorder()
        cfg = AxoNNConfig(spec=WEAK_SCALING_MODELS["12B"], num_gpus=48,
                          g_inter=6, g_data=8, microbatch_size=8,
                          batch_size=512, include_optimizer=False,
                          memopt=False)
        machine = Machine(spec=summit(8))
        machine.env.process(
            run_pipeline_phase(machine, cfg, recorder=rec),
            name="phase-under-test")
        machine.run()  # strict=True: also exercises check_drained()
        assert len(rec.sends()) == len(rec.recvs()) > 0
        assert_clean(rec)
