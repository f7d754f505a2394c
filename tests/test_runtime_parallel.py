"""Tests for the real-parallelism execution backend: shared-memory rings,
the :class:`ProcessTransport` contract, worker failure semantics, the
per-rank JSONL span pipeline, and the cooperative transport's send-time
bookkeeping fixed alongside it.

Rank programs handed to :class:`ProgramSpec` must be module-level (they
pickle by reference across the process boundary), so every program used
here lives at the top of this module.
"""

import json
import os
import resource
import signal
import threading
import time

import numpy as np
import pytest

from repro.nn import GPTConfig
from repro.nn.blas import blas_threads, share_blas_threads
from repro.obs import (Tracer, merge_rank_jsonl, read_spans_jsonl,
                       write_chrome_trace_multiprocess)
from repro.obs.protocol import TraceRecorder
from repro.resilience import Fault, FaultPlan, ResilientTrainer, RetryPolicy
from repro.runtime import (POLL, RECV, AxoNNTrainer, ProcessPool,
                           ProcessTransport, ProgramSpec, RankFailure,
                           RankTransport, ShmRing, load_trainer,
                           ring_allreduce, save_trainer)
from repro.runtime import parallel
from repro.runtime.parallel import _payload_ok
from repro.runtime.shm import RingFull
from repro.runtime.transport import DeadlockError, ProtocolError


# -- module-level rank programs (ship to workers as ProgramSpecs) -------------

def pingpong(rank, send, payload):
    """Rank 0 sends ``payload`` to rank 1 and echoes back what returns."""
    if rank == 0:
        send(1, "ping", 0, payload)
        pkt = yield RECV
        return pkt.data
    pkt = yield RECV
    send(0, "pong", 0, pkt.data * 2)
    return None


def poller(rank, send, n):
    """Rank 0 sends ``n`` frames then waits for rank 1's tally; rank 1
    blocks for the first frame and polls for the rest — a POLL that finds
    the rings empty answers None, and rank 1 simply polls again."""
    if rank == 0:
        for mb in range(n):
            send(1, "data", mb, np.float32(mb))
        pkt = yield RECV
        return pkt.data
    pkt = yield RECV
    got = [pkt.microbatch]
    while len(got) < n:
        pkt = yield POLL
        if pkt is not None:
            got.append(pkt.microbatch)
    send(0, "tally", 0, np.asarray(got))
    return got


def compute_only(rank, send, value):
    """No communication at all: a plain function, not a generator."""
    return value + rank


def orphan_sender(rank, send):
    """Rank 0 sends two messages; rank 1 consumes only one."""
    if rank == 0:
        send(1, "data", 0, np.arange(3))
        send(1, "data", 1, np.arange(3))
        return None
        yield  # pragma: no cover - generator marker
    pkt = yield RECV
    return pkt.microbatch


def closure_sender(rank, send):
    """Tries to push a lambda through the ring (worker-side REP008)."""
    if rank == 0:
        send(1, "bad", 0, lambda: 1)  # lint-ok: REP008 deliberate violation
        return None
        yield  # pragma: no cover - generator marker
    pkt = yield RECV
    return pkt.data


def suicide(rank, send):
    """Rank 1 SIGKILLs itself mid-protocol; rank 0 blocks on the reply."""
    if rank == 0:
        send(1, "ping", 0, 1.0)
        pkt = yield RECV
        return pkt.data
    pkt = yield RECV
    os.kill(os.getpid(), signal.SIGKILL)  # never returns


def napper(rank, send, seconds):
    """No communication: every rank just sleeps (the parent has nothing
    to do but wait)."""
    time.sleep(seconds)
    return rank


def report_blas_threads(rank, send):
    return blas_threads()


def recap_blas_threads(rank, send):
    share_blas_threads(1)  # "one process on this machine"
    return blas_threads()


def wait_on_sleeper(rank, send, seconds):
    """Rank 0 blocks on a message rank 1 would send after ``seconds``."""
    if rank == 0:
        pkt = yield RECV
        return pkt.data
    time.sleep(seconds)
    send(0, "late", 0, 1.0)


def wait_on_raiser(rank, send):
    """Rank 0 blocks on a message that never comes: rank 1 raises."""
    if rank == 0:
        pkt = yield RECV
        return pkt.data
    raise ValueError("rank 1 gives up")


needs_openblas = pytest.mark.skipif(
    blas_threads() is None,
    reason="NumPy is not running on an OpenBLAS this process can reach")


# -- ShmRing ------------------------------------------------------------------

class TestShmRing:
    def test_roundtrip_and_counters(self):
        ring = ShmRing.create(4096)
        try:
            assert ring.pop() is None
            assert ring.frames() == 0
            ring.push(("tag", 0, 0.0, np.arange(4)))
            ring.push(("tag", 1, 0.0, None))
            assert ring.frames() == 2
            assert ring.unread() > 0
            tag, mb, _ts, data = ring.pop()
            assert (tag, mb) == ("tag", 0)
            np.testing.assert_array_equal(data, np.arange(4))
            assert ring.frames() == 1
            assert ring.pop()[1] == 1
            assert ring.frames() == 0
            assert ring.pop() is None
        finally:
            ring.close()
            ring.unlink()

    def test_wraparound_preserves_every_frame(self):
        ring = ShmRing.create(1024)
        payload = np.arange(13, dtype=np.float64)
        try:
            # Many pushes of a frame ~1/5 the capacity force the write
            # position to wrap the payload region repeatedly.
            for i in range(50):
                ring.push((i, payload * i))
                got_i, got = ring.pop()
                assert got_i == i
                np.testing.assert_array_equal(got, payload * i)
        finally:
            ring.close()
            ring.unlink()

    def test_attach_sees_creator_frames(self):
        ring = ShmRing.create(2048)
        try:
            ring.push("hello")
            other = ShmRing.attach(ring.name, 2048)
            try:
                assert other.frames() == 1
                assert other.pop() == "hello"
                assert ring.frames() == 0
            finally:
                other.close()
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_frame_rejected(self):
        ring = ShmRing.create(1024)
        try:
            with pytest.raises(RingFull):
                ring.push(np.zeros(4096, dtype=np.float64))
        finally:
            ring.close()
            ring.unlink()

    def test_drain(self):
        ring = ShmRing.create(2048)
        try:
            for i in range(5):
                ring.push(i)
            assert ring.drain() == [0, 1, 2, 3, 4]
            assert ring.frames() == 0
        finally:
            ring.close()
            ring.unlink()

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError):
            ShmRing.create(8)


# -- ProcessTransport ---------------------------------------------------------

class TestProcessTransport:
    def test_generic_programs_roundtrip(self):
        transport = ProcessTransport(2)
        try:
            data = np.arange(5, dtype=np.float32)
            results = transport.run({0: ProgramSpec(pingpong, data),
                                     1: ProgramSpec(pingpong, None)})
            np.testing.assert_array_equal(results[0], data * 2)
            assert results[1] is None
            assert transport.finished == {0, 1}
            assert transport.messages_sent == 2
        finally:
            transport.close()

    def test_poll_hits_are_receives(self):
        """A worker answers POLL with one pass over its rings: a hit is a
        receive like a blocking one — in channel order, recorded, traced
        as a p2p span."""
        recorder, tracer = TraceRecorder(), Tracer()
        transport = ProcessTransport(2, recorder=recorder, tracer=tracer)
        try:
            results = transport.run({r: ProgramSpec(poller, 5)
                                     for r in range(2)})
        finally:
            transport.close()
        assert results[1] == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(results[0], np.arange(5))
        assert [e.microbatch for e in recorder.recvs() if e.rank == 1] == \
            [0, 1, 2, 3, 4]
        assert sum(s.category == "p2p" for s in tracer.spans) == 6

    def test_plain_function_programs(self):
        transport = ProcessTransport(3)
        try:
            results = transport.run(
                {r: ProgramSpec(compute_only, 10) for r in range(3)})
            assert results == {0: 10, 1: 11, 2: 12}
        finally:
            transport.close()

    def test_pool_reusable_across_runs(self):
        transport = ProcessTransport(2)
        try:
            for i in range(3):
                results = transport.run(
                    {r: ProgramSpec(compute_only, i) for r in range(2)})
                assert results == {0: i, 1: i + 1}
        finally:
            transport.close()

    def test_strict_orphans_raise(self):
        transport = ProcessTransport(2)
        try:
            with pytest.raises(ProtocolError, match="orphan"):
                transport.run({0: ProgramSpec(orphan_sender),
                               1: ProgramSpec(orphan_sender)})
            assert len(transport.lost_packets) == 1
        finally:
            transport.close()

    def test_non_programspec_rejected(self):
        transport = ProcessTransport(2)
        try:
            with pytest.raises(ProtocolError, match="ProgramSpec"):
                transport.run({0: pingpong(0, lambda *a: None, None),
                               1: ProgramSpec(pingpong, None)})
        finally:
            transport.close()

    def test_parent_send_rejects_closures(self):
        transport = ProcessTransport(2)
        try:
            with pytest.raises(ProtocolError, match="REP008"):
                transport.send(0, 1, "bad", 0, lambda: 1)  # lint-ok: REP008
        finally:
            transport.close()

    def test_worker_send_rejects_closures(self):
        transport = ProcessTransport(2)
        try:
            with pytest.raises(RuntimeError, match="REP008"):
                transport.run({0: ProgramSpec(closure_sender),
                               1: ProgramSpec(compute_only, 0)})
        finally:
            transport.close()

    def test_sigkilled_worker_becomes_rank_failure(self):
        transport = ProcessTransport(2)
        try:
            with pytest.raises(RankFailure) as exc:
                transport.run({0: ProgramSpec(suicide),
                               1: ProgramSpec(suicide)})
            assert exc.value.dead == [1]
            assert transport.dead == {1}
        finally:
            transport.close()

    def test_parent_is_idle_while_workers_work(self):
        # gather blocks on the reply pipes and sentinels: six tick wakes
        # in 0.3 s, not 1500 polls (which cost the parent 55-65 ms here).
        transport = ProcessTransport(2)
        try:
            transport.run({r: ProgramSpec(compute_only, 0)
                           for r in range(2)})  # spawn outside the window
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.monotonic()
            out = transport.run({r: ProgramSpec(napper, 0.3)
                                 for r in range(2)})
            wall = time.monotonic() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            transport.close()
        assert out == {0: 0, 1: 1}
        assert wall >= 0.3
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        assert cpu < 0.030, f"parent burned {cpu * 1e3:.1f} ms while waiting"

    @needs_openblas
    def test_rank_workers_split_the_blas_threads(self):
        # Forked workers would each inherit a BLAS pool sized for the
        # whole machine; together they must not want more than the cores.
        cores = len(os.sched_getaffinity(0))
        mine = blas_threads()
        for n_ranks in (1, 2, 2 * cores):
            transport = ProcessTransport(n_ranks)
            try:
                got = transport.run({r: ProgramSpec(report_blas_threads)
                                     for r in range(n_ranks)})
            finally:
                transport.close()
            share = max(1, cores // n_ranks)
            assert all(1 <= t <= share for t in got.values()), got
        assert blas_threads() == mine  # the parent's own pool is untouched

    @needs_openblas
    def test_blas_share_is_a_cap_not_a_setting(self):
        # A worker already capped at one thread by the split asks again,
        # this time for "all the cores": the count must not go back up.
        transport = ProcessTransport(2 * len(os.sched_getaffinity(0)))
        try:
            got = transport.run({0: ProgramSpec(recap_blas_threads)})
        finally:
            transport.close()
        assert got == {0: 1}

    def test_sigkill_mid_batch_is_noticed_at_once(self):
        # Rank 1 would sleep for 20 s and the heartbeat backstop is 30 s
        # away: only the sentinel can end this run within a second.
        transport = ProcessTransport(2)
        killed_at = []

        def kill_rank_1():
            killed_at.append(time.monotonic())
            os.kill(transport.pool.workers[1].proc.pid, signal.SIGKILL)

        try:
            transport.pool.start()
            timer = threading.Timer(0.2, kill_rank_1)
            timer.start()
            try:
                with pytest.raises(RankFailure) as exc:
                    transport.run({r: ProgramSpec(wait_on_sleeper, 20.0)
                                   for r in range(2)})
                raised_at = time.monotonic()
            finally:
                timer.cancel()
                timer.join(timeout=5.0)
            assert exc.value.dead == [1]
            assert killed_at and raised_at - killed_at[0] < 1.0
            # the pool settled: survivor aborted, dead rank respawned
            assert transport.run({r: ProgramSpec(compute_only, 1)
                                  for r in range(2)}) == {0: 1, 1: 2}
        finally:
            transport.close()

    def test_error_reply_aborts_blocked_peers(self):
        # Rank 0 would wait forever (deadlock timeout: 60 s); rank 1's
        # traceback must surface as soon as its reply lands.
        transport = ProcessTransport(2)
        try:
            transport.pool.start()
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="rank 1 gives up"):
                transport.run({r: ProgramSpec(wait_on_raiser)
                               for r in range(2)})
            assert time.monotonic() - t0 < 2.0
        finally:
            transport.close()

    def test_payload_predicate(self):
        assert _payload_ok(np.arange(3))
        assert _payload_ok(3.5)
        assert _payload_ok(None)
        assert _payload_ok({"losses": [1.0]})
        assert not _payload_ok(lambda: 1)
        assert not _payload_ok((x for x in range(3)))


def test_ring_allreduce_process_backend_matches_cooperative():
    arrays = {r: np.random.default_rng(r).normal(size=23).astype(np.float32)
              for r in range(3)}
    coop = ring_allreduce({r: v.copy() for r, v in arrays.items()})
    proc = ring_allreduce({r: v.copy() for r, v in arrays.items()},
                          backend="process")
    for r in arrays:
        np.testing.assert_array_equal(proc[r], coop[r])


# -- per-rank JSONL spans and the merged multiprocess Chrome trace ------------

def test_worker_spans_merge_into_chrome_trace(tmp_path):
    tracer = Tracer()
    trace_dir = str(tmp_path / "ranks")
    os.makedirs(trace_dir)
    transport = ProcessTransport(2, tracer=tracer, trace_dir=trace_dir)
    try:
        transport.run({0: ProgramSpec(pingpong, np.arange(3)),
                       1: ProgramSpec(pingpong, None)})
    finally:
        transport.close()

    spans, pids = merge_rank_jsonl(trace_dir)
    assert spans, "workers wrote no spans"
    assert pids and all(pid != os.getpid() for pid in pids.values())
    # Spans come back aligned to the parent's clock origin and sorted.
    assert all(a.start <= b.start for a, b in zip(spans, spans[1:]))

    out = tmp_path / "trace.json"
    write_chrome_trace_multiprocess(str(out), trace_dir,
                                    extra_spans=tracer.spans)
    doc = json.loads(out.read_text())
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    real_pids = {e.get("pid") for e in events if e.get("ph") == "X"}
    assert any(pid in set(pids.values()) for pid in real_pids)


def test_span_jsonl_roundtrip(tmp_path):
    tracer = Tracer()
    tracer.record(0, "net", "forward", 0.0, 1.5, category="p2p",
                  microbatch=3)
    path = str(tmp_path / "rank0.jsonl")
    from repro.obs import append_spans_jsonl
    append_spans_jsonl(path, tracer.spans, pid=1234)
    spans, pids = read_spans_jsonl(path)
    assert pids == {0: 1234}
    assert spans[0].name == "forward"
    assert spans[0].microbatch == 3


# -- real SIGKILL mid-step, detected and recovered bit-identically ------------

def test_sigkill_recovery_is_bit_identical():
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    dropout=0.1, init_seed=5)
    rng = np.random.default_rng(4)
    batches = [(rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6)))
               for _ in range(3)]

    reference = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2)
    ref_losses = [reference.train_batch(x, y).loss for x, y in batches]

    plan = FaultPlan.of(Fault(kind="crash", rank=1, step=1, tick=1))
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2,
                           backend="process")
    resilient = ResilientTrainer(trainer, plan)
    try:
        losses = [resilient.train_batch(x, y).loss for x, y in batches]
    finally:
        trainer.close()

    assert resilient.total_recoveries == 1
    assert resilient.recoveries[0].dead == (1,)
    assert losses == ref_losses  # exact equality, not approx


def test_sigkill_tp_follower_respawns_only_the_follower():
    """A tensor-parallel *follower* holds no stage and no optimizer, so
    recovery respawns it alone and still converges bit-identically.
    Rank 1 at g_inter=2 x g_intra=2 is stage 0's follower (t=1)."""
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    dropout=0.0, init_seed=5)
    rng = np.random.default_rng(4)
    batches = [(rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6)))
               for _ in range(3)]

    reference = AxoNNTrainer(cfg, g_inter=2, g_data=1, g_intra=2,
                             microbatch_size=2)
    ref_losses = [reference.train_batch(x, y).loss for x, y in batches]

    plan = FaultPlan.of(Fault(kind="crash", rank=1, step=1, tick=1))
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, g_intra=2,
                           microbatch_size=2, backend="process")
    resilient = ResilientTrainer(trainer, plan)
    try:
        losses = [resilient.train_batch(x, y).loss for x, y in batches]
    finally:
        trainer.close()

    assert resilient.total_recoveries == 1
    assert resilient.recoveries[0].dead == (1,)  # the lead stays up
    assert losses == ref_losses  # exact equality, not approx


def test_sigkill_at_the_barrier_after_the_step_recovers_bit_identically():
    """A crash scheduled past the rank's last receive kills the worker at
    the end-of-batch barrier — after it reduced its column and stepped
    its optimizer into the shared block.  The rollback must take that
    step back: the run ends bit-identical to a fault-free one."""
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    dropout=0.1, init_seed=5)
    rng = np.random.default_rng(4)
    batches = [(rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6)))
               for _ in range(3)]
    kwargs = dict(g_inter=2, g_data=2, microbatch_size=1, precision="mixed",
                  offload=True, bucket_size=16, coarsening_k=2)
    reference = AxoNNTrainer(cfg, **kwargs)
    ref_losses = [reference.train_batch(x, y).loss for x, y in batches]

    plan = FaultPlan.of(Fault(kind="crash", rank=3, step=1, tick=10_000))
    trainer = AxoNNTrainer(cfg, backend="process", **kwargs)
    resilient = ResilientTrainer(trainer, plan)
    try:
        losses = [resilient.train_batch(x, y).loss for x, y in batches]
        state = trainer.gather_state()
    finally:
        trainer.close()

    assert resilient.total_recoveries == 1
    assert resilient.recoveries[0].dead == (3,)
    assert losses == ref_losses  # exact equality, not approx
    ref_state = reference.gather_state()
    assert all(np.array_equal(state[k], ref_state[k]) for k in ref_state)


@pytest.mark.parametrize("precision", ["fp32", "mixed", "offload"])
def test_process_checkpoint_mid_run_resumes_bit_for_bit(tmp_path, precision):
    """A checkpoint saved between steps of a process-backend run reads the
    live state out of the shared blocks; a fresh process trainer that
    loads it copies it into its own blocks and continues bit for bit."""
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    dropout=0.1, init_seed=5)
    kwargs = dict(g_inter=2, g_data=2, microbatch_size=1, backend="process")
    if precision != "fp32":
        kwargs.update(precision="mixed", offload=precision == "offload",
                      bucket_size=16, coarsening_k=2)
    rng = np.random.default_rng(7)
    batches = [(rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6)))
               for _ in range(4)]
    path = str(tmp_path / "mid.npz")

    first = AxoNNTrainer(cfg, **kwargs)
    try:
        for x, y in batches[:2]:
            first.train_batch(x, y)
        save_trainer(first, path)
        want = [first.train_batch(x, y).loss for x, y in batches[2:]]
    finally:
        first.close()
    # close() hands the trainer private copies of the state it viewed
    want_state = first.gather_state()

    resumed = AxoNNTrainer(cfg, **kwargs)
    try:
        load_trainer(resumed, path)
        got = [resumed.train_batch(x, y).loss for x, y in batches[2:]]
        got_state = resumed.gather_state()
    finally:
        resumed.close()
    assert got == want
    assert all(np.array_equal(got_state[k], want_state[k])
               for k in want_state)


def test_workers_trace_the_column_reduce_and_their_step():
    """At g_data=2 every lead worker records its own all-reduce chunks
    and optimizer steps, merged into the parent's one trace: Fig. 7 from
    measured time."""
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    init_seed=5)
    tracer = Tracer()
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=1,
                           precision="mixed", offload=True, bucket_size=16,
                           coarsening_k=2, tracer=tracer, backend="process")
    rng = np.random.default_rng(4)
    x, y = rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6))
    try:
        report = trainer.train_batch(x, y)
    finally:
        trainer.close()
    assert report.allreduce_chunks > 1
    for rank in range(4):
        chunks = sorted(s.name for s in tracer.spans
                        if s.rank == rank and s.category == "allreduce")
        n = -(-trainer.stages[rank].num_parameters() // 32)
        assert chunks == sorted(f"allreduce-chunk{c}" for c in range(n))
        assert all(s.stream == "aux" for s in tracer.spans
                   if s.rank == rank and s.category == "allreduce")
        steps = [s for s in tracer.spans
                 if s.rank == rank and s.category == "optimizer"]
        # one per chunk's buckets, one for the closing scatter
        assert len(steps) == n + 1
        assert {s.stream for s in steps} == {"compute"}


class TestFreshMicrobatchWidth:
    """The one thing the two backends bind differently in Algorithm 2
    (``rank_program(concurrent_peers=...)``): how the first stage starts
    its fresh microbatches.  Losses agree bit for bit either way."""

    CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2,
                    hidden=12, dropout=0.1, init_seed=11)

    def run(self, backend, g_inter=2, pipeline_limit=None, m=12):
        """(loss, the first stage's compute spans) of one traced batch of
        ``m`` one-row microbatches, with activation checkpointing."""
        tracer = Tracer()
        trainer = AxoNNTrainer(self.CFG, g_inter=g_inter, g_data=1,
                               microbatch_size=1,
                               pipeline_limit=pipeline_limit,
                               checkpoint_activations=True, tracer=tracer,
                               backend=backend)
        x, y = np.random.default_rng(0).integers(
            0, self.CFG.vocab_size, (2, m, self.CFG.seq_len))
        try:
            loss = trainer.train_batch(x, y).loss
        finally:
            trainer.close()
        return loss, [s for s in tracer.spans
                      if s.rank == 0 and s.category == "compute"]

    def test_process_first_stage_forwards_are_one_wide(self):
        """On real processes each fresh microbatch is its own pass, sent
        on as soon as it exists: a group would hold the first back while
        the next stage idles, which locked a two-stage pipeline into
        alternating pairs (x0.61)."""
        loss, first = self.run("process")
        fwds = [s for s in first if s.name.startswith("fwd")]
        assert len(fwds) == 12
        assert {s.with_meta()["width"] for s in fwds} == {1}
        assert loss == self.run("cooperative")[0]

    @pytest.mark.parametrize("g_inter,limit", [(2, 2), (3, 3), (2, 4)])
    def test_cooperative_first_stage_passes_are_pipeline_limit_wide(
            self, g_inter, limit):
        """No rank runs until the sender yields, so the fresh
        microbatches reach the next stage together anyway: the first
        stage runs each injection as one pass, and its backward covers
        the same group."""
        _, first = self.run("cooperative", g_inter, limit)
        assert len(first) == 2 * 12 // limit
        assert {s.with_meta()["width"] for s in first} == {limit}


def test_column_rings_hold_every_contribution():
    """Column peers push all their contributions before reading: a ring
    smaller than that would leave two peers blocked on each other's
    pushes, so a requested capacity grows to fit."""
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    init_seed=5)
    trainer = AxoNNTrainer(cfg, g_inter=1, g_data=2, microbatch_size=2,
                           backend="process",
                           backend_options={"ring_capacity": 1024})
    reference = AxoNNTrainer(cfg, g_inter=1, g_data=2, microbatch_size=2)
    rng = np.random.default_rng(4)
    x, y = rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6))
    try:
        numel = trainer.stages[0].num_parameters()
        assert trainer.process_backend.pool.ring_capacity >= 4 * numel
        assert trainer.train_batch(x, y).loss == \
            reference.train_batch(x, y).loss
    finally:
        trainer.close()


def test_failed_create_unlinks_what_the_pool_made(monkeypatch):
    """ENOSPC on /dev/shm half-way through building the pool: the rings
    made so far are unlinked and the original error surfaces."""
    def entries():
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
            else set()

    real_ring, real_block = ShmRing.create.__func__, \
        parallel._StateBlock.create.__func__
    for target, fail_at in ((ShmRing, 4), (parallel._StateBlock, 1)):
        calls = []

        def create(cls, *args, _real=real_ring if target is ShmRing
                   else real_block, _at=fail_at, _calls=calls):
            _calls.append(1)
            if len(_calls) == _at:
                raise OSError(28, "No space left on device")
            return _real(cls, *args)

        before = entries()
        monkeypatch.setattr(target, "create", classmethod(create))
        with pytest.raises(OSError, match="No space left") as exc:
            ProcessPool(3)  # all pairs: six rings, then the state block
        assert exc.value.errno == 28
        assert entries() - before == set()
        monkeypatch.undo()


def test_channel_faults_rejected_on_process_backend():
    cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2, hidden=8,
                    dropout=0.0, init_seed=5)
    plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, count=1))
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2,
                           backend="process")
    resilient = ResilientTrainer(trainer, plan)
    rng = np.random.default_rng(4)
    x, y = rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6))
    try:
        with pytest.raises(NotImplementedError, match="crash"):
            resilient.train_batch(x, y)
    finally:
        trainer.close()


# -- cooperative transport: send-time bookkeeping cannot leak -----------------

class TestSendTimesBookkeeping:
    @staticmethod
    def _producer(transport):
        for mb in range(4):
            transport.send(0, 1, "data", mb, float(mb))
        return None
        yield  # pragma: no cover - generator marker

    @staticmethod
    def _consumer(n):
        got = []
        for _ in range(n):
            pkt = yield RECV
            got.append(pkt.data)
        return got

    def test_delivered_sends_are_purged(self):
        tracer = Tracer()
        transport = RankTransport(2, tracer=tracer)
        transport.run({0: self._producer(transport),
                       1: self._consumer(4)})
        assert transport._send_times == {}

    def test_lost_sends_are_purged_not_leaked(self):
        from repro.resilience.faults import FaultInjector
        tracer = Tracer()
        plan = FaultPlan.of(Fault(kind="drop", src=0, dst=1, tag="data",
                                  count=4))
        injector = FaultInjector(plan, step=None)
        transport = RankTransport(
            2, tracer=tracer, injector=injector,
            retry=RetryPolicy(max_retries=0), strict=False)
        with pytest.raises(DeadlockError):
            transport.run({0: self._producer(transport),
                           1: self._consumer(4)})
        assert len(transport.lost_packets) == 4
        # The fix under test: losses must purge their _send_times entries
        # (they used to rot there forever, keyed by (src, dst, tag, mb)).
        assert transport._send_times == {}
