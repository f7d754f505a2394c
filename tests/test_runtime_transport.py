"""Tests for the cooperative rank transport and the process grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.protocol import TraceRecorder
from repro.runtime import (POLL, RECV, DeadlockError, Packet, ProtocolError,
                           RankGrid, RankTransport)


class TestTransport:
    def test_send_and_receive(self):
        tr = RankTransport(2)
        got = []

        def receiver():
            pkt = yield RECV
            got.append(pkt)

        def sender():
            tr.send(0, 1, "forward", 7, data="payload")
            return
            yield  # pragma: no cover

        tr.run({0: sender(), 1: receiver()})
        assert got[0].tag == "forward"
        assert got[0].microbatch == 7
        assert got[0].data == "payload"

    def test_fifo_per_pair(self):
        tr = RankTransport(2)
        got = []

        def receiver():
            for _ in range(4):
                pkt = yield RECV
                got.append(pkt.microbatch)

        def sender():
            for mb in range(4):
                tr.send(0, 1, "t", mb)
            return
            yield  # pragma: no cover

        tr.run({0: sender(), 1: receiver()})
        assert got == [0, 1, 2, 3]

    def test_ping_pong(self):
        tr = RankTransport(2)
        log = []

        def a():
            tr.send(0, 1, "ping", 0)
            pkt = yield RECV
            log.append(("a-got", pkt.tag))

        def b():
            pkt = yield RECV
            log.append(("b-got", pkt.tag))
            tr.send(1, 0, "pong", 0)

        tr.run({0: a(), 1: b()})
        assert log == [("b-got", "ping"), ("a-got", "pong")]

    def test_poll_takes_what_has_arrived_and_never_waits(self):
        """``yield POLL`` resumes in the same visit: with the next packet
        already buffered (a receive like any other — recorded), or with
        None.  Rank 1 polls before anything is sent, blocks for the first
        packet, then drains the two behind it."""
        recorder = TraceRecorder()
        tr = RankTransport(2, recorder=recorder)
        got = []

        def sender():
            pkt = yield RECV  # rank 1 has polled once by now
            for mb in range(3):
                tr.send(0, 1, "t", mb)

        def drainer():
            got.append((yield POLL))
            tr.send(1, 0, "go", 0)
            pkt = yield RECV
            while pkt is not None:
                got.append(pkt.microbatch)
                pkt = yield POLL

        tr.run({0: sender(), 1: drainer()})
        assert got == [None, 0, 1, 2]
        assert [e.microbatch for e in recorder.recvs()
                if e.rank == 1] == [0, 1, 2]

    def test_deadlock_detected(self):
        tr = RankTransport(2)

        def waiter():
            yield RECV

        with pytest.raises(DeadlockError, match=r"ranks \[0, 1\]"):
            tr.run({0: waiter(), 1: waiter()})

    def test_protocol_violation(self):
        tr = RankTransport(1)

        def bad():
            yield "something else"

        with pytest.raises(RuntimeError, match="may only yield RECV"):
            tr.run({0: bad()})

    def test_self_send_rejected(self):
        tr = RankTransport(2)
        with pytest.raises(ValueError):
            tr.send(1, 1, "t", 0)

    def test_rank_bounds(self):
        tr = RankTransport(2)
        with pytest.raises(ValueError):
            tr.send(0, 5, "t", 0)
        with pytest.raises(ValueError):
            tr.pending(9)
        with pytest.raises(ValueError):
            RankTransport(0)

    def test_run_is_deterministic(self):
        def build():
            tr = RankTransport(3)
            order = []

            def worker(rank):
                if rank == 0:
                    tr.send(0, 1, "a", 0)
                    tr.send(0, 2, "b", 0)
                    return
                    yield  # pragma: no cover
                pkt = yield RECV
                order.append((rank, pkt.tag))
                if rank == 1:
                    tr.send(1, 2, "c", 1)
                if rank == 2:
                    pkt = yield RECV
                    order.append((rank, pkt.tag))

            tr.run({r: worker(r) for r in range(3)})
            return order

        assert build() == build()

    def test_strict_run_rejects_orphan_packets(self):
        """A send nobody receives is a protocol error under strict mode."""
        def programs(tr):
            def sender():
                tr.send(0, 1, "a", 0)
                tr.send(0, 2, "orphaned", 3)  # rank 2 never receives
                return
                yield  # pragma: no cover

            def receiver():
                yield RECV

            def idle():
                return
                yield  # pragma: no cover

            return {0: sender(), 1: receiver(), 2: idle()}

        tr = RankTransport(3)
        with pytest.raises(ProtocolError, match=r"0 -> 2 tag='orphaned'"):
            tr.run(programs(tr))

        tr = RankTransport(3, strict=False)
        tr.run(programs(tr))  # tolerated when explicitly requested
        assert tr.pending(2) == 1

    def test_protocol_error_is_typed(self):
        tr = RankTransport(1)

        def bad():
            yield "something else"

        with pytest.raises(ProtocolError):
            tr.run({0: bad()})
        assert issubclass(ProtocolError, RuntimeError)

    def test_generators_closed_on_deadlock(self):
        """Error exits close suspended rank programs (no leaked finally)."""
        tr = RankTransport(2)
        closed = []

        def waiter(rank):
            try:
                yield RECV
            finally:
                closed.append(rank)

        with pytest.raises(DeadlockError):
            tr.run({0: waiter(0), 1: waiter(1)})
        assert sorted(closed) == [0, 1]

    def test_generators_closed_on_protocol_error(self):
        tr = RankTransport(2)
        closed = []

        def waiter():
            try:
                yield RECV
            finally:
                closed.append("waiter")

        def bad():
            yield "not-recv"

        # The waiter (rank 0) suspends on RECV before rank 1 misbehaves.
        with pytest.raises(ProtocolError):
            tr.run({0: waiter(), 1: bad()})
        assert closed == ["waiter"]

    def test_deadlock_diagnosis_names_unmatched_send(self):
        """The wait-for-graph diagnosis points at the misrouted packet."""
        tr = RankTransport(3)

        def sender():
            # Misrouted: meant for rank 1, sent to rank 2 (who exits).
            tr.send(0, 2, "forward", 5)
            return
            yield  # pragma: no cover

        def starving():
            yield RECV  # waits forever

        def exits():
            return
            yield  # pragma: no cover

        with pytest.raises(DeadlockError) as excinfo:
            tr.run({0: sender(), 1: starving(), 2: exits()})
        err = excinfo.value
        msg = str(err)
        assert "wait-for graph" in msg
        assert "0 -> 2 tag='forward' microbatch=5" in msg
        assert err.stuck == [1]
        assert [
            (p.src, p.dst, p.tag, p.microbatch) for p in err.orphans
        ] == [(0, 2, "forward", 5)]

    def test_deadlock_wait_for_edges(self):
        """A rank that received from a peer is diagnosed as waiting on it."""
        tr = RankTransport(2)

        def feeder():
            tr.send(0, 1, "x", 0)
            return
            yield  # pragma: no cover

        def hungry():
            yield RECV
            yield RECV  # second message never comes

        with pytest.raises(DeadlockError) as excinfo:
            tr.run({0: feeder(), 1: hungry()})
        err = excinfo.value
        assert err.stuck == [1]
        assert err.wait_for == {1: [0]}
        assert "rank 1 waits on rank 0" in str(err)

    def test_messages_counted(self):
        tr = RankTransport(2)
        tr.send(0, 1, "x", 0)
        tr.send(0, 1, "x", 1)
        assert tr.messages_sent == 2
        assert tr.pending(1) == 2

    @given(n=st.integers(2, 6), chain_len=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_relay_chain_delivers_everything(self, n, chain_len):
        """Property: a token relayed through all ranks arrives intact."""
        tr = RankTransport(n)
        seen = []

        def relay(rank):
            for _ in range(chain_len):
                if rank == 0:
                    tr.send(0, 1, "tok", 0, data=0)
                pkt = yield RECV
                value = pkt.data + 1
                if rank == n - 1:
                    seen.append(value)
                    tr.send(rank, 0, "ack", 0, data=value)
                else:
                    tr.send(rank, rank + 1, "tok", 0, data=value)
            # rank 0 consumes final acks above via the same loop shape

        def head():
            for _ in range(chain_len):
                tr.send(0, 1 % n, "tok", 0, data=0)
                pkt = yield RECV
                assert pkt.tag == "ack"

        programs = {0: head()}
        for r in range(1, n):
            programs[r] = relay(r)
        tr.run(programs)
        assert seen == [n - 1] * chain_len


class TestRankGrid:
    def test_world_size(self):
        assert RankGrid(4, 3).world_size == 12

    def test_round_trip(self):
        g = RankGrid(4, 3)
        for i in range(4):
            for j in range(3):
                assert g.coord_of(g.rank_of(i, j)) == (i, j)

    def test_neighbours(self):
        g = RankGrid(3, 2)
        first = g.rank_of(0, 1)
        mid = g.rank_of(1, 1)
        last = g.rank_of(2, 1)
        assert g.prev_in_pipeline(first) is None
        assert g.next_in_pipeline(first) == mid
        assert g.prev_in_pipeline(mid) == first
        assert g.next_in_pipeline(last) is None
        assert g.is_first_stage(first)
        assert g.is_last_stage(last)

    def test_groups(self):
        g = RankGrid(3, 2)
        assert g.pipeline_ranks(0) == [0, 1, 2]
        assert g.pipeline_ranks(1) == [3, 4, 5]
        assert g.data_parallel_ranks(0) == [0, 3]
        assert g.data_parallel_ranks(2) == [2, 5]

    def test_bounds(self):
        g = RankGrid(2, 2)
        with pytest.raises(ValueError):
            g.rank_of(2, 0)
        with pytest.raises(ValueError):
            g.coord_of(4)
        with pytest.raises(ValueError):
            RankGrid(0, 1)

    @given(gi=st.integers(1, 6), gd=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_groups_partition_world(self, gi, gd):
        g = RankGrid(gi, gd)
        from_pipelines = sorted(
            r for j in range(gd) for r in g.pipeline_ranks(j))
        from_columns = sorted(
            r for i in range(gi) for r in g.data_parallel_ranks(i))
        assert from_pipelines == list(range(g.world_size))
        assert from_columns == list(range(g.world_size))
