"""Real-parallelism execution backend: one OS process per rank.

The cooperative :class:`~repro.runtime.transport.RankTransport` sweeps
every rank program inside a single Python process — deterministic and
perfect for verification, but bound by one core.  This module provides the
other end of the trade: each rank program runs in its **own OS process**,
NumPy payloads move over :mod:`multiprocessing.shared_memory` ring buffers
(:mod:`repro.runtime.shm`), and the paper's "as fast as the hardware
allows" claim becomes literal on a multi-core machine.

Both backends implement the same contract
(:class:`~repro.runtime.transport.BaseRankTransport`) and drive the same
rank-program generators (:mod:`repro.runtime.rankprog`,
:mod:`repro.runtime.column`), so the schedule — and therefore the
numerics — are identical:

* every backward pass on a rank happens in microbatch order under *any*
  FIFO-respecting delivery (by induction from the first stage's injection
  order, the bwd channel out of the last stage carries microbatches in
  increasing order), so gradient accumulation order is
  concurrency-invariant;
* each worker ends the batch as Algorithm 1 does: it reduces its
  column's gradients with its data-parallel peers over rings of their
  own (the ``"dp"`` lane) and steps its own optimizer —
  :class:`~repro.runtime.column.ColumnStep`, the program the cooperative
  backend runs in-process, summing every slot in the fixed replica order
  whatever the arrival order;
* a lead rank's parameters and optimizer state live in one shared block
  that parent and worker both view, so nothing is copied per step;
* dropout RNG bit-generator states ship parent → worker before the batch
  and worker → parent after it.

The cross-backend fuzz test pins losses and weights bit-identical.

Failure semantics are *real*: a crash fault SIGKILLs the worker process;
the parent detects death via the process sentinel (and wall-clock
heartbeat staleness as a backstop) and raises
:class:`~repro.runtime.transport.RankFailure`, which the resilience layer
answers with its usual rollback-respawn — the dead worker process is
respawned transparently before the next batch.

Time units: the cooperative transport counts scheduler sweeps ("ticks");
here time is wall-clock — ``tick_s`` is the period of the heartbeat and
of the parent's liveness checks, and heartbeat timeouts are
``detect_timeout_s`` seconds.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import struct
import threading
import time
import traceback
import types
from multiprocessing import connection, shared_memory
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..nn import LossScaler, MixedPrecisionAdamW
from ..nn.blas import share_blas_threads
from ..obs import Tracer, append_spans_jsonl
from ..obs.protocol import ProtocolError, TraceRecorder
from .column import ColumnStep, make_optimizer
from .offload import BucketedOffloadAdamW
from .rankprog import rank_program
from .shm import (_POLL_SLEEP, _SPIN, RingAborted, ShmRing,
                  attach_shared_memory)
from .stage import _dropout_modules, build_shard
from .tp import book_tp_counters, record_tp_span
from .transport import (POLL, RECV, BaseRankTransport, DeadlockError,
                        Packet, RankFailure)

__all__ = ["ProcessTransport", "ProcessBackend", "ProcessPool",
           "ProgramSpec", "WorkerContext"]

# fork is the fast path (no module re-import per worker) and exists on
# every Linux; everything shipped over the control pipes is picklable, so
# the spawn fallback works too (macOS default since 3.8).
_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods()
    else "spawn")

#: default seconds between heartbeats and between the parent's liveness
#: checks
DEFAULT_TICK_S = 0.05
#: wall-clock heartbeat staleness before a live-looking rank is declared
#: dead (generous: the heartbeat only pauses during compute)
DEFAULT_DETECT_TIMEOUT_S = 30.0
#: wall-clock with zero progress and every rank blocked => deadlock
DEFAULT_HANG_TIMEOUT_S = 60.0

_STATUS_COMPUTING = 0
_STATUS_WAITING = 1

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def _payload_ok(data: Any) -> bool:
    """REP008's runtime twin: payloads crossing a process boundary must be
    arrays / plain picklable values — never closures or generators."""
    return not (callable(data) or isinstance(data, types.GeneratorType))


class _Aborted(Exception):
    """Internal: the run was aborted (peer death or parent decision)."""


class _StateBlock:
    """Tiny shared segment for cross-process liveness bookkeeping.

    Layout: ``[abort: u64][heartbeat: n x f64][recvs: n x u64]
    [status: n x u8]``.  Each field has exactly one writer (abort: parent;
    the per-rank fields: that rank's worker), so plain aligned stores are
    the only synchronization needed, exactly as in :class:`ShmRing`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, n: int, owner: bool):
        self._shm = shm
        self.n = n
        self._owner = owner
        self.buf = shm.buf

    @classmethod
    def size(cls, n: int) -> int:
        return 8 + 8 * n + 8 * n + n

    @classmethod
    def create(cls, n: int) -> "_StateBlock":
        shm = shared_memory.SharedMemory(create=True, size=cls.size(n))
        shm.buf[:cls.size(n)] = b"\x00" * cls.size(n)
        return cls(shm, n, owner=True)

    @classmethod
    def attach(cls, name: str, n: int) -> "_StateBlock":
        return cls(attach_shared_memory(name), n, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # abort flag (parent-written)
    @property
    def abort(self) -> bool:
        return _U64.unpack_from(self.buf, 0)[0] != 0

    def set_abort(self, value: bool) -> None:
        _U64.pack_into(self.buf, 0, 1 if value else 0)

    # per-rank fields (worker-written)
    def beat(self, rank: int) -> None:
        _F64.pack_into(self.buf, 8 + 8 * rank, time.monotonic())

    def heartbeat(self, rank: int) -> float:
        return _F64.unpack_from(self.buf, 8 + 8 * rank)[0]

    def bump_recvs(self, rank: int) -> None:
        off = 8 + 8 * self.n + 8 * rank
        _U64.pack_into(self.buf, off, _U64.unpack_from(self.buf, off)[0] + 1)

    def recvs(self, rank: int) -> int:
        return _U64.unpack_from(self.buf, 8 + 8 * self.n + 8 * rank)[0]

    def set_status(self, rank: int, status: int) -> None:
        self.buf[8 + 16 * self.n + rank] = status

    def status(self, rank: int) -> int:
        return self.buf[8 + 16 * self.n + rank]

    def close(self) -> None:
        self.buf = None
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:
                pass


class ProgramSpec:
    """A picklable rank-program description for :class:`ProcessTransport`.

    ``fn`` must be a module-level callable invoked in the worker as
    ``fn(rank, send, *args)``; it may return a generator (driven under the
    RECV protocol) or a plain value (a program with no receives).  The
    generator's ``return`` value becomes the program's result.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, *args: Any):
        self.fn = fn
        self.args = args


class WorkerContext:
    """Worker-side execution context: the rank's endpoints and bookkeeping.

    One instance lives for the worker's whole life; :attr:`cache` persists
    across commands (the trainer caches its rebuilt
    :class:`~repro.runtime.stage.PipelineStage` there so stage
    construction cost is paid once, not per batch).
    """

    def __init__(self, rank: int, n_ranks: int,
                 out_rings: Dict[int, ShmRing],
                 in_rings: Dict[int, ShmRing],
                 state: _StateBlock, tracer: Tracer,
                 trace_path: Optional[str],
                 dp_out: Optional[Dict[int, ShmRing]] = None,
                 dp_in: Optional[Dict[int, ShmRing]] = None):
        self.rank = rank
        self.n_ranks = n_ranks
        self.out_rings = out_rings
        self.in_rings = dict(sorted(in_rings.items()))
        #: the data-parallel step's own rings (the ``"dp"`` lane), apart
        #: from the walk's so a column peer that finished its walk early
        #: can never feed a message into this rank's walk
        self.dp_out = dp_out or {}
        self.dp_in = dict(sorted((dp_in or {}).items()))
        self.state = state
        self.tracer = tracer
        self.trace_path = trace_path
        self.cache: Dict[str, Any] = {}
        #: per-command bookkeeping, reset by the main loop
        self.events: List[Tuple] = []
        self.messages_sent = 0
        #: SIGKILL self when this many receives have completed (crash
        #: fault translation; None = no crash scheduled)
        self.kill_after: Optional[int] = None
        self._receives_done = 0

    # -- sending -----------------------------------------------------------
    def send(self, dst: int, tag: str, microbatch: int,
             data: Any = None) -> None:
        """Non-blocking-ish buffered send: one pickle + memcpy into the
        ``(rank, dst)`` ring; blocks only when the ring is full (bounded
        buffering — MPI_Isend with a finite buffer pool)."""
        ring = self.out_rings.get(dst)
        if ring is None:
            raise ProtocolError(
                f"rank {self.rank} has no channel to rank {dst}")
        if not _payload_ok(data):
            raise ProtocolError(
                f"rank {self.rank} sent a {type(data).__name__} to rank "
                f"{dst}: payloads crossing process boundaries must be "
                f"arrays or plain picklable values (REP008)")
        ts = self.tracer.now() if self.tracer.enabled else 0.0
        ring.push((tag, microbatch, ts, data), abort=self._abort_check)
        self.messages_sent += 1
        self.events.append(("send", self.rank, dst, tag, microbatch))

    def dp_send(self, dst: int, tag: str, microbatch: int,
                data: Any = None) -> None:
        """:meth:`send` on the ``"dp"`` lane: the column reduce and the
        overflow verdict, which are not the walk's point-to-point traffic
        (no events, no p2p span)."""
        ring = self.dp_out.get(dst)
        if ring is None:
            raise ProtocolError(
                f"rank {self.rank} has no data-parallel channel to rank "
                f"{dst}")
        ring.push((tag, microbatch, 0.0, data), abort=self._abort_check)

    def _abort_check(self) -> bool:
        self.state.beat(self.rank)
        return self.state.abort

    # -- receiving ---------------------------------------------------------
    def _maybe_crash(self) -> None:
        if self.kill_after is not None \
                and self._receives_done >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # never returns

    def _recv(self, take: Optional[Callable[[], Optional[Packet]]] = None
              ) -> Packet:
        """Poll the incoming rings (ascending source order) until a frame
        arrives; heartbeat every sweep; honor abort.  ``take`` reads the
        rings (default: the walk's, :meth:`_take`)."""
        if take is None:
            self._maybe_crash()
            take = self._take
        state, rank = self.state, self.rank
        state.set_status(rank, _STATUS_WAITING)
        try:
            spins = 0
            while True:
                state.beat(rank)
                packet = take()
                if packet is not None:
                    return packet
                if state.abort:
                    raise _Aborted(f"rank {rank} recv aborted")
                spins += 1
                if spins >= _SPIN:
                    time.sleep(_POLL_SLEEP)
        finally:
            state.set_status(rank, _STATUS_COMPUTING)

    def _poll(self) -> Optional[Packet]:
        """Answer a ``POLL``: one pass over the incoming rings, never
        waiting; a hit is a receive like :meth:`_recv`'s."""
        self._maybe_crash()
        self.state.beat(self.rank)
        return self._take()

    def _take(self) -> Optional[Packet]:
        """The first frame found on the incoming rings (ascending source
        order), booked as a receive; None when every ring is empty."""
        rank = self.rank
        for src, ring in self.in_rings.items():
            msg = ring.pop()
            if msg is not None:
                tag, microbatch, ts, data = msg
                self.state.bump_recvs(rank)
                self._receives_done += 1
                if self.tracer.enabled:
                    nbytes = int(getattr(data, "nbytes", 0)) \
                        if data is not None else None
                    self.tracer.record(
                        src, "net", tag, ts, self.tracer.now(),
                        category="p2p", microbatch=microbatch,
                        nbytes=nbytes, src=src, dst=rank)
                self.events.append(("recv", rank, src, tag, microbatch))
                return Packet(src, rank, tag, microbatch, data)
        return None

    def _take_dp(self) -> Optional[Packet]:
        """The first frame found on the ``"dp"`` lane's rings (ascending
        source order); None when every one is empty.  Counted for the
        parent's progress watch, but not toward a crash fault's receive
        count, which counts the walk's receives on both backends."""
        for src, ring in self.dp_in.items():
            msg = ring.pop()
            if msg is not None:
                tag, microbatch, _ts, data = msg
                self.state.bump_recvs(self.rank)
                return Packet(src, self.rank, tag, microbatch, data)
        return None

    def drive(self, gen: Generator, dp: bool = False) -> Any:
        """Drive one rank-program generator under the RECV protocol
        (``POLL`` answered by :meth:`_poll`); returns the generator's
        ``return`` value.  With ``dp`` its receives read the ``"dp"``
        lane (:meth:`_take_dp`) instead of the walk's rings."""
        take = self._take_dp if dp else None
        try:
            try:
                request = next(gen)
            except StopIteration as stop:
                return stop.value
            while True:
                if request == POLL:
                    try:
                        request = gen.send(self._poll() if take is None
                                           else take())
                    except StopIteration as stop:
                        return stop.value
                    continue
                if request != RECV:
                    raise ProtocolError(
                        f"rank {self.rank} yielded {request!r}; rank "
                        f"programs may only yield RECV or POLL")
                try:
                    request = gen.send(self._recv(take))
                except StopIteration as stop:
                    return stop.value
        finally:
            gen.close()


def _run_program_task(ctx: WorkerContext, spec: ProgramSpec) -> Any:
    """Generic worker task: build and drive one :class:`ProgramSpec`."""
    result = spec.fn(ctx.rank, ctx.send, *spec.args)
    if isinstance(result, types.GeneratorType):
        return ctx.drive(result)
    return result


def _worker_main(rank: int, n_ranks: int,
                 ring_names: Dict[Tuple, Tuple[str, int]],
                 state_name: str, conn, tick_s: float,
                 trace_origin: Optional[float],
                 trace_dir: Optional[str]) -> None:
    """Worker process entry: attach shared memory, loop over commands.

    Every command is ``("call", fn, args)`` with a module-level ``fn``
    invoked as ``fn(ctx, *args)``; the reply is ``(status, payload,
    events, spans, messages_sent)`` with status ``"ok"`` / ``"aborted"``
    / ``"error"``.  Spans are additionally streamed to
    ``{trace_dir}/rank{rank}.jsonl`` with the worker's real pid, so they
    survive a SIGKILL of this very process.
    """
    # This rank's share of the cores: n_ranks forked copies of a BLAS
    # pool sized for the whole machine starve one another (repro.nn.blas).
    share_blas_threads(n_ranks)
    # this rank's ends of the pool's channels, by lane: the walk's
    # ``(src, dst)`` and the data-parallel step's ``(src, dst, "dp")``
    ends: Dict[Tuple[str, bool], Dict[int, ShmRing]] = {
        (lane, out): {} for lane in ("walk", "dp") for out in (True, False)}
    for ch, (name, cap) in ring_names.items():
        lane = ch[2] if len(ch) > 2 else "walk"
        out = ch[0] == rank
        ends[lane, out][ch[1] if out else ch[0]] = ShmRing.attach(name, cap)
    out_rings, in_rings = ends["walk", True], ends["walk", False]
    dp_out, dp_in = ends["dp", True], ends["dp", False]
    state = _StateBlock.attach(state_name, n_ranks)
    tracer = Tracer(enabled=trace_origin is not None)
    if trace_origin is not None:
        # Align to the parent's origin: perf_counter is CLOCK_MONOTONIC on
        # Linux, shared across processes, so spans line up in one trace.
        tracer.origin = trace_origin
        # Ring instrumentation for the race detector: every completed
        # push/pop lands in this worker's span stream (and thus its JSONL
        # file, in program order) as a zero-width ``sync`` marker carrying
        # the byte range and the peer counter the operation synchronized
        # on.  repro.analysis.races rebuilds happens-before from these.
        def _ring_observer(ring_label, capacity):
            def observe(op, pos, size, seen):
                now = tracer.now()
                tracer.record(rank, "sync", f"ring-{op}", now, now,
                              category="other", ring=ring_label,
                              pos=int(pos), size=int(size),
                              capacity=capacity, seen=int(seen))
            return observe

        for (lane, out), rings in ends.items():
            suffix = "" if lane == "walk" else f":{lane}"
            for peer, ring in rings.items():
                label = f"{rank}->{peer}" if out else f"{peer}->{rank}"
                ring.observer = _ring_observer(label + suffix, ring.capacity)
    trace_path = (os.path.join(trace_dir, f"rank{rank}.jsonl")
                  if trace_dir is not None else None)
    ctx = WorkerContext(rank, n_ranks, out_rings, in_rings, state, tracer,
                        trace_path, dp_out, dp_in)
    state.beat(rank)

    # Beat from a daemon thread so the heartbeat tracks *process* liveness
    # rather than recv activity: a rank legitimately computing for longer
    # than detect_timeout_s (a deep stage, a degenerate one-rank pipeline)
    # must not read as dead.  NumPy kernels release the GIL, so the thread
    # keeps beating through long compute; a SIGSTOPped or swapped-out
    # worker stops beating, which is exactly what the detector is for.
    stop_beating = threading.Event()

    def _beater() -> None:  # pragma: no cover - timing-dependent helper
        while not stop_beating.wait(tick_s):
            state.beat(rank)

    threading.Thread(target=_beater, daemon=True,
                     name=f"rank{rank}-heartbeat").start()
    try:
        while True:
            cmd = conn.recv()
            if cmd[0] == "stop":
                break
            _verb, fn, args = cmd
            ctx.events = []
            ctx.messages_sent = 0
            ctx.kill_after = None
            ctx._receives_done = 0
            tracer.clear()
            state.beat(rank)
            try:
                payload = fn(ctx, *args)
                status = "ok"
            except (_Aborted, RingAborted):
                payload, status = None, "aborted"
            except BaseException:
                payload, status = traceback.format_exc(), "error"
            spans = list(tracer.spans)
            if trace_path is not None and spans:
                try:
                    append_spans_jsonl(trace_path, spans, pid=os.getpid())
                except OSError:
                    pass  # tracing must never take the worker down
            conn.send((status, payload, ctx.events, spans,
                       ctx.messages_sent))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        stop_beating.set()
        for rings in ends.values():
            for ring in rings.values():
                ring.close()
        state.close()


class _WorkerHandle:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class ProcessPool:
    """Owns the worker processes, rings and the shared state block.

    ``channels`` is the list of directed ``(src, dst)`` pairs that get a
    ring; pass None for all-pairs (fine for small worlds — the trainer
    passes just the pipeline-neighbor channels).  A ``(src, dst, "dp")``
    triple is a ring on the data-parallel step's own lane, which a
    worker reads only through ``WorkerContext.drive(gen, dp=True)``.
    """

    def __init__(self, n_ranks: int, *,
                 channels: Optional[List[Tuple[int, int]]] = None,
                 ring_capacity: int = 1 << 20,
                 tick_s: float = DEFAULT_TICK_S,
                 detect_timeout_s: float = DEFAULT_DETECT_TIMEOUT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 trace_origin: Optional[float] = None,
                 trace_dir: Optional[str] = None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        if channels is None:
            channels = [(s, d) for s in range(n_ranks)
                        for d in range(n_ranks) if s != d]
        self.channels = list(channels)
        self.ring_capacity = ring_capacity
        self.tick_s = tick_s
        self.detect_timeout_s = detect_timeout_s
        self.hang_timeout_s = hang_timeout_s
        self.trace_origin = trace_origin
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self.rings: Dict[Tuple, ShmRing] = {}
        try:
            for ch in self.channels:
                self.rings[ch] = ShmRing.create(ring_capacity)
            self.state = _StateBlock.create(n_ranks)
        except BaseException:
            # e.g. ENOSPC on /dev/shm half-way through: the segments made
            # so far would outlive the pool
            for ring in self.rings.values():
                ring.close()
                ring.unlink()
            raise
        self.workers: Dict[int, _WorkerHandle] = {}
        self._closed = False

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self, rank: int) -> None:
        parent_conn, child_conn = _MP.Pipe()
        names = {ch: (ring.name, self.ring_capacity)
                 for ch, ring in self.rings.items() if rank in ch[:2]}
        proc = _MP.Process(
            target=_worker_main,
            args=(rank, self.n_ranks, names, self.state.name,
                  child_conn, self.tick_s, self.trace_origin,
                  self.trace_dir),
            daemon=True)
        proc.start()
        child_conn.close()
        self.workers[rank] = _WorkerHandle(proc, parent_conn)
        self.state.beat(rank)

    def start(self) -> None:
        for rank in range(self.n_ranks):
            if rank not in self.workers:
                self._spawn(rank)

    def alive(self, rank: int) -> bool:
        h = self.workers.get(rank)
        return h is not None and h.proc.is_alive()

    def kill(self, rank: int) -> None:
        """SIGKILL one worker (real crash injection)."""
        h = self.workers.get(rank)
        if h is not None and h.proc.is_alive():
            os.kill(h.proc.pid, signal.SIGKILL)
            h.proc.join(timeout=10.0)

    def respawn_dead(self) -> List[int]:
        """Respawn every dead worker; returns the ranks respawned."""
        respawned = []
        for rank in range(self.n_ranks):
            h = self.workers.get(rank)
            if h is None or not h.proc.is_alive():
                if h is not None:
                    h.proc.join(timeout=10.0)
                    h.conn.close()
                self._spawn(rank)
                respawned.append(rank)
        return respawned

    # -- work dispatch -----------------------------------------------------
    def submit(self, rank: int, fn: Callable, *args: Any) -> None:
        self.workers[rank].conn.send(("call", fn, args))

    def _drain_replies(self, pending: set, results: Dict[int, Tuple]) -> None:
        for r in list(pending):
            conn = self.workers[r].conn
            try:
                while conn.poll(0):
                    results[r] = conn.recv()
                    pending.discard(r)
            except (EOFError, OSError):
                pass  # worker died with the pipe open; sentinel check owns it

    def _wait_for_event(self, ranks: set, timeout: float) -> None:
        """Sleep until one of ``ranks`` replies or its process exits, or
        ``timeout`` seconds pass — the parent's only wait.  A reply makes
        the rank's pipe readable and a death makes its sentinel readable,
        so both are seen at once and the parent costs the workers no CPU
        in between."""
        handles: List[Any] = []
        for r in ranks:
            h = self.workers[r]
            handles += (h.conn, h.proc.sentinel)
        connection.wait(handles, timeout)

    def gather(self, ranks: List[int]) -> Dict[int, Tuple]:
        """Collect one reply per rank, watching for death and hangs.

        The parent blocks on the pending ranks' reply pipes and process
        sentinels, waking at least every ``tick_s`` for the liveness checks.

        Raises :class:`RankFailure` when a worker process dies or stops
        heartbeating, :class:`DeadlockError` when every outstanding rank
        sits blocked on a receive with zero progress for
        ``hang_timeout_s``.  Either way the surviving workers are aborted,
        settled and respawned as needed, so the pool is reusable.
        """
        pending = set(ranks)
        results: Dict[int, Tuple] = {}
        now = time.monotonic()
        last_progress = now
        progress_mark = self._progress_snapshot()
        # Liveness = the heartbeat slot keeps *changing*, not its absolute
        # value: the parent can catch a torn read of the f64 mid-write (the
        # two sides are separate processes with no lock), and a garbage
        # value must not read as "30s stale".  A live worker rewrites the
        # slot every tick, so "unchanged for detect_timeout_s" is the
        # tear-proof staleness predicate.
        hb_seen = {r: (self.state.heartbeat(r), now) for r in pending}
        while pending:
            self._drain_replies(pending, results)
            if not pending:
                break
            if any(reply[0] == "error" for reply in results.values()):
                # A worker raised: its peers may be blocked on messages
                # that will never come.  Abort them now and let the caller
                # surface the worker's traceback, not a deadlock timeout.
                self._settle_failure(pending)
                break
            dead = [r for r in pending if not self.workers[r].proc.is_alive()]
            if dead:
                # One last drain: the reply may have raced the death check.
                self._drain_replies(pending, results)
                dead = [r for r in pending
                        if not self.workers[r].proc.is_alive()]
            if dead:
                self._settle_failure(pending - set(dead))
                raise RankFailure(
                    f"rank(s) {sorted(dead)} died (worker process exited); "
                    f"declared failed via process sentinel",
                    dead=sorted(dead),
                    detected_at=int(sum(self.state.recvs(r)
                                        for r in range(self.n_ranks))),
                    crashed_at={r: int(self.state.recvs(r)) for r in dead})
            now = time.monotonic()
            stale = []
            for r in pending:
                hb = self.state.heartbeat(r)
                seen_hb, seen_at = hb_seen[r]
                if hb != seen_hb:
                    hb_seen[r] = (hb, now)
                elif now - seen_at > self.detect_timeout_s:
                    stale.append(r)
            if stale:
                for r in stale:
                    self.kill(r)
                self._settle_failure(pending - set(stale))
                raise RankFailure(
                    f"rank(s) {sorted(stale)} stopped heartbeating for "
                    f"{self.detect_timeout_s}s (wall clock); declared dead",
                    dead=sorted(stale),
                    detected_at=int(sum(self.state.recvs(r)
                                        for r in range(self.n_ranks))),
                    crashed_at={r: int(self.state.recvs(r)) for r in stale})
            snapshot = self._progress_snapshot()
            if snapshot != progress_mark:
                progress_mark = snapshot
                last_progress = now
            elif now - last_progress > self.hang_timeout_s and all(
                    self.state.status(r) == _STATUS_WAITING
                    for r in pending):
                stuck = sorted(pending)
                self._settle_failure(pending)
                raise DeadlockError(
                    f"rank(s) {stuck} blocked on empty channels with zero "
                    f"progress for {self.hang_timeout_s}s — deadlock",
                    stuck=stuck,
                    orphans=self.drain_rings())
            self._wait_for_event(pending, self.tick_s)
        return results

    def _progress_snapshot(self) -> Tuple:
        return (tuple(self.state.recvs(r) for r in range(self.n_ranks)),
                tuple(ring.unread() for ring in self.rings.values()))

    def _settle_failure(self, survivors: set, grace_s: float = 10.0) -> None:
        """Abort outstanding survivors, wait for them to come back to the
        command loop (or kill the truly stuck), respawn the dead, drain
        every ring and clear abort — leaving the pool ready for reuse."""
        self.state.set_abort(True)
        deadline = time.monotonic() + grace_s
        waiting = set(survivors)
        sink: Dict[int, Tuple] = {}
        while waiting and time.monotonic() < deadline:
            # returns at once for a reply or a death that is already there
            self._wait_for_event(waiting, self.tick_s)
            self._drain_replies(waiting, sink)
            waiting = {r for r in waiting if self.workers[r].proc.is_alive()}
        for r in waiting:  # stuck mid-compute past the grace period
            self.kill(r)
        self.respawn_dead()
        self.drain_rings()
        self.state.set_abort(False)

    # -- introspection / cleanup -------------------------------------------
    def pending(self, rank: int) -> int:
        """Messages buffered toward ``rank`` across its incoming rings."""
        return sum(ring.frames() for ch, ring in self.rings.items()
                   if ch[1] == rank)

    def drain_rings(self) -> List[Packet]:
        """Consume every buffered frame (only safe while workers are idle
        in their command loop); returns them as orphan packets."""
        orphans: List[Packet] = []
        for ch, ring in self.rings.items():
            for tag, microbatch, _ts, data in ring.drain():
                orphans.append(Packet(ch[0], ch[1], tag, microbatch, data))
        return orphans

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for rank, h in self.workers.items():
            try:
                if h.proc.is_alive():
                    h.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for h in self.workers.values():
            h.proc.join(timeout=5.0)
            if h.proc.is_alive():  # pragma: no cover - stuck worker
                h.proc.terminate()
                h.proc.join(timeout=5.0)
            h.conn.close()
        for ring in self.rings.values():
            ring.close()
            ring.unlink()
        self.state.close()
        self.state.unlink()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def _merge_replies(replies: Dict[int, Tuple],
                   recorder: Optional[TraceRecorder],
                   tracer: Optional[Tracer]
                   ) -> Tuple[Dict[int, Any], int]:
    """Fold the workers' replies into the parent's recorder, perf
    counters and tracer; returns ``({rank: payload}, messages sent)``.
    Raises ``RuntimeError`` carrying every worker's traceback if any
    raised.

    Per-rank event order is each worker's local order, which is the
    per-channel FIFO order — exactly what verify_trace checks; the
    interleaving across ranks is irrelevant to it.
    """
    results: Dict[int, Any] = {}
    errors: List[str] = []
    messages = 0
    for rank in sorted(replies):
        status, payload, events, spans, sent = replies[rank]
        messages += sent
        for ev in events:
            if ev[0] == "collective":
                _kind, src, op, key = ev[:4]
                if recorder is not None:
                    recorder.record_collective(src, op, key=key)
                if len(ev) > 4:  # a tp_* collective
                    book_tp_counters(op, ev[4])
            elif recorder is not None:
                if ev[0] == "send":
                    recorder.record_send(*ev[1:])
                elif ev[0] == "recv":
                    recorder.record_recv(*ev[1:])
        if tracer is not None and tracer.enabled:
            tracer.spans.extend(spans)
        if status == "error":
            errors.append(f"rank {rank}:\n{payload}")
        elif status == "ok":
            results[rank] = payload
    if errors:
        raise RuntimeError(
            "worker process(es) raised:\n" + "\n".join(errors))
    return results, messages


class ProcessTransport(BaseRankTransport):
    """The :class:`BaseRankTransport` contract over real OS processes.

    ``run`` takes :class:`ProgramSpec` values (picklable program
    descriptions) instead of live generators — a generator cannot cross a
    process boundary — and returns ``{rank: program return value}``.
    Everything else matches the cooperative transport: non-blocking
    buffered sends, FIFO per channel, heartbeats, :class:`RankFailure` on
    real process death, strict end-of-run orphan checks, recorder and
    tracer integration.
    """

    def __init__(self, n_ranks: int, *,
                 recorder: Optional[TraceRecorder] = None,
                 tracer: Optional[Tracer] = None,
                 strict: bool = True,
                 channels: Optional[List[Tuple[int, int]]] = None,
                 ring_capacity: int = 1 << 20,
                 tick_s: float = DEFAULT_TICK_S,
                 detect_timeout_s: float = DEFAULT_DETECT_TIMEOUT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 trace_dir: Optional[str] = None,
                 pool: Optional[ProcessPool] = None):
        super().__init__(n_ranks, recorder=recorder, tracer=tracer,
                         strict=strict)
        tracing = tracer is not None and tracer.enabled
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ProcessPool(
            n_ranks, channels=channels, ring_capacity=ring_capacity,
            tick_s=tick_s, detect_timeout_s=detect_timeout_s,
            hang_timeout_s=hang_timeout_s,
            trace_origin=tracer.origin if tracing else None,
            trace_dir=trace_dir)

    def send(self, src: int, dst: int, tag: str, microbatch: int,
             data: Any = None) -> None:
        """Parent-side send: pre-seeds a channel before ``run`` (workers
        send through their own endpoints while running)."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError(f"rank {src} sending to itself")
        if not _payload_ok(data):
            raise ProtocolError(
                f"payload of type {type(data).__name__} cannot cross "
                f"ProcessTransport.send (REP008): use arrays or plain "
                f"picklable values")
        ring = self.pool.rings.get((src, dst))
        if ring is None:
            raise ProtocolError(f"no channel {src} -> {dst}")
        self._next_send_seq()
        ring.push((tag, microbatch, 0.0, data))
        self.messages_sent += 1
        if self.recorder is not None:
            self.recorder.record_send(src, dst, tag, microbatch)

    def pending(self, rank: int) -> int:
        self._check_rank(rank)
        return self.pool.pending(rank)

    def run(self, programs: Dict[int, ProgramSpec]) -> Dict[int, Any]:
        for rank in programs:
            self._check_rank(rank)
        self.pool.start()
        for rank, spec in programs.items():
            if not isinstance(spec, ProgramSpec):
                raise ProtocolError(
                    f"rank {rank}: ProcessTransport.run takes ProgramSpec "
                    f"values, not {type(spec).__name__} (generators cannot "
                    f"cross process boundaries)")
            self.pool.submit(rank, _run_program_task, spec)
        try:
            replies = self.pool.gather(sorted(programs))
        except RankFailure as failure:
            self.dead.update(failure.dead)
            raise
        return self._consume_replies(replies)

    def _consume_replies(self, replies: Dict[int, Tuple]) -> Dict[int, Any]:
        results, sent = _merge_replies(replies, self.recorder, self.tracer)
        self.messages_sent += sent
        self.finished.update(results)
        orphans = self.pool.drain_rings()
        if orphans:
            self.lost_packets.extend(orphans)
            if self.strict:
                raise self._orphan_error(orphans)
        return results

    def close(self) -> None:
        if self._owns_pool:
            self.pool.close()


def _state_arrays(stage, opt) -> List[Tuple[np.ndarray, Callable]]:
    """Every array of a lead rank's training state in the order its
    shared block lays them out, each with the setter that re-binds its
    owner to a new array: the stage's parameters, then the optimizer's
    state (AdamW moments, allocated here if the first step has not run;
    MixedPrecisionAdamW moments and fp16 weights; the offload
    optimizer's host buckets and fp16 weights)."""
    slots: List[Tuple[np.ndarray, Callable]] = [
        (p.data, functools.partial(setattr, p, "data"))
        for p in stage.parameters()]
    if isinstance(opt, BucketedOffloadAdamW):
        for name in ("host_master", "host_exp_avg", "host_exp_avg_sq",
                     "device_half"):
            slots.append((getattr(opt, name),
                          functools.partial(setattr, opt, name)))
    elif isinstance(opt, MixedPrecisionAdamW):
        for arrays in (opt.exp_avg, opt.exp_avg_sq, opt.half_params):
            slots += [(arr, functools.partial(arrays.__setitem__, k))
                      for k, arr in enumerate(arrays)]
    else:
        for p, st in zip(opt.params, opt.state):
            for key in ("exp_avg", "exp_avg_sq"):
                if key not in st:
                    st[key] = np.zeros_like(p.data)
                slots.append((st[key],
                              functools.partial(st.__setitem__, key)))
    return slots


def _block_layout(slots) -> Tuple[List[int], int]:
    """Byte offset of every array in the block (64-byte aligned), and
    the block's size."""
    offsets, size = [], 0
    for arr, _set in slots:
        offsets.append(size)
        size += -(-arr.nbytes // 64) * 64
    return offsets, max(size, 64)


def _bind_to_block(slots, buf, copy: bool) -> None:
    """Re-bind every array of ``slots`` to its view of the block ``buf``
    — copying the current values in first when ``copy``."""
    offsets, _size = _block_layout(slots)
    for (arr, rebind), off in zip(slots, offsets):
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf,
                          offset=off)
        if copy:
            view[...] = arr
        rebind(view)


def _train_step_task(ctx: WorkerContext, payload: Dict[str, Any]
                     ) -> Dict[str, Any]:
    """Worker task for one training batch on a tensor-parallel lead.

    Builds (once, cached) this rank's shard and optimizer over views of
    the rank's shared block, the only home of its parameters and
    optimizer state; restores dropout RNG state; drives the batch's walk
    over the rings — the program :func:`rank_program` binds: Algorithm 2,
    or the static ``schedule`` the payload carries —
    then Algorithm 1's end of the batch, :meth:`ColumnStep.run`, on the
    ``"dp"`` lane: the column reduce with its peers, the grid's overflow
    verdict, and the step, written straight into the block.  Returns
    losses, RNG state and whether the optimizer stepped.
    """
    rank = ctx.rank
    grid = payload["grid"]
    cfg = payload["cfg"]
    sched = payload["schedule"]
    n_virtual = grid.g_inter if sched is None else sched.n_virtual
    if ctx.cache.get("block") != payload["param_shm"]:
        i, _j = grid.coord_of(rank)
        stage = build_shard(cfg, i, grid.g_inter, n_virtual,
                            payload["checkpoint_activations"])
        precision, offload, bucket_size, chunk, hparams = \
            payload["optimizer"]
        opt = make_optimizer(stage.parameters(), precision, offload,
                             bucket_size, LossScaler(dynamic=False),
                             **hparams)
        shm = attach_shared_memory(payload["param_shm"])
        _bind_to_block(_state_arrays(stage, opt), shm.buf, copy=False)
        ctx.cache.update(block=payload["param_shm"], stage=stage, shm=shm,
                         column=ColumnStep(grid, rank, stage.parameters(),
                                           opt, chunk))
    stage = ctx.cache["stage"]
    column = ctx.cache["column"]
    opt = column.opt
    opt.zero_grad()
    drops = _dropout_modules(stage)
    for m, st in zip(drops, payload["rng_states"]):
        m.rng.bit_generator.state = st
    stage.reset()
    ctx.kill_after = payload.get("kill_after")
    ctx._maybe_crash()  # a crash scheduled before the first receive

    _walk(ctx, stage, payload)
    if stage.inflight_microbatches:
        raise RuntimeError(
            f"rank {rank} finished with {stage.inflight_microbatches} "
            f"microbatches in flight")

    opt.steps = payload["steps"]
    if hasattr(opt, "scaler"):
        opt.scaler.scale = payload["loss_scale"]

    def record(rank: int, op: str, key: Tuple) -> None:
        ctx.events.append(("collective", rank, op, key))

    tracer = ctx.tracer if ctx.tracer.enabled else None
    applied = ctx.drive(column.run(ctx.dp_send, tracer, record), dp=True)
    return {
        "losses": dict(stage.microbatch_losses),
        "rng_states": [m.rng.bit_generator.state for m in drops],
        "applied": applied,
        "steps": opt.steps,
        "chunks": column.n_chunks,
    }


def _walk(ctx: WorkerContext, stage, payload: Dict[str, Any]) -> None:
    """Drive this rank's inter-layer program for the batch over the
    rings: what :func:`rank_program` binds, for a lead (``stage``) and a
    follower (None) alike.  Every rank has its own process, so a send can
    start the receiver's work at once."""
    ctx.drive(rank_program(
        ctx.rank, payload["grid"], stage, ctx.send, payload["microbatches"],
        payload["total_microbatches"], payload["pipeline_limit"],
        payload["schedule"], payload["loss_scale"], ctx.tracer,
        _worker_tp_record(ctx), concurrent_peers=True))


def _worker_tp_record(ctx: WorkerContext):
    """Worker-side TP collective sink: events for the parent's recorder
    and perf counters, plus a zero-width ``tp`` span when tracing."""
    def record(rank: int, op: str, key: Tuple, nbytes: int) -> None:
        ctx.events.append(("collective", rank, op, key, nbytes))
        record_tp_span(ctx.tracer, rank, op, key, nbytes)
    return record


def _tp_follower_task(ctx: WorkerContext, payload: Dict[str, Any]
                      ) -> Dict[str, Any]:
    """Worker task for a tensor-parallel follower (``t > 0``): receive the
    lead's weight/gradient shard messages for the batch; it sends
    nothing.  Followers hold no stage, so the reply carries nothing to
    apply — the parent only merges its events and spans."""
    ctx.kill_after = payload.get("kill_after")
    ctx._maybe_crash()
    _walk(ctx, None, payload)
    return {"follower": True}


class ProcessBackend:
    """The trainer's bridge to the process pool.

    Owns one persistent :class:`ProcessPool` — pipeline-neighbor and
    tensor-parallel channels for the walk, plus ``"dp"``-lane rings
    between data-parallel column peers and pipeline neighbours for the
    end of the batch — one shared block per lead rank, and the
    translation of crash faults into real SIGKILLs.

    A lead rank's block is the only home of its training state: its
    stage's parameters and its optimizer's state.  The trainer's stage
    and optimizer arrays are views of the block (re-bound at the next
    :meth:`run_batch` after ``_build_rank`` replaces them), so
    checkpointing, ``gather_state`` and rollback read and write the live
    state with no per-step copy.  The workers run all of a batch: the
    walk, the column reduce and the optimizer step
    (:class:`~repro.runtime.column.ColumnStep`, the code the cooperative
    backend runs in-process).  The parent only orchestrates: it ships
    inputs and dropout RNG state, reads losses, RNG state and whether
    the step was applied from the replies, and moves the loss scale.
    """

    def __init__(self, trainer, *,
                 ring_capacity: Optional[int] = None,
                 tick_s: float = DEFAULT_TICK_S,
                 detect_timeout_s: float = DEFAULT_DETECT_TIMEOUT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 trace_dir: Optional[str] = None):
        self.trainer = trainer
        grid = trainer.grid
        channels = []
        for rank in range(grid.world_size):
            nxt = grid.next_in_pipeline(rank)
            if nxt is not None and grid.is_tp_lead(rank):
                # Only leads pipeline activations; followers never touch
                # the inter-layer channels.
                channels.append((rank, nxt))
                channels.append((nxt, rank))
            if grid.is_tp_lead(rank):
                # Followers only receive: one ring per lead -> follower.
                channels += [(rank, peer) for peer in grid.tp_peers(rank)]
        if trainer.n_virtual > grid.g_inter:
            # Interleaved chunks wrap around: the last rank's chunk feeds
            # the first rank's next one, and its gradient comes back (at
            # g_inter == 2 over the neighbour rings, hence the de-dup).
            for j in range(grid.g_data):
                first = grid.rank_of(0, j)
                last = grid.rank_of(grid.g_inter - 1, j)
                channels += [(last, first), (first, last)]
            channels = list(dict.fromkeys(channels))
        # The end of the batch (ColumnStep): column peers all-to-all, and
        # under mixed precision the overflow verdict along each pipeline.
        for i in range(grid.g_inter):
            column = grid.data_parallel_ranks(i)
            channels += [(a, b, "dp") for a in column for b in column
                         if a != b]
        if trainer.precision == "mixed":
            for rank in trainer.stages:
                nxt = grid.next_in_pipeline(rank)
                if nxt is not None:
                    channels += [(rank, nxt, "dp"), (nxt, rank, "dp")]
        stage_numel = max(st.num_parameters()
                          for st in trainer.stages.values())
        if ring_capacity is None:
            # Size for several in-flight boundary activations: the largest
            # payload is a (microbatch, seq, hidden) fp32 tensor.
            frame = (4 * trainer.microbatch_size * trainer.cfg.seq_len
                     * trainer.cfg.hidden + 4096)
            if grid.g_intra > 1:
                # TP weight messages carry every shard a peer lacks —
                # bounded by a full stage's parameter block.
                frame = max(frame, 4 * stage_numel + 4096)
            ring_capacity = max(1 << 16, 4 * frame)
        if grid.g_data > 1:
            # A column peer sends all its contributions before it reads
            # anything, so a ring must hold them all — fp32 bytes plus a
            # frame header per fp16 chunk — or two peers block each
            # other's pushes for good; a smaller requested size grows.
            chunk = max(1, trainer.coarsening_k * trainer.bucket_size)
            ring_capacity = max(ring_capacity, 4 * stage_numel + 512
                                * (stage_numel // chunk + 8))
        tracing = trainer.tracer is not None and trainer.tracer.enabled
        self.pool = ProcessPool(
            grid.world_size, channels=channels or None,
            ring_capacity=ring_capacity, tick_s=tick_s,
            detect_timeout_s=detect_timeout_s,
            hang_timeout_s=hang_timeout_s,
            trace_origin=trainer.tracer.origin if tracing else None,
            trace_dir=trace_dir)
        #: set by the resilience layer to inject (crash) faults
        self.injector = None
        self._blocks: Dict[int, shared_memory.SharedMemory] = {}
        #: rank -> the (stage, optimizer) whose arrays view its block
        self._bound: Dict[int, Tuple[Any, Any]] = {}
        self._closed = False

    # -- the state blocks --------------------------------------------------
    def _bind(self, rank: int) -> shared_memory.SharedMemory:
        """The rank's block, with the trainer's stage and optimizer bound
        to it — copied in the first time, and again after
        ``_build_rank`` replaced either."""
        trainer = self.trainer
        pair = (trainer.stages[rank], trainer.optimizers[rank])
        shm = self._blocks.get(rank)
        if shm is not None and self._bound.get(rank) == pair:
            return shm
        slots = _state_arrays(*pair)
        if shm is None:  # a rebuilt rank has the same layout
            shm = self._blocks[rank] = shared_memory.SharedMemory(
                create=True, size=_block_layout(slots)[1])
        _bind_to_block(slots, shm.buf, copy=True)
        self._bound[rank] = pair
        return shm

    def _release(self, rank: int) -> None:
        """Give the rank's state back private arrays (the block's current
        values), then close and unlink the block."""
        pair = self._bound.pop(rank, None)
        if pair is not None:
            for arr, rebind in _state_arrays(*pair):
                rebind(arr.copy())
        shm = self._blocks.pop(rank)
        try:
            shm.close()
        except BufferError:
            pass  # a caller still holds a view; the mapping goes with it
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    # -- fault translation -------------------------------------------------
    def _crash_schedule(self) -> Dict[int, int]:
        """Consume this step's unspent crash faults: rank -> kill-after-N-
        receives.  Channel faults need the cooperative scheduler's virtual
        clock and are rejected here."""
        if self.injector is None:
            return {}
        if self.injector.plan.channel_faults():
            raise NotImplementedError(
                "the process backend injects real crashes (SIGKILL) only; "
                "drop/delay/degrade/straggler faults need the cooperative "
                "backend's virtual clock")
        schedule: Dict[int, int] = {}
        for f in self.injector.plan.crashes(self.injector.step):
            key = ("crash", f.rank, f.step, f.tick)
            if key in self.injector.spent:
                continue
            self.injector.spent.add(key)
            self.injector.injected.append(
                (f.tick, f"crash rank {f.rank} (SIGKILL)"))
            schedule[f.rank] = f.tick
        return schedule

    # -- the batch ---------------------------------------------------------
    def run_batch(self, groups, total_mb: int, schedule
                  ) -> Tuple[int, bool, int]:
        """Run one batch across the workers — the walk under that static
        ``schedule`` or (None) under Algorithm 2, then the column reduce
        and every rank's optimizer step.

        Returns (point-to-point messages exchanged by the walk, whether
        the optimizer stepped, the last stage's all-reduce chunks).
        Raises :class:`RankFailure` on real worker death (injected or
        genuine); the pool is settled and respawned before the exception
        leaves, so the resilience layer's rollback-replay needs no
        backend-specific code.
        """
        trainer = self.trainer
        grid = trainer.grid
        self.pool.start()
        crash_after = self._crash_schedule()
        scale = trainer.scaler.scale if trainer.precision == "mixed" else 1.0
        optimizer = (trainer.precision, trainer.offload, trainer.bucket_size,
                     trainer.coarsening_k * trainer.bucket_size,
                     trainer._opt_hparams)

        for rank in range(grid.world_size):
            walk = {
                "grid": grid,
                "microbatches": groups[grid.coord_of(rank)[1]],
                "total_microbatches": total_mb,
                "pipeline_limit": trainer.pipeline_limit,
                "schedule": schedule,
                "loss_scale": scale,
                "kill_after": crash_after.get(rank),
            }
            if not grid.is_tp_lead(rank):
                self.pool.submit(rank, _tp_follower_task, walk)
                continue
            stage = trainer.stages[rank]
            self.pool.submit(rank, _train_step_task, dict(
                walk, cfg=trainer.cfg,
                checkpoint_activations=trainer.checkpoint_activations,
                param_shm=self._bind(rank).name, optimizer=optimizer,
                steps=trainer.optimizers[rank].steps,
                rng_states=[m.rng.bit_generator.state
                            for m in _dropout_modules(stage)]))

        replies = self.pool.gather(list(range(grid.world_size)))

        # Crash faults that never fired in-flight (scheduled past the
        # rank's last receive) kill their worker at the end-of-batch
        # barrier, after it stepped — same semantics as the cooperative
        # backend.  The rollback restores the stepped state in the blocks.
        barrier_dead = sorted(r for r in crash_after if r in replies
                              and replies[r][0] == "ok")
        if barrier_dead:
            for r in barrier_dead:
                self.pool.kill(r)
            self.pool._settle_failure(set())
            raise RankFailure(
                f"rank(s) {barrier_dead} died during the batch (SIGKILL at "
                f"the end-of-batch barrier)",
                dead=barrier_dead,
                detected_at=int(sum(self.pool.state.recvs(r)
                                    for r in range(grid.world_size))),
                crashed_at={r: int(self.pool.state.recvs(r))
                            for r in barrier_dead})

        results, messages = _merge_replies(replies, trainer.recorder,
                                           trainer.tracer)
        orphans = self.pool.drain_rings()
        if orphans:
            raise BaseRankTransport._orphan_error(orphans)
        verdicts = set()
        for rank, payload in results.items():
            if payload.get("follower"):
                continue  # followers hold no stage; events already merged
            stage = trainer.stages[rank]
            stage.microbatch_losses.clear()
            stage.microbatch_losses.update(payload["losses"])
            for m, st in zip(_dropout_modules(stage),
                             payload["rng_states"]):
                m.rng.bit_generator.state = st
            trainer.optimizers[rank].steps = payload["steps"]
            verdicts.add(payload["applied"])
        if len(verdicts) != 1:  # pragma: no cover - defensive
            raise RuntimeError(
                f"ranks disagree on whether the step was applied")
        last = results[grid.rank_of(grid.g_inter - 1, 0)]
        return messages, verdicts.pop(), last["chunks"]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        for rank in list(self._blocks):
            self._release(rank)

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
