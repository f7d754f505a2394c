"""Deterministic in-process rank transport for the functional runtime.

The *functional* runtime executes AxoNN's algorithms with real numerics (the
performance twin lives in :mod:`repro.core` on the discrete-event cluster).
Each simulated GPU is a *rank program*: a Python generator that computes with
NumPy and yields when it needs to receive a message — exactly the structure
of Algorithm 2, whose only blocking point is ``RECEIVE()``.

The scheduler advances rank programs round-robin; a rank blocks only on an
empty inbox.  Sends are non-blocking and delivered instantly in FIFO order
(MPI_Isend semantics: buffered, ordered per sender-receiver pair).  Because
scheduling is round-robin and delivery deterministic, an entire parallel
training run is bit-reproducible — which the serial-vs-parallel equivalence
tests rely on.

A program may also ``yield POLL`` — a receive that never blocks: it
resumes with the next packet already in its inbox, or with None.  That is
how Algorithm 2 learns what has arrived while it computed.

Protocol misuse raises :class:`~repro.obs.protocol.ProtocolError`:
yielding anything but :data:`RECV` / :data:`POLL`, or (with the default
``strict=True``) finishing a run with undelivered packets rotting in an
inbox.  Deadlock (every live rank blocked on an empty inbox) raises
:class:`DeadlockError` with a wait-for-graph diagnosis: which rank waits on
whom, plus the nearest unmatched sends.  Either way, all still-suspended
generators are closed so a failing run never leaks rank programs
mid-``finally``.

Faults (:mod:`repro.resilience`)
--------------------------------
Pass ``injector=`` (a :class:`~repro.resilience.FaultInjector`) to subject
the run to a deterministic :class:`~repro.resilience.FaultPlan` — any run:
this is the only cooperative scheduler, so Algorithm 2, every compiled
static schedule (:func:`repro.runtime.rankprog.lower_rank`) and the serving
programs all sit on the same clock:

* *time* is the scheduler-sweep counter :attr:`RankTransport.tick`;
* a **crash** kills a rank's generator mid-flight; its inbox is discarded
  and later sends to it vanish (the network cannot address a dead NIC);
* **drop/delay/degrade/straggler** faults act on individual sends; a
  dropped send is retransmitted with exponential backoff when a
  ``retry=`` (:class:`~repro.resilience.RetryPolicy`) is given;
* every live rank *heartbeats* once per sweep; a rank that stops beating
  (it crashed) is declared failed ``detect_timeout`` ticks later and the
  run raises :class:`RankFailure` naming the dead ranks — the signal the
  recovery coordinator (:class:`~repro.resilience.ResilientTrainer`)
  turns into a rollback-and-respawn.

A rank program waits only with ``yield RECV``: a channel a plan severs
ends the run in :class:`RankFailure` (the peer stopped heartbeating) or
:class:`DeadlockError` (the packet is lost for good), never in a hang.

Pass ``recorder=``\\ (a :class:`~repro.obs.protocol.TraceRecorder`) to
log every send and delivery for post-hoc verification with
:func:`~repro.obs.protocol.verify_trace`.
"""

from __future__ import annotations

import abc
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Deque, Dict, Generator, List, Optional, Set, Tuple,
                    TYPE_CHECKING)

from ..obs import Tracer
from ..obs.protocol import ProtocolError, TraceRecorder, describe_deadlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience
    # imports runtime); the injector/retry objects are duck-typed here
    from ..resilience.faults import FaultInjector, RetryPolicy

__all__ = ["BaseRankTransport", "Packet", "RankTransport", "DeadlockError",
           "ProtocolError", "RankFailure", "RECV", "POLL"]

#: sentinel yielded by a rank program to request the next inbox message
RECV = "recv"

#: sentinel for a non-blocking receive (the MPI_Iprobe analogue): the
#: program resumes with the next message already buffered for it, or with
#: None — never waits
POLL = "poll"

#: sweeps a silent (crashed) rank survives before being declared failed
DEFAULT_DETECT_TIMEOUT = 25

#: injector verdict meaning "lose this packet" (mirrors resilience.faults)
_DROP = "drop"


class DeadlockError(RuntimeError):
    """All unfinished rank programs are blocked on empty inboxes.

    Attributes
    ----------
    stuck : list of rank ids blocked at deadlock time
    wait_for : dict mapping each stuck rank to the ranks it historically
        received from (its wait-for edges); empty means the rank never
        received anything, so its expected sender is unknown
    orphans : packets sitting undelivered in inboxes at deadlock time —
        the *nearest unmatched sends*, usually the misrouted packet that
        explains the hang
    """

    def __init__(self, message: str, stuck: Optional[List[int]] = None,
                 wait_for: Optional[Dict[int, List[int]]] = None,
                 orphans: Optional[List["Packet"]] = None) -> None:
        super().__init__(message)
        self.stuck = list(stuck or [])
        self.wait_for = dict(wait_for or {})
        self.orphans = list(orphans or [])


class RankFailure(RuntimeError):
    """Heartbeat timeout: one or more ranks were declared dead.

    Raised by :meth:`RankTransport.run` after a crashed rank has been
    silent for ``detect_timeout`` scheduler sweeps.  The recovery
    coordinator catches this, rolls every rank back to the latest
    snapshot, respawns the dead ranks and retries the batch.

    Attributes
    ----------
    dead : sorted rank ids declared failed
    detected_at : the scheduler tick of the declaration
    crashed_at : dict rank -> tick of its last observed heartbeat
    """

    def __init__(self, message: str, dead: Optional[List[int]] = None,
                 detected_at: int = 0,
                 crashed_at: Optional[Dict[int, int]] = None) -> None:
        super().__init__(message)
        self.dead = sorted(dead or [])
        self.detected_at = detected_at
        self.crashed_at = dict(crashed_at or {})


@dataclass(frozen=True)
class Packet:
    """One delivered message.

    ``seq`` is a transport-assigned monotonic send sequence number (-1
    when the packet was constructed outside a transport, e.g. in tests).
    It keys per-packet bookkeeping such as send timestamps — keying by
    ``id(pkt)`` would collide when the allocator reuses addresses and
    leak when packets are dropped.
    """

    src: int
    dst: int
    tag: str
    microbatch: int
    data: Any = field(compare=False, default=None)
    seq: int = field(compare=False, repr=False, default=-1)


class BaseRankTransport(abc.ABC):
    """The transport contract every execution backend implements.

    A transport owns ``n_ranks`` message endpoints and drives *rank
    programs* — generators that ``yield RECV`` and are resumed with the
    next :class:`Packet`.  The contract, shared by the cooperative
    in-process scheduler (:class:`RankTransport`) and the multiprocessing
    backend (:class:`~repro.runtime.parallel.ProcessTransport`):

    * :meth:`send` is non-blocking and buffered (MPI_Isend semantics),
      FIFO per ``(src, dst)`` channel;
    * ``yield RECV`` blocks the program on its next message; ``yield
      POLL`` resumes at once with the next message already buffered, or
      with None (a hit is a receive like any other: recorded, traced,
      counted);
    * every live rank heartbeats once per scheduler sweep (cooperative)
      or receive-poll (process); a rank that stops beating — or whose OS
      process dies — raises :class:`RankFailure` naming the dead ranks;
    * with ``strict=True`` (default) a run that completes with
      undelivered packets raises :class:`ProtocolError` (orphan sends);
    * any yield other than :data:`RECV` / :data:`POLL` raises
      :class:`ProtocolError`;
    * pass ``recorder=`` to log every send/delivery for the protocol
      verifier; pass ``tracer=`` to emit p2p ObsSpans.

    Implementations fill in :meth:`send`, :meth:`run` and
    :meth:`pending`; the base class carries the shared bookkeeping
    surface (message/sequence counters, dead/finished sets, rank-range
    checks and the orphan report).
    """

    def __init__(self, n_ranks: int, *,
                 recorder: Optional[TraceRecorder] = None,
                 tracer: Optional[Tracer] = None,
                 strict: bool = True):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.recorder = recorder
        self.tracer = tracer
        self.strict = strict
        self.messages_sent = 0
        #: ranks that died (injected crash or real process death)
        self.dead: Set[int] = set()
        #: ranks whose program returned normally
        self.finished: Set[int] = set()
        #: sends that could never be delivered
        self.lost_packets: List[Packet] = []
        self._send_seq = 0

    def _next_send_seq(self) -> int:
        seq = self._send_seq
        self._send_seq += 1
        return seq

    @abc.abstractmethod
    def send(self, src: int, dst: int, tag: str, microbatch: int,
             data: Any = None) -> None:
        """Non-blocking buffered send (MPI_Isend semantics)."""

    @abc.abstractmethod
    def run(self, programs) -> Any:
        """Drive rank programs to completion (see class docstring)."""

    @abc.abstractmethod
    def pending(self, rank: int) -> int:
        """Messages currently buffered for ``rank``."""

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.n_ranks})")

    @staticmethod
    def _orphan_error(orphans: List[Packet]) -> ProtocolError:
        listing = "\n  ".join(
            f"{p.src} -> {p.dst} tag={p.tag!r} microbatch={p.microbatch}"
            for p in orphans[:20])
        more = f"\n  ... and {len(orphans) - 20} more" if len(orphans) > 20 \
            else ""
        return ProtocolError(
            f"run finished with {len(orphans)} undelivered packet(s) left "
            f"in inboxes (orphan sends — a receive is missing):\n  "
            f"{listing}{more}\n"
            f"Pass strict=False to the transport to allow this."
        )


class RankTransport(BaseRankTransport):
    """Per-rank FIFO inboxes + the cooperative scheduler.

    ``recorder`` (optional) receives every send and every delivery for
    post-hoc protocol verification.  ``strict`` (default) makes ``run()``
    raise :class:`ProtocolError` if packets remain undelivered when all
    programs have finished — the static signature of a forgotten receive.
    ``injector``/``retry``/``detect_timeout`` enable the fault layer (see
    the module docstring); without an injector the scheduler behaves
    exactly as the fault-free original.
    """

    def __init__(self, n_ranks: int, *,
                 recorder: Optional[TraceRecorder] = None,
                 tracer: Optional[Tracer] = None,
                 strict: bool = True,
                 injector: Optional["FaultInjector"] = None,
                 retry: Optional["RetryPolicy"] = None,
                 detect_timeout: int = DEFAULT_DETECT_TIMEOUT):
        if detect_timeout < 1:
            raise ValueError("detect_timeout must be >= 1 tick")
        super().__init__(n_ranks, recorder=recorder, tracer=tracer,
                         strict=strict)
        self.inboxes: List[Deque[Packet]] = [deque() for _ in range(n_ranks)]
        self.injector = injector
        self.retry = retry
        self.detect_timeout = detect_timeout
        #: scheduler-sweep counter — the fault layer's clock
        self.tick = 0
        # heartbeat bookkeeping: last sweep each rank was seen alive
        self._last_beat: Dict[int, int] = {}
        # deferred deliveries: heap of (due_tick, seq, Packet)
        self._delayed: List[Tuple[int, int, Packet]] = []
        # pending retransmissions: heap of (due_tick, seq, Packet, attempt)
        self._retries: List[Tuple[int, int, Packet, int]] = []
        self._defer_seq = 0
        # historical senders into each rank: the wait-for edges used by the
        # deadlock diagnosis (a blocked rank most plausibly waits on whoever
        # has been feeding it).
        self._peers_in: List[Set[int]] = [set() for _ in range(n_ranks)]
        # send-time of each in-flight packet, keyed by its monotonic send
        # sequence number (purged on delivery AND on every loss path, so a
        # lossy traced run cannot grow this dict unboundedly)
        self._send_times: Dict[int, float] = {}

    # -- sending ----------------------------------------------------------
    def send(self, src: int, dst: int, tag: str, microbatch: int,
             data: Any = None) -> None:
        """Non-blocking buffered send (MPI_Isend).

        With an ``injector`` the send is subject to the fault plan: it may
        be dropped (then retransmitted per the ``retry`` policy), delayed,
        or — when the destination is dead — silently discarded.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError(f"rank {src} sending to itself")
        pkt = Packet(src, dst, tag, microbatch, data,
                     seq=self._next_send_seq())
        self.messages_sent += 1
        if self.recorder is not None:
            self.recorder.record_send(src, dst, tag, microbatch)
        if self.tracer is not None and self.tracer.enabled:
            self._send_times[pkt.seq] = self.tracer.now()
        self._attempt_send(pkt, attempt=0)

    def _attempt_send(self, pkt: Packet, attempt: int) -> None:
        """Run one (re)transmission attempt through the fault layer."""
        if pkt.dst in self.dead:
            # The network cannot address a dead NIC; the message vanishes.
            self._fault_span(pkt.src, f"send-to-dead:{pkt.tag}",
                             dst=pkt.dst)
            self._lose(pkt)
            return
        verdict: object = None
        if self.injector is not None:
            verdict = self.injector.on_send(pkt.src, pkt.dst, pkt.tag,
                                            self.tick)
        if verdict == _DROP:
            if self.retry is not None and attempt < self.retry.max_retries:
                due = self.tick + self.retry.backoff(attempt)
                self._fault_span(pkt.src, f"retry{attempt}:{pkt.tag}",
                                 dst=pkt.dst, due=due)
                heapq.heappush(self._retries,
                               (due, self._next_seq(), pkt, attempt + 1))
            else:
                self._fault_span(pkt.src, f"lost:{pkt.tag}", dst=pkt.dst)
                self._lose(pkt)
            return
        if isinstance(verdict, int) and verdict > 0:
            heapq.heappush(self._delayed,
                           (self.tick + verdict, self._next_seq(), pkt))
            return
        self._enqueue(pkt)

    def _enqueue(self, pkt: Packet) -> None:
        self.inboxes[pkt.dst].append(pkt)
        self._peers_in[pkt.dst].add(pkt.src)

    def _lose(self, pkt: Packet) -> None:
        """A packet that will never be delivered: drop its trace entry."""
        self.lost_packets.append(pkt)
        self._send_times.pop(pkt.seq, None)

    def _next_seq(self) -> int:
        self._defer_seq += 1
        return self._defer_seq

    def _fault_span(self, rank: int, name: str, **meta: object) -> None:
        """Zero-duration marker span on the rank's ``fault`` track."""
        if self.tracer is None or not self.tracer.enabled:
            return
        now = self.tracer.now()
        self.tracer.record(rank, "fault", name, now, now, category="fault",
                           tick=self.tick, **meta)

    def _trace_delivery(self, packet: Packet) -> None:
        """Record the send-to-consumption interval as a p2p span."""
        tracer = self.tracer
        start = self._send_times.pop(packet.seq, None)
        if tracer is None or not tracer.enabled or start is None:
            return
        data = packet.data
        nbytes = int(getattr(data, "nbytes", 0)) if data is not None else None
        tracer.record(packet.src, "net", packet.tag, start, tracer.now(),
                      category="p2p", microbatch=packet.microbatch,
                      nbytes=nbytes, src=packet.src, dst=packet.dst)

    def pending(self, rank: int) -> int:
        self._check_rank(rank)
        return len(self.inboxes[rank])

    def _orphans(self) -> List[Packet]:
        return [pkt for inbox in self.inboxes for pkt in inbox]

    @staticmethod
    def _close_live(live: Dict[int, Generator]) -> None:
        """Close still-suspended generators so error exits don't leak them."""
        for gen in live.values():
            try:
                gen.close()
            except Exception:
                pass  # a failing finally must not mask the primary error

    # -- fault-layer sweep hooks -------------------------------------------
    def _kill(self, rank: int, live: Dict[int, Generator]) -> None:
        """Crash ``rank``: close its generator, void its inbox."""
        gen = live.pop(rank, None)
        if gen is not None:
            try:
                gen.close()
            except Exception:
                pass  # a dying rank must not take the scheduler with it
        self.dead.add(rank)
        for pkt in self.inboxes[rank]:
            self._lose(pkt)
        self.inboxes[rank].clear()
        self._fault_span(rank, f"crash-rank{rank}")

    def _begin_sweep(self, live: Dict[int, Generator]) -> None:
        """Inject due crashes; release due delayed/retried packets."""
        if self.injector is not None:
            for fault in self.injector.crashes_due(self.tick):
                if fault.rank in live:
                    self._kill(fault.rank, live)
                elif fault.rank in self.finished:
                    # The rank's program already returned, but the node dies
                    # before the end-of-batch barrier: the batch still fails.
                    self.dead.add(fault.rank)
                    self._fault_span(fault.rank,
                                     f"crash-rank{fault.rank}-post")
        while self._retries and self._retries[0][0] <= self.tick:
            _due, _seq, pkt, attempt = heapq.heappop(self._retries)
            self._attempt_send(pkt, attempt)
        while self._delayed and self._delayed[0][0] <= self.tick:
            _due, _seq, pkt = heapq.heappop(self._delayed)
            if pkt.dst in self.dead:
                self._lose(pkt)
            else:
                self._enqueue(pkt)

    def _suspects_expired(self) -> List[int]:
        """Dead ranks whose silence exceeded the detection timeout."""
        return sorted(
            r for r in self.dead
            if self.tick - self._last_beat.get(r, 0) > self.detect_timeout)

    def _has_future_work(self) -> bool:
        """Can advancing the tick alone unblock the run?"""
        return bool(self._delayed or self._retries or self.dead)

    # -- scheduler ---------------------------------------------------------
    def run(self, programs: Dict[int, Generator]) -> None:
        """Drive rank programs to completion.

        ``programs`` maps rank id -> generator.  The protocol: a program
        yields :data:`RECV` to wait for its next message; the yield
        expression evaluates to the :class:`Packet`.  A :data:`POLL` is
        answered within the same visit: the inbox head, or None.  Any
        other yielded value raises :class:`ProtocolError`.  On any error,
        deadlock, or detected rank failure, every still-suspended
        generator is closed before the exception propagates.
        """
        for rank in programs:
            self._check_rank(rank)
        live: Dict[int, Generator] = dict(programs)
        try:
            self._run_loop(live)
        except BaseException:
            self._close_live(live)
            raise
        if self.strict:
            self._raise_on_orphans()

    def _run_loop(self, live: Dict[int, Generator]) -> None:
        # waiting[rank] is True when the rank has yielded RECV and its inbox
        # was empty at last visit.
        started: Dict[int, bool] = {r: False for r in live}
        waiting: Dict[int, bool] = {r: False for r in live}
        for r in live:
            self._last_beat[r] = self.tick

        while live:
            self._begin_sweep(live)
            progressed = self._sweep(live, started, waiting)
            # Heartbeats: every rank whose generator still exists is alive,
            # blocked or not.  Crashed ranks fell out of `live` and go
            # silent; normal completions are registered in `finished`.
            for r in live:
                self._last_beat[r] = self.tick
            expired = self._suspects_expired()
            if expired:
                raise RankFailure(
                    f"rank(s) {expired} stopped heartbeating "
                    f"(last beat {[self._last_beat.get(r, 0) for r in expired]}, "
                    f"declared dead at tick {self.tick} after "
                    f"{self.detect_timeout}-tick timeout)",
                    dead=expired, detected_at=self.tick,
                    crashed_at={r: self._last_beat.get(r, 0)
                                for r in expired})
            self.tick += 1
            if live and not progressed:
                if self._has_future_work():
                    continue  # pure time advance can still unblock the run
                stuck = sorted(live)
                wait_for = {r: sorted(self._peers_in[r]) for r in stuck}
                orphans = self._orphans()
                raise DeadlockError(
                    describe_deadlock(stuck, wait_for, orphans,
                                      self.messages_sent),
                    stuck=stuck, wait_for=wait_for, orphans=orphans,
                )
        if self.injector is not None:
            # Crash faults scheduled past the batch's last sweep fire at
            # the barrier rather than silently never happening.
            for fault in self.injector.pending_crashes(self.tick):
                self.dead.add(fault.rank)
                self._fault_span(fault.rank,
                                 f"crash-rank{fault.rank}-barrier")
        if self.dead:
            # Every program completed, but a rank died along the way: the
            # end-of-batch barrier (gradient all-reduce) cannot complete.
            dead = sorted(self.dead)
            raise RankFailure(
                f"rank(s) {dead} died during the batch; failure detected "
                f"at the end-of-batch barrier (tick {self.tick})",
                dead=dead, detected_at=self.tick,
                crashed_at={r: self._last_beat.get(r, 0) for r in dead})

    def _sweep(self, live: Dict[int, Generator], started: Dict[int, bool],
               waiting: Dict[int, bool]) -> bool:
        """One round-robin pass over all live ranks."""
        progressed = False
        for rank in sorted(live):
            gen = live.get(rank)
            if gen is None:
                continue  # killed earlier in this sweep
            while True:
                if not started[rank]:
                    try:
                        request = next(gen)
                        started[rank] = True
                    except StopIteration:
                        self._retire(rank, live)
                        progressed = True
                        break
                elif waiting[rank]:
                    if not self.inboxes[rank]:
                        break  # still blocked
                    waiting[rank] = False
                    try:
                        request = gen.send(self._take(rank))
                    except StopIteration:
                        self._retire(rank, live)
                        progressed = True
                        break
                else:
                    break
                try:
                    while request == POLL:  # answered now, never waits
                        request = gen.send(self._take(rank))
                except StopIteration:
                    self._retire(rank, live)
                    progressed = True
                    break
                if request != RECV:
                    raise ProtocolError(
                        f"rank {rank} yielded {request!r}; rank programs "
                        f"may only yield RECV or POLL"
                    )
                waiting[rank] = True
                progressed = True
                if self.injector is not None:
                    # Under fault injection each rank advances one blocking
                    # step per sweep, so the tick clock has per-receive
                    # resolution for crash/delay schedules.  (Values are
                    # unaffected: delivery stays FIFO per channel, and rank
                    # programs are deterministic in their inputs.)
                    break
                # Loop again: the message may already be waiting.
        return progressed

    def _take(self, rank: int) -> Optional[Packet]:
        """Deliver the head of ``rank``'s inbox (None when it is empty),
        recording the receive."""
        if not self.inboxes[rank]:
            return None
        packet = self.inboxes[rank].popleft()
        if self.recorder is not None:
            self.recorder.record_recv(rank, packet.src, packet.tag,
                                      packet.microbatch)
        if self.tracer is not None:
            self._trace_delivery(packet)
        return packet

    def _retire(self, rank: int, live: Dict[int, Generator]) -> None:
        del live[rank]
        self.finished.add(rank)

    def _raise_on_orphans(self) -> None:
        orphans = self._orphans()
        if orphans:
            raise self._orphan_error(orphans)
