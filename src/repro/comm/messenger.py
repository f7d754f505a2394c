"""Point-to-point messaging with backend-faithful semantics.

The paper's central implementation claim (Section IV-A) is that the *choice
of point-to-point backend changes what overlaps*:

* **MPI (CUDA-aware, GPUDirect)** — ``MPI_Isend``/``MPI_Irecv`` are
  non-blocking: the message progresses on the network while the GPU keeps
  computing.  In the model, an MPI send occupies only the fabric (ports /
  NICs), never a compute stream; the send call itself costs one kernel-launch
  overhead on the caller.

* **NCCL** — point-to-point primitives "block on the communicating GPUs
  until a handshake is completed".  In the model, an NCCL send occupies the
  *sender's compute stream* for the full wire time (the receiver additionally
  stalls on the data dependency when it tries to consume the message).

Every GPU has an inbox (:class:`~repro.sim.Store`); delivery order into the
inbox is the arrival order on the wire, which is exactly the order the
message-driven scheduler consumes.

``messages_sent``/``bytes_sent`` count **deliveries**, not ``isend()``
calls: a blocking-backend send whose process never completes (simulation cut
short, deadlock) does not inflate the counters, keeping them consistent with
what the receivers — and the tests — actually observe.

Pass ``recorder=`` (a :class:`~repro.obs.protocol.TraceRecorder`) to
log sends at initiation and receives at consumption, for post-hoc protocol
verification; :meth:`Messenger.check_drained` raises
:class:`~repro.obs.protocol.ProtocolError` listing any message still
rotting in an inbox after a phase completes.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..cluster import Machine
from ..cluster.calibration import CommCostModel
from ..obs.protocol import ProtocolError, TraceRecorder
from ..sim import Event, Store
from .message import Message

__all__ = ["Messenger"]


class Messenger:
    """Backend-parameterized p2p messaging layer over a :class:`Machine`."""

    def __init__(self, machine: Machine, model: CommCostModel, *,
                 recorder: Optional[TraceRecorder] = None):
        self.machine = machine
        self.model = model
        self.recorder = recorder
        self.inboxes: List[Store] = [
            Store(machine.env, name=f"gpu{g}.inbox")
            for g in range(machine.spec.num_gpus)
        ]
        #: counters for tests / stats — incremented on *delivery*
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- send ------------------------------------------------------------------
    def isend(self, msg: Message) -> Event:
        """Initiate a send; returns a completion event (the MPI request).

        With a non-blocking backend the caller's compute stream is untouched;
        with a blocking backend the wire time runs *on the sender's compute
        stream* (the caller still gets a request event, but any kernel the
        sender schedules afterwards queues behind the transfer).
        """
        if self.recorder is not None:
            self.recorder.record_send(msg.src, msg.dst, msg.tag,
                                      msg.meta.get("mb"), nbytes=msg.nbytes)
        if self.model.blocking_p2p:
            proc = self.machine.env.process(
                self._blocking_send(msg), name=f"nccl-send-{msg.tag}"
            )
        else:
            proc = self.machine.env.process(
                self._async_send(msg), name=f"mpi-isend-{msg.tag}"
            )
        return proc

    def send(self, msg: Message) -> Generator:
        """Process form of :meth:`isend` (yields until delivery)."""
        yield self.isend(msg)

    def _deliver(self, msg: Message) -> None:
        """Deposit ``msg``; the sender then takes one zero-delay hop, so
        its send completes after the woken receiver resumes."""
        self.messages_sent += 1
        self.bytes_sent += msg.nbytes
        self.inboxes[msg.dst].put(msg)

    def _async_send(self, msg: Message) -> Generator:
        yield from self.machine.fabric.transfer(
            msg.src, msg.dst, msg.nbytes, self.model, label=msg.tag,
            microbatch=msg.meta.get("mb")
        )
        self._deliver(msg)
        yield self.machine.env.timeout(0)

    def _blocking_send(self, msg: Message) -> Generator:
        gpu = self.machine.gpu(msg.src)
        req = gpu.compute_stream.request()
        try:
            yield req
            yield from self.machine.fabric.transfer(
                msg.src, msg.dst, msg.nbytes, self.model, label=msg.tag,
                microbatch=msg.meta.get("mb")
            )
        finally:
            gpu.compute_stream.release(req)
        self._deliver(msg)
        yield self.machine.env.timeout(0)

    # -- receive ---------------------------------------------------------------
    def irecv(self, gpu_id: int) -> Event:
        """Non-blocking receive: event firing with the next inbox message.

        AxoNN issues its ``MPI_Irecv`` preemptively at the start of each
        pass so reception overlaps computation; the Store-based inbox gives
        the same behaviour — messages arriving while the GPU computes are
        queued and the next ``yield messenger.irecv(g)`` completes instantly.
        """
        ev = self.inboxes[gpu_id].get()
        if self.recorder is not None:
            recorder = self.recorder

            def _record(event: Event) -> None:
                msg = event.value
                if isinstance(msg, Message):
                    recorder.record_recv(gpu_id, msg.src, msg.tag,
                                         msg.meta.get("mb"),
                                         nbytes=msg.nbytes)

            if ev.callbacks is not None:
                ev.callbacks.append(_record)
            else:  # already processed (cannot happen for Store.get, but safe)
                _record(ev)
        return ev

    def pending(self, gpu_id: int) -> int:
        """Messages queued in ``gpu_id``'s inbox."""
        return len(self.inboxes[gpu_id])

    def check_drained(self) -> None:
        """Raise :class:`ProtocolError` if any inbox still holds messages.

        Call after a phase completes: a non-empty inbox means some rank sent
        a message nobody received — the orphan-packet bug class the protocol
        verifier exists to catch.
        """
        orphans = [(g, msg) for g, inbox in enumerate(self.inboxes)
                   for msg in getattr(inbox, "items", [])]
        if not orphans:
            return
        listing = "\n  ".join(
            f"{msg.src} -> {msg.dst} tag={msg.tag!r} "
            f"microbatch={msg.meta.get('mb')} (in gpu {g}'s inbox)"
            for g, msg in orphans[:20])
        more = f"\n  ... and {len(orphans) - 20} more" \
            if len(orphans) > 20 else ""
        raise ProtocolError(
            f"phase finished with {len(orphans)} undelivered message(s) "
            f"left in inboxes (orphan sends — a receive is missing):\n  "
            f"{listing}{more}"
        )
