"""Single-producer single-consumer shared-memory ring buffers.

The process backend (:mod:`repro.runtime.parallel`) moves NumPy payloads
between rank worker processes through these rings — one ring per directed
channel ``(src, dst)`` — so a send is one pickle + one ``memcpy`` into a
:class:`multiprocessing.shared_memory.SharedMemory` segment, with no pipe
syscall or broker process on the hot path.

Layout of a ring segment::

    [ tail : u64 ][ head : u64 ][ tail_frames : u64 ][ head_frames : u64 ]
    [ payload : capacity bytes ]

``tail`` counts bytes ever produced, ``head`` bytes ever consumed; both
increase monotonically (positions are taken modulo ``capacity``), so
``tail - head`` is the exact number of unread bytes and the full/empty
states never alias.  ``tail_frames``/``head_frames`` count whole frames
the same way, so an outside observer (the parent's ``pending()``) can
report *message* counts without consuming anything.  Exactly one process writes ``tail`` (the producer)
and one writes ``head`` (the consumer); 8-byte aligned stores are atomic
on every platform CPython runs on, which is all the synchronization an
SPSC ring needs.

A frame is an 8-byte little-endian length prefix followed by that many
bytes of pickled message.  Frames wrap around the end of the payload
region byte-wise (two ``memcpy`` s).  Messages are ``(src, tag,
microbatch, send_ts, data)`` tuples on the trainer path, but the ring is
payload-agnostic: anything picklable goes — the REP008 lint exists
precisely to keep closures and generators *out* of what callers pass in.

Blocking behaviour: :meth:`ShmRing.push` blocks while the ring lacks
space and :meth:`ShmRing.pop` returns ``None`` when the ring is empty
(the caller owns the poll loop so it can interleave channels, heartbeats
and abort checks).  Both take an optional ``abort`` callable consulted
while spinning, so a worker blocked on a ring whose peer died can bail
out instead of spinning forever.
"""

from __future__ import annotations

import pickle
import struct
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Optional

__all__ = ["RingAborted", "RingFull", "ShmRing", "attach_shared_memory"]


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* resource-tracker tracking.

    Only the creating process may unlink a segment.  Attaching normally
    registers it with the resource tracker anyway (fixed only in 3.13's
    ``track=False``), and under the fork start method parent and children
    share one tracker process — so a child's unregister-after-attach
    (the usual bpo-39959 dance) would erase the *parent's* registration
    and spray ``KeyError`` noise at exit.  Suppressing registration for
    the duration of the attach sidesteps both failure modes.
    """
    try:
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
    except Exception:  # pragma: no cover - interpreter internals moved
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original

_HEADER = 32  # tail:u64 + head:u64 + tail_frames:u64 + head_frames:u64
_LEN = struct.Struct("<Q")

# The one back-off of every shared-memory poll loop: a ring's wait for
# space and the worker's wait for a frame (``WorkerContext._recv`` in
# :mod:`repro.runtime.parallel` imports this pair).
#: seconds to sleep between polls once the short spin phase is exhausted
_POLL_SLEEP = 100e-6
#: pure-spin iterations before backing off to timed sleeps
_SPIN = 64


class RingAborted(RuntimeError):
    """A blocking ring operation was interrupted by the abort signal."""


class RingFull(RuntimeError):
    """A frame can never fit: it is larger than the whole ring."""


class ShmRing:
    """One directed SPSC channel over a shared-memory segment.

    Create the segment in the parent with :meth:`create`, then
    :meth:`attach` from the two endpoint processes by name.  The creator
    is responsible for :meth:`unlink`; every attacher must :meth:`close`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int,
                 owner: bool) -> None:
        self._shm = shm
        self.capacity = capacity
        self._owner = owner
        self._buf = shm.buf
        #: optional callable ``(op, pos, size, seen)`` invoked after every
        #: completed push/pop — ``op`` is ``"push"``/``"pop"``, ``pos`` the
        #: absolute byte position of the frame, ``size`` its extent, and
        #: ``seen`` the peer counter observed by the synchronizing load
        #: (head for a push, tail for a pop).  The race detector
        #: (:mod:`repro.analysis.races`) builds its acquire/release edges
        #: from exactly these four values; ``None`` costs nothing.
        self.observer: Optional[Callable[[str, int, int, int], None]] = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        if capacity < 1024:
            raise ValueError("ring capacity must be >= 1024 bytes")
        shm = shared_memory.SharedMemory(create=True,
                                         size=_HEADER + capacity)
        shm.buf[:_HEADER] = b"\x00" * _HEADER
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        return cls(attach_shared_memory(name), capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._buf = None
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

    # -- counters ----------------------------------------------------------
    @property
    def _tail(self) -> int:
        return _LEN.unpack_from(self._buf, 0)[0]

    @_tail.setter
    def _tail(self, value: int) -> None:
        _LEN.pack_into(self._buf, 0, value)

    @property
    def _head(self) -> int:
        return _LEN.unpack_from(self._buf, 8)[0]

    @_head.setter
    def _head(self, value: int) -> None:
        _LEN.pack_into(self._buf, 8, value)

    def unread(self) -> int:
        """Bytes currently sitting unconsumed in the ring."""
        return self._tail - self._head

    def frames(self) -> int:
        """Whole messages currently sitting unconsumed in the ring."""
        return (_LEN.unpack_from(self._buf, 16)[0]
                - _LEN.unpack_from(self._buf, 24)[0])

    # -- byte-wise wrap-around copies --------------------------------------
    def _write_at(self, pos: int, data: bytes) -> None:
        start = _HEADER + (pos % self.capacity)
        first = min(len(data), _HEADER + self.capacity - start)
        self._buf[start:start + first] = data[:first]
        if first < len(data):
            self._buf[_HEADER:_HEADER + len(data) - first] = data[first:]

    def _read_at(self, pos: int, n: int) -> bytes:
        start = _HEADER + (pos % self.capacity)
        first = min(n, _HEADER + self.capacity - start)
        out = bytes(self._buf[start:start + first])
        if first < n:
            out += bytes(self._buf[_HEADER:_HEADER + n - first])
        return out

    # -- producer ----------------------------------------------------------
    def push(self, message: Any,
             abort: Optional[Callable[[], bool]] = None) -> int:
        """Pickle ``message`` and append it, blocking while the ring is
        full.  Returns the frame size in bytes.  Raises :class:`RingFull`
        if the frame exceeds the ring capacity (it could never fit) and
        :class:`RingAborted` if ``abort()`` turns true while waiting."""
        frame = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        need = _LEN.size + len(frame)
        if need > self.capacity:
            raise RingFull(
                f"frame of {need} bytes exceeds ring capacity "
                f"{self.capacity}; size the ring for the largest payload")
        spins = 0
        while self.capacity - (self._tail - self._head) < need:
            if abort is not None and abort():
                raise RingAborted("ring push aborted")
            spins += 1
            time.sleep(0 if spins < _SPIN else _POLL_SLEEP)
        # The head value that proved there is room: the acquiring load
        # that orders this write after the consumer's reads of the bytes
        # being overwritten.
        head_seen = self._head
        tail = self._tail
        self._write_at(tail, _LEN.pack(len(frame)))
        self._write_at(tail + _LEN.size, frame)
        # Publish after the payload is fully written (single atomic store).
        self._tail = tail + need
        _LEN.pack_into(self._buf, 16,
                       _LEN.unpack_from(self._buf, 16)[0] + 1)
        if self.observer is not None:
            self.observer("push", tail, need, head_seen)
        return need

    # -- consumer ----------------------------------------------------------
    def pop(self) -> Optional[Any]:
        """Consume and return the next message, or ``None`` when empty."""
        head = self._head
        # The tail value this pop synchronized on: everything the producer
        # published up to it happens-before our reads below.
        tail_seen = self._tail
        if tail_seen - head < _LEN.size:
            return None
        size = _LEN.unpack(self._read_at(head, _LEN.size))[0]
        # The producer publishes tail only after the full frame is in
        # place, so once the length is visible the payload is too.
        frame = self._read_at(head + _LEN.size, size)
        message = pickle.loads(frame)
        self._head = head + _LEN.size + size
        _LEN.pack_into(self._buf, 24,
                       _LEN.unpack_from(self._buf, 24)[0] + 1)
        if self.observer is not None:
            self.observer("pop", head, _LEN.size + size, tail_seen)
        return message

    def drain(self) -> list:
        """Consume every buffered message (end-of-run orphan sweep)."""
        out = []
        while True:
            msg = self.pop()
            if msg is None:
                return out
            out.append(msg)
