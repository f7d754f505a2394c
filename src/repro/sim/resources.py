"""Shared resources for the simulation kernel.

Three primitives cover everything the cluster model needs:

* :class:`Resource` — a counted semaphore with FIFO queueing.  Models CUDA
  streams, DMA engines, NICs: anything that serializes work.
* :class:`PriorityResource` — like :class:`Resource` but requests carry a
  priority (lower value served first; FIFO within a priority level).
* :class:`Store` — an unbounded (or bounded) FIFO of items.  Models message
  inboxes for the message-driven scheduler.

All primitives are deterministic: waiters are served in request order.

Each primitive schedules only events something can wait on: a grant, a
delivery to a getter, the acceptance of a put that had to wait for room.
A put accepted at once returns an event that has already fired, so
``yield store.put(x)`` continues in the same step, and no other event's
``(time, priority, sequence)`` order moves.  A resource keeps no busy
history; utilization is read from recorded spans
(:func:`repro.obs.utilization_report`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "PriorityResource", "Store", "Request"]


class Request(Event):
    """Event that fires when the resource grants the request.

    Usable as a context token: pass it back to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority


class Resource:
    """Counted resource with ``capacity`` concurrent users, FIFO-granted.

    Usage inside a process::

        req = resource.request()
        yield req
        ...  # hold the resource
        resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: int = 0
        self._waiters: Deque[Request] = deque()

    # -- stats -------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._users

    @property
    def queue_len(self) -> int:
        """Number of pending requests."""
        return len(self._waiters)

    # -- protocol ------------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Ask for one unit of the resource; returned event fires on grant."""
        req = Request(self, priority)
        if self._users < self.capacity and not self._waiters:
            self._users += 1
            req.succeed(req)
        else:
            self._enqueue(req)
        return req

    def release(self, req: Request) -> None:
        """Give back a granted unit and wake the next waiter, if any."""
        if req.resource is not self:
            raise SimulationError("release() of a foreign request")
        if not req._triggered:
            # Cancelling a never-granted request.
            self._dequeue(req)
            return
        self._users -= 1
        if self._users < 0:  # pragma: no cover - defensive
            raise SimulationError(f"double release on resource {self.name!r}")
        nxt = self._pop_next()
        if nxt is not None:
            self._users += 1
            nxt.succeed(nxt)

    # -- queue policy (overridden by PriorityResource) ----------------------
    def _enqueue(self, req: Request) -> None:
        self._waiters.append(req)

    def _dequeue(self, req: Request) -> None:
        try:
            self._waiters.remove(req)
        except ValueError:
            pass

    def _pop_next(self) -> Optional[Request]:
        return self._waiters.popleft() if self._waiters else None


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value first,
    FIFO among equals."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._pq: List[Tuple[int, int, Request]] = []
        self._pq_seq = 0

    def _enqueue(self, req: Request) -> None:
        heapq.heappush(self._pq, (req.priority, self._pq_seq, req))
        self._pq_seq += 1

    def _dequeue(self, req: Request) -> None:
        self._pq = [entry for entry in self._pq if entry[2] is not req]
        heapq.heapify(self._pq)

    def _pop_next(self) -> Optional[Request]:
        if not self._pq:
            return None
        return heapq.heappop(self._pq)[2]

    @property
    def queue_len(self) -> int:
        return len(self._pq)


class Store:
    """FIFO store of items — the message inbox primitive.

    ``put`` never blocks unless a finite ``capacity`` is given; ``get``
    returns an event firing when an item is available.  Items are delivered
    to getters in arrival order (FIFO on both sides), which is exactly the
    delivery guarantee the message-driven scheduler relies on.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be None or >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """A copy of the queued items, oldest first."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; returned event fires when accepted — already
        fired when there is room, so nothing is scheduled for it."""
        ev = Event(self.env)
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._putters.append((ev, item))
            return ev
        ev._triggered = True
        ev.callbacks = None
        return ev

    def get(self) -> Event:
        """Returned event fires with the oldest item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                pev, pitem = self._putters.popleft()
                self._items.append(pitem)
                pev.succeed()
        else:
            self._getters.append(ev)
        return ev
