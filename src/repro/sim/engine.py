"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based discrete-event engine in the style
of SimPy.  Simulated *processes* are Python generators that ``yield`` event
objects; the engine resumes a process when the event it is waiting on fires.

The kernel is the substrate for the cluster / network / GPU models used by
the performance experiments: every GPU, CUDA stream, DMA engine, link and
communication backend in :mod:`repro.cluster` and :mod:`repro.comm` is a
process or resource built on these primitives.

Determinism
-----------
The event queue is a binary heap ordered by ``(time, priority, sequence)``.
The monotonically increasing sequence number makes tie-breaking fully
deterministic, so a simulation with the same inputs always produces the same
schedule.  No wall-clock time is consulted anywhere.

Cost
----
An event is queued only if something can wait on it: an immediate
``Store.put`` returns an event that has already fired (see
:mod:`.resources`), so a deposit costs no step.  Leaving out an event
nothing waits on does not reorder the others — the sequence number only
breaks ties — so the order guarantee above is unchanged.  Each queued
event costs one :meth:`Environment.step`, which pops it, advances the
clock and runs its callbacks; the triggers push onto the heap
themselves.  A delay that is negative or NaN is refused when the event
is scheduled.  A model that can compute when something finishes
schedules that one event with :meth:`Environment.timeout_at` instead of
stepping through the intermediate ones.

Example
-------
>>> env = Environment()
>>> def proc(env, out):
...     yield env.timeout(3.0)
...     out.append(env.now)
>>> out = []
>>> _ = env.process(proc(env, out), name="example")
>>> env.run()
>>> out
[3.0]

Always pass ``name=`` to :meth:`Environment.process` — named processes
keep traces and deadlock diagnostics readable, and lint rule REP004
(``python -m repro.analysis lint``) enforces it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]

# Scheduling priorities: URGENT events (e.g. process resumption after an
# event fires) run before NORMAL events scheduled for the same instant.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


def _bad_delay(delay: Any) -> ValueError:
    return ValueError(f"delay must be a number >= 0, got {delay!r}")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding twice on a
    triggered-and-consumed event, or running a finished environment with
    ``until`` in the past)."""


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the interrupter-supplied payload.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    schedules it; once the engine pops it from the queue it is *processed*
    (``callbacks`` is ``None``) and its callbacks have run.  Processes wait
    on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: callables invoked (in registration order) when the event fires
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        #: set True once a waiter has handled this event's failure
        self._defused = False

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """Payload delivered to waiters.  Valid only once triggered."""
        if not self._triggered:
            raise SimulationError("value accessed before event was triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not delay >= 0:
            raise _bad_delay(delay)
        self._triggered = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, env._seq,
                              self))
        env._seq += 1
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not delay >= 0:
            raise _bad_delay(delay)
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, env._seq,
                              self))
        env._seq += 1
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.callbacks is None
            else "triggered" if self._triggered
            else "pending"
        )
        name = getattr(self, "name", "")
        label = f" {name!r}" if name else ""
        return f"<{type(self).__name__}{label} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise _bad_delay(delay)
        # Event.__init__ inlined: this is the most frequent event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, env._seq,
                              self))
        env._seq += 1


class Process(Event):
    """A running generator.  Also an event: it fires when the generator
    returns (value = the generator's return value) or raises (failure).

    Yield protocol inside the generator:

    * ``yield some_event``  — suspend until the event fires.  The ``yield``
      expression evaluates to the event's value; a failed event re-raises
      its exception inside the generator.
    """

    __slots__ = ("generator", "_target", "name", "_callback")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None if ready)
        self._target: Optional[Event] = None
        #: ``self._resume``, bound once: registered on every awaited event
        self._callback = self._resume
        # Bootstrap: resume the generator at time `now` via an urgent event.
        boot = Event(env)
        boot._triggered = True
        boot.callbacks.append(self._callback)
        heappush(env._queue, (env._now, PRIORITY_URGENT, env._seq, boot))
        env._seq += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event is
        left untouched and may still fire later, unobserved).
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._callback)
            except ValueError:
                pass
        self._target = None
        env = self.env
        hit = Event(env)
        hit._triggered = True
        hit._ok = False
        hit._value = Interrupt(cause)
        hit.callbacks.append(self._callback)
        # Suppress "unhandled failure" checking: delivery is via throw().
        hit._defused = True
        heappush(env._queue, (env._now, PRIORITY_URGENT, env._seq, hit))
        env._seq += 1

    # -- engine internals --------------------------------------------------
    def _resume(self, event: Event) -> None:
        generator = self.generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    # Mark the failure as handled by this process.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, Interrupt):
                        target = generator.throw(exc)
                    else:
                        target = generator.throw(type(exc), exc)
            except StopIteration as stop:
                self._target = None
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                if not self._triggered:
                    self.fail(exc)
                else:  # pragma: no cover - defensive
                    raise
                return

            if not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                generator.close()
                self.fail(err)
                return
            if target.env is not self.env:
                raise SimulationError("yielded event belongs to another Environment")
            callbacks = target.callbacks
            if callbacks is not None:
                # Not yet processed: register and suspend.
                callbacks.append(self._callback)
                self._target = target
                return
            # Already processed: continue immediately with its value.
            event = target


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev._triggered and ev.callbacks is None
        }

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when *any* constituent event fires.  Value: dict of the events
    processed so far mapped to their values."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when *all* constituent events have fired.  Value: dict mapping
    every event to its value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._collect())


class Environment:
    """The simulation environment: clock + event queue + scheduler."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []  # heap of (time, priority, seq, event)
        self._seq = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Event:
        """Create an event firing at the absolute time ``when``.

        For a time computed ahead of the clock: ``timeout(when - now)``
        fires at ``now + (when - now)``, which need not round back to
        ``when``.  A time before ``now``, or NaN, raises ``ValueError``.
        """
        if not when >= self._now:
            raise ValueError(f"when must be a time >= now ({self._now!r}), "
                             f"got {when!r}")
        ev = Event(self)
        ev._triggered = True
        heappush(self._queue, (when, PRIORITY_NORMAL, self._seq, ev))
        self._seq += 1
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty schedule")
        self._now, _prio, _seq, event = heappop(queue)
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of silently
            # swallowing broken simulations.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        With ``until``, the clock is advanced to exactly ``until`` even if
        the last event fires earlier (mirrors SimPy semantics closely enough
        for our use).  Each event is one :meth:`step` call.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        queue = self._queue
        step = self.step
        if until is None:
            while queue:
                step()
            return
        while queue and queue[0][0] <= until:
            step()
        self._now = until
