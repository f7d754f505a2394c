"""In-memory span recorder wrapped around public entry points.

The spine measures every layer from outside: for the traced pass it
replaces public methods (``PipelineStage.forward``, ``RankTransport.send``,
...) with wrappers that record a span per call — name, start, end and the
span that caused it — in plain lists, and restores the originals after.
Nothing under ``src/`` is edited and nothing is written while timing.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of all spans under one operation add
up to exactly that operation's duration: the per-layer budget.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

__all__ = ["SpanRecorder", "Totals"]

#: per span name: [calls, total seconds, self seconds]
Totals = Dict[str, List[float]]


class SpanRecorder:
    """Records nested spans and event counts; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []
        #: (owner, attribute, original, whether owner defined it itself)
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr),
                              attr in vars(owner)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` (a method of a class or a function of a
        module) with a span-recording wrapper until :meth:`restore`.
        ``on_call(*args, **kwargs)`` runs before the span opens, for
        counts taken at the same boundary."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx)

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without timing
        them (for boundaries too hot to time, e.g. one DES event)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_programs(self, cls: type, name: str, run_name: str) -> None:
        """Wrap ``cls.run(programs)``: the call itself is a ``run_name``
        span, and every resumption of a rank-program generator is a
        ``name`` span — which separates the scheduler's own sweep time
        from the program bodies it resumes."""
        original = getattr(cls, "run")

        @functools.wraps(original)
        def run(transport, programs):
            programs = {rank: self._traced_program(name, gen)
                        for rank, gen in programs.items()}
            idx = self.begin(run_name)
            try:
                return original(transport, programs)
            finally:
                self.end(idx)

        self._patch(cls, "run", run)

    def _traced_program(self, name: str, gen: Generator) -> Generator:
        value = None
        try:
            while True:
                idx = self.begin(name)
                try:
                    request = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.end(idx)
                value = yield request
        finally:
            gen.close()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation -------------------------------------------------------
    def drain(self) -> Tuple[Totals, Dict[str, float]]:
        """Aggregate and forget everything recorded since the last drain.

        Returns per-name ``[calls, total_s, self_s]`` and the counts.
        """
        child_time = [0.0] * len(self.names)
        totals: Totals = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            parent = self.parents[idx]
            if parent >= 0:
                child_time[parent] += dur
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            totals[name][2] += dur - child_time[idx]
        counts = self.counts
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = {}
        return totals, counts
