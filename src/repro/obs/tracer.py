"""The span tracer both substrates record into.

The discrete-event machine (:mod:`repro.cluster`) stamps spans with
simulated seconds it passes in; the functional runtime, the serving engine
and the fleet stamp them with wall-clock seconds from :meth:`Tracer.now`
(a fixed origin, tracer construction).  Either way the record is the
shared :class:`~repro.obs.schema.ObsSpan`, and a disabled tracer costs
nothing — the hot paths guard every call with ``tracer.enabled`` (or
``if tracer is not None``), and :meth:`Tracer.record` short-circuits.

Usage::

    tracer = Tracer()
    with tracer.span(rank=0, stream="compute", name="fwd0",
                     category="compute", microbatch=0):
        stage.forward(...)
    tracer.record(rank=1, stream="net", name="forward", start=t0,
                  end=tracer.now(), category="p2p", nbytes=4096)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .schema import CATEGORIES, ObsSpan

__all__ = ["Tracer"]


class Tracer:
    """Collects :class:`ObsSpan` records.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.perf_counter`); :meth:`now` is relative to ``origin``, the
    clock value at construction, so exported traces start near zero.
    """

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.origin = clock()
        self.spans: List[ObsSpan] = []

    def now(self) -> float:
        """Seconds since ``origin``."""
        return self._clock() - self.origin

    def record(self, rank: int, stream: str, name: str, start: float,
               end: float, category: str = "other",
               microbatch: Optional[int] = None,
               nbytes: Optional[int] = None, **meta: object) -> None:
        """Record a completed span; refuses ``end < start`` and a category
        outside :data:`~repro.obs.schema.CATEGORIES`."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(
                f"span ends before it starts: {name} [{start}, {end}]")
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; expected one of "
                f"{CATEGORIES}")
        self.spans.append(ObsSpan(
            rank=rank, stream=stream, name=name, start=start, end=end,
            category=category, microbatch=microbatch, nbytes=nbytes,
            meta=tuple(sorted(meta.items())),
        ))

    @contextmanager
    def span(self, rank: int, stream: str, name: str,
             category: str = "other", microbatch: Optional[int] = None,
             nbytes: Optional[int] = None,
             **meta: object) -> Iterator[None]:
        """Context manager recording the enclosed block as one span."""
        if not self.enabled:
            yield
            return
        start = self.now()
        try:
            yield
        finally:
            self.record(rank, stream, name, start, self.now(),
                        category=category, microbatch=microbatch,
                        nbytes=nbytes, **meta)

    # -- queries -----------------------------------------------------------
    def tracks(self) -> List[str]:
        """Track names in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track, None)
        return list(seen)

    def by_category(self, category: str) -> List[ObsSpan]:
        return [s for s in self.spans if s.category == category]

    def clear(self) -> None:
        self.spans.clear()
