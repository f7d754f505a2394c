"""The shared span schema of the observability layer.

Both execution substrates — the discrete-event performance model
(:mod:`repro.cluster`) and the functional runtime (:mod:`repro.runtime`)
— describe what happened as *spans*: named intervals on a ``(rank,
stream)`` track, recorded through the one :class:`repro.obs.Tracer`.
This module defines the one record they share, so exporters
(:mod:`repro.obs.export`) and report functions (:mod:`repro.obs.report`)
never need to know which substrate produced a timeline.

A span is:

``rank``
    The GPU / rank the work ran on (the Chrome-trace ``pid``).
``stream``
    Which engine of that rank: ``"compute"`` (default CUDA stream),
    ``"aux"`` (AxoNN's second stream, paper Fig. 7), ``"dma"`` (host<->
    device copies), ``"net"`` (NVLink port / NIC occupancy), ``"tp"``
    (tensor-parallel collectives), plus the resilience / serving / fleet
    streams of :data:`STREAMS`.  The Chrome-trace ``tid``.
``name`` / ``category``
    The span label (``fwd3``, ``allreduce-chunk0``, ...) and its coarse
    class — one of :data:`CATEGORIES` — which the reports aggregate over.
``start`` / ``end``
    Seconds.  Simulated seconds on the DES substrate, wall-clock seconds
    (from an arbitrary origin) on the functional runtime — the schema does
    not distinguish; all report math is origin- and unit-agnostic.
``microbatch`` / ``nbytes``
    Optional payload identity: which microbatch the work belonged to and
    how many bytes moved (communication and DMA spans).
``meta``
    Any further key/value payload (``src``/``dst`` ranks of a transfer,
    flops of a kernel, backend name, ...), stored as a sorted tuple so
    spans stay hashable.

A runtime stage pass that ran a *group* of microbatches as one stacked
pass is one compute span named ``fwd2+3`` carrying ``microbatches=(2,
3)`` and ``width=2``; :func:`member_events` maps it to the per-microbatch
``fwd2`` / ``fwd3`` events the performance model emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["CATEGORIES", "STREAMS", "ObsSpan", "validate_span",
           "member_events"]

#: canonical span categories; reports aggregate on these.  ``fault``,
#: ``recovery`` and ``checkpoint`` belong to the resilience layer
#: (injected faults, rollback/respawn recoveries, snapshot writes);
#: ``tp`` is an intra-layer (tensor-parallel) collective.
CATEGORIES = ("compute", "p2p", "allreduce", "optimizer", "h2d", "d2h",
              "other", "fault", "recovery", "checkpoint", "tp")

#: canonical stream names in display order (Chrome-trace tid assignment);
#: ``fault`` carries the resilience layer's markers, ``fleet`` the elastic
#: serving layer's lifecycle (scale-up/down, cold starts, drains, crashes),
#: ``tp`` a rank's tensor-parallel collectives
STREAMS = ("compute", "aux", "dma", "net", "fault", "serve", "fleet", "tp")


@dataclass(frozen=True)
class ObsSpan:
    """One observed interval on a ``(rank, stream)`` track."""

    rank: int
    stream: str
    name: str
    start: float
    end: float
    category: str = "other"
    microbatch: Optional[int] = None
    nbytes: Optional[int] = None
    meta: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def track(self) -> str:
        """Display track name, ``gpu{rank}.{stream}``."""
        return f"gpu{self.rank}.{self.stream}"

    def with_meta(self) -> Dict[str, object]:
        return dict(self.meta)


def validate_span(span: ObsSpan) -> None:
    """Raise :class:`ValueError` on a schema violation."""
    if span.rank < 0:
        raise ValueError(f"negative rank: {span.rank}")
    if not span.stream:
        raise ValueError("empty stream name")
    if not span.name:
        raise ValueError("empty span name")
    if span.end < span.start:
        raise ValueError(
            f"span ends before it starts: {span.name} "
            f"[{span.start}, {span.end}]")
    if span.category not in CATEGORIES:
        raise ValueError(
            f"unknown category {span.category!r}; expected one of "
            f"{CATEGORIES}")
    if span.nbytes is not None and span.nbytes < 0:
        raise ValueError(f"negative nbytes: {span.nbytes}")


def member_events(span: ObsSpan) -> List[str]:
    """The per-microbatch event names ``span`` stands for: a compute pass
    over a group (``fwd2+3``, ``microbatches=(2, 3)``) is ``fwd2`` and
    ``fwd3``; any other span is its own name."""
    members = span.with_meta().get("microbatches")
    if span.category != "compute" or not members:
        return [span.name]
    kind = span.name.rstrip("0123456789+")
    return [f"{kind}{mb}" for mb in members]
