"""Deterministic discrete-event simulation kernel (SimPy-like).

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AnyOf`, :class:`AllOf`, :class:`Interrupt` — the engine.
* :class:`Resource`, :class:`PriorityResource`, :class:`Store` — shared
  resources (streams, links, inboxes).

The kernel records no spans: the machine built on it (:mod:`repro.cluster`)
records them on :class:`repro.obs.Tracer`, the tracer both substrates
share.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .processes import poisson_process
from .resources import PriorityResource, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "poisson_process",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
]
