"""Performance instrumentation: op-level counters.

:mod:`counters` proves that the fused ops really do collapse the autograd
graph (one node where the unfused composition records many); the spine
benchmark (``benchmarks/spine/``) reads them as its per-op kernel-call
and graph-node metrics.

It deliberately imports nothing from :mod:`repro.nn` so the tensor core
can hook into the counters without an import cycle.
"""

from .counters import OpCounters, counters, counting

__all__ = [
    "OpCounters",
    "counters",
    "counting",
]
