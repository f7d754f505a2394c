"""Numerical collectives on the rank transports.

The trainer's data-parallel phase (:mod:`repro.runtime.column`) has each
slot's owner sum the replicas in a fixed order, so every backend agrees to
the bit; this module provides the textbook counterpart — a real ring
all-reduce (reduce-scatter + all-gather) executed by rank programs
exchanging chunk messages — to demonstrate and test the communication
pattern the cost model prices.  The result is numerically the element-wise
sum across ranks.

The rank program is a module-level generator (:func:`ring_allreduce_program`)
so both execution backends run it: the cooperative scheduler drives it
in-process, and :class:`~repro.runtime.parallel.ProcessTransport` ships it
to worker processes as a :class:`~repro.runtime.parallel.ProgramSpec`
(module-level functions pickle by reference; closures do not — the same
constraint lint rule REP008 enforces for payloads).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .parallel import ProcessTransport, ProgramSpec
from .transport import RECV, RankTransport

__all__ = ["ring_allreduce", "ring_allreduce_program"]

TAG_RING = "ring-chunk"


def _chunk_bounds(n: int, p: int) -> List[tuple]:
    base, extra = divmod(n, p)
    bounds = []
    start = 0
    for i in range(p):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def ring_allreduce_program(rank: int, send, p: int, buf: np.ndarray):
    """The textbook ring all-reduce for one rank (indices 0..p-1).

    ``send(dst, tag, microbatch, data)`` is the transport's bound send;
    ``buf`` is this rank's flat contribution, reduced **in place** and
    returned (the generator's ``return`` value, so the process backend can
    ship it home).  ``p - 1`` reduce-scatter rounds (each rank accumulates
    into one travelling chunk) then ``p - 1`` all-gather rounds (the
    finished chunks circulate).
    """
    buf = np.asarray(buf)
    bounds = _chunk_bounds(buf.size, p)
    succ = (rank + 1) % p
    # Reduce-scatter: in round t, rank i sends chunk (i - t) mod p and
    # accumulates the received chunk (i - t - 1) mod p.
    for t in range(p - 1):
        a, b = bounds[(rank - t) % p]
        send(succ, TAG_RING, t, buf[a:b].copy())
        pkt = yield RECV
        a, b = bounds[(rank - t - 1) % p]
        buf[a:b] += pkt.data
    # All-gather: circulate the completed chunks.
    for t in range(p - 1):
        a, b = bounds[(rank + 1 - t) % p]
        send(succ, TAG_RING, p + t, buf[a:b].copy())
        pkt = yield RECV
        a, b = bounds[(rank - t) % p]
        buf[a:b] = pkt.data
    return buf


def ring_allreduce(arrays: Dict[int, np.ndarray],
                   backend: str = "cooperative") -> Dict[int, np.ndarray]:
    """All-reduce (sum) ``arrays`` keyed by rank via an actual ring.

    Every rank runs :func:`ring_allreduce_program`; with
    ``backend="process"`` each rank runs in its own OS process over
    shared-memory rings.  Returns the reduced array per rank; all returned
    arrays are equal to the element-wise sum.
    """
    ranks = sorted(arrays)
    p = len(ranks)
    if p == 0:
        raise ValueError("no ranks")
    shapes = {r: arrays[r].shape for r in ranks}
    first = arrays[ranks[0]]
    if any(arrays[r].shape != first.shape or arrays[r].dtype != first.dtype
           for r in ranks):
        raise ValueError("all ranks must contribute same-shape, same-dtype "
                         "arrays")
    if p == 1:
        return {ranks[0]: arrays[ranks[0]].copy()}

    flat = {r: arrays[r].reshape(-1).copy() for r in ranks}
    index_of = {r: i for i, r in enumerate(ranks)}

    if backend == "process":
        transport = ProcessTransport(p)
        try:
            results = transport.run({
                index_of[r]: ProgramSpec(ring_allreduce_program, p, flat[r])
                for r in ranks})
        finally:
            transport.close()
        return {r: np.asarray(results[index_of[r]]).reshape(shapes[r])
                for r in ranks}
    if backend != "cooperative":
        raise ValueError(f"unknown backend {backend!r}")

    transport = RankTransport(p)
    out: Dict[int, np.ndarray] = {}

    def bound(i: int):
        return lambda dst, tag, mb, data: transport.send(i, dst, tag, mb,
                                                         data)

    def capture(i: int, gen):
        out[i] = yield from gen

    transport.run({
        index_of[r]: capture(index_of[r],
                             ring_allreduce_program(index_of[r],
                                                    bound(index_of[r]), p,
                                                    flat[r]))
        for r in ranks})
    return {r: out[index_of[r]].reshape(shapes[r]) for r in ranks}
