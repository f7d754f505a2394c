"""Network fabric of the simulated cluster.

Topology model (matching Summit's relevant structure):

* every GPU has a full-duplex NVLink *port* — an intra-node transfer holds
  the sender's egress port and the receiver's ingress port for its duration
  (NVLink carries a send and a receive concurrently);
* every node has a full-duplex NIC — inter-node transfers hold the source
  node's egress NIC and the destination node's ingress NIC.

Transfers therefore contend exactly where the real machine contends: two
concurrent messages *into* the same GPU serialize on its ingress port, two
*out of* it on its egress port — but a send and a receive can overlap; all
traffic leaving a node serializes on its egress NIC.  Transfer duration comes from the
backend's alpha-beta model (:class:`repro.cluster.calibration.CommCostModel`);
the fabric only supplies *where* the time is spent and who waits.

Deadlock note: a transfer needs two resources.  Both are acquired in global
canonical order (port/NIC with the smaller id first), which makes hold-and-
wait cycles impossible.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..obs import Tracer
from ..sim import Environment, Resource
from .calibration import CommCostModel
from .specs import ClusterSpec

__all__ = ["Fabric"]


class Fabric:
    """Ports, NICs and the transfer process."""

    def __init__(self, env: Environment, spec: ClusterSpec, tracer: Tracer):
        self.env = env
        self.spec = spec
        self.tracer = tracer
        self.ports_out: List[Resource] = [
            Resource(env, capacity=1, name=f"gpu{g}.port.out")
            for g in range(spec.num_gpus)
        ]
        self.ports_in: List[Resource] = [
            Resource(env, capacity=1, name=f"gpu{g}.port.in")
            for g in range(spec.num_gpus)
        ]
        self.nics_out: List[Resource] = [
            Resource(env, capacity=1, name=f"node{n}.nic.out")
            for n in range(spec.num_nodes)
        ]
        self.nics_in: List[Resource] = [
            Resource(env, capacity=1, name=f"node{n}.nic.in")
            for n in range(spec.num_nodes)
        ]

    # -- helpers -----------------------------------------------------------
    def _resources_for(self, src: int, dst: int) -> Tuple[List[Resource], bool]:
        """Resources a src->dst transfer must hold, in canonical order, and
        whether the route stays inside one node."""
        if src == dst:
            raise ValueError(f"transfer to self (gpu {src})")
        if self.spec.same_node(src, dst):
            # Egress of the source, ingress of the destination.  Acquisition
            # order is deadlock-free because every transfer takes exactly
            # one egress then one ingress resource (two-phase, no cycles of
            # mixed order are possible).
            return [self.ports_out[src], self.ports_in[dst]], True
        n_src, n_dst = self.spec.node_of(src), self.spec.node_of(dst)
        return [self.nics_out[n_src], self.nics_in[n_dst]], False

    def transfer_time(self, src: int, dst: int, nbytes: int,
                      model: CommCostModel) -> float:
        """Uncontended wire time for the message."""
        _, intra = self._resources_for(src, dst)
        return model.p2p_time(nbytes, intra)

    # -- processes -----------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int,
                 model: CommCostModel, label: str = "msg",
                 microbatch: Optional[int] = None) -> Generator:
        """Simulation process moving ``nbytes`` from GPU ``src`` to ``dst``.

        Yields until the transfer completes; returns the wire time (excluding
        queueing) so callers can account overheads.  The recorded span, on
        track ``gpu{src}.net``, carries ``microbatch`` (the messenger passes
        the message's microbatch through).

        The whole acquire-hold sequence runs under one ``try/finally``: if
        the process is cancelled or errors while still waiting on a *later*
        ``request()``, every already-granted resource is released and the
        still-pending request is cancelled (:meth:`Resource.release` handles
        never-granted requests), so a killed transfer leaks nothing.
        """
        resources, intra = self._resources_for(src, dst)
        duration = model.p2p_time(nbytes, intra)
        grants = []
        try:
            for res in resources:
                req = res.request()
                grants.append((res, req))
                yield req
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            for res, req in reversed(grants):
                res.release(req)
        if self.tracer.enabled:
            self.tracer.record(
                src, "net", label, start, self.env.now, category="p2p",
                microbatch=microbatch, nbytes=int(nbytes), src=src, dst=dst,
                backend=model.name)
        return duration

    def allreduce(self, ranks: List[int], nbytes: int,
                  model: CommCostModel,
                  label: str = "allreduce") -> Generator:
        """Simulation process performing an all-reduce over GPU ids ``ranks``
        with ``nbytes`` contributed per rank.

        The ring cost model gives the duration; the process holds the NICs of
        every involved node (or the ports, for a single-node group) so that
        concurrent collectives and point-to-point traffic contend.  Like
        :meth:`transfer`, the acquire-hold sequence is fully guarded so a
        cancelled collective releases every granted resource.
        """
        if len(ranks) <= 1:
            return 0.0
        nodes = sorted({self.spec.node_of(r) for r in ranks})
        intra = len(nodes) == 1
        duration = model.allreduce_time(nbytes, len(ranks), intra)
        if intra:
            resources = [self.ports_out[r] for r in sorted(ranks)]
        else:
            resources = [self.nics_out[n] for n in nodes]
        grants = []
        try:
            for res in resources:
                req = res.request()
                grants.append((res, req))
                yield req
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            for res, req in reversed(grants):
                res.release(req)
        if self.tracer.enabled:
            self.tracer.record(
                ranks[0], "net", label, start, self.env.now,
                category="allreduce", nbytes=int(nbytes), ranks=len(ranks),
                backend=model.name)
        return duration
