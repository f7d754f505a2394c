"""The assembled simulated machine: environment + GPUs + fabric + host memory.

A :class:`Machine` is what the framework models in :mod:`repro.core` and
:mod:`repro.baselines` execute on.  Construction wires together:

* one :class:`~repro.sim.Environment` (the clock),
* one :class:`~repro.cluster.gpu.SimGPU` per physical GPU,
* the network :class:`~repro.cluster.network.Fabric`,
* per-node host memory pools (the CPU scratch space of Section V-B),
* one :class:`~repro.obs.Tracer` (enabled by ``trace=True``) the GPUs and
  the fabric record :class:`~repro.obs.ObsSpan` records into, stamped in
  simulated seconds — the same tracer and record the functional runtime
  uses, so one set of reports and exporters reads both substrates.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import Tracer
from ..sim import Environment, Resource
from .calibration import Calibration, default_calibration, validate_calibration
from .gpu import SimGPU
from .memory import MemoryPool
from .network import Fabric
from .specs import ClusterSpec, summit

__all__ = ["Machine"]


class Machine:
    """A ready-to-run simulated cluster."""

    def __init__(self, spec: Optional[ClusterSpec] = None,
                 cal: Optional[Calibration] = None,
                 trace: bool = False):
        self.spec = spec or summit()
        self.cal = cal or default_calibration()
        validate_calibration(self.cal)
        self.env = Environment()
        self.tracer = Tracer(enabled=trace)
        node_spec = self.spec.node
        # Node-level limiter approximating the aggregate host-memory
        # bandwidth: at most floor(host_bw / per-GPU DMA bw) transfers can
        # run at full speed concurrently; further ones queue.
        slots = max(1, int(node_spec.host_mem_bandwidth
                           // node_spec.gpu.h2d_bandwidth))
        self._host_dma_slots: List[Resource] = [
            Resource(self.env, capacity=slots, name=f"node{n}.hostdma")
            for n in range(self.spec.num_nodes)
        ]
        self.host_memory: List[MemoryPool] = [
            MemoryPool(node_spec.host_dram_bytes, name=f"node{n}.hostmem")
            for n in range(self.spec.num_nodes)
        ]
        self.gpus: List[SimGPU] = [
            SimGPU(self.env, self.spec, g, self.cal,
                   self._host_dma_slots[self.spec.node_of(g)],
                   tracer=self.tracer)
            for g in range(self.spec.num_gpus)
        ]
        self.fabric = Fabric(self.env, self.spec, tracer=self.tracer)

    @property
    def now(self) -> float:
        return self.env.now

    def gpu(self, gpu_id: int) -> SimGPU:
        return self.gpus[gpu_id]

    def host_mem_of(self, gpu_id: int) -> MemoryPool:
        """Host memory pool of the node hosting ``gpu_id``."""
        return self.host_memory[self.spec.node_of(gpu_id)]

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def reset_memory(self) -> None:
        """Drop all device/host allocations (between simulated batches)."""
        for g in self.gpus:
            g.memory.reset()
        for h in self.host_memory:
            h.reset()
