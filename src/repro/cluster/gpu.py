"""Simulated GPU: compute streams, DMA engines, device memory.

Each :class:`SimGPU` owns

* a *compute stream* — the default CUDA stream where forward/backward
  kernels run, and where NCCL-style blocking communication parks itself;
* an *auxiliary stream* — the second CUDA stream AxoNN uses for the
  optimizer so it can overlap with the all-reduce (paper Fig. 7);
* a *DMA engine* — host<->device copies (the CPU-offload path of the
  memory optimization, Section V-B);
* a byte-accurate :class:`~repro.cluster.memory.MemoryPool` of device DRAM.

Kernel durations come from the calibration's compute model; the GPU only
provides serialization and tracing: each kernel, busy interval and copy is
one :class:`~repro.obs.ObsSpan` on track ``gpu{id}.{stream}``.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..obs import Tracer
from ..sim import Environment, Resource
from .calibration import Calibration
from .memory import MemoryPool
from .specs import ClusterSpec

__all__ = ["SimGPU"]


class SimGPU:
    """One accelerator of the simulated cluster."""

    def __init__(self, env: Environment, spec: ClusterSpec, gpu_id: int,
                 cal: Calibration, host_dma_slots: Resource,
                 tracer: Tracer):
        self.env = env
        self.spec = spec
        self.id = gpu_id
        self.node = spec.node_of(gpu_id)
        self.cal = cal
        self.tracer = tracer
        self.compute_stream = Resource(env, 1, name=f"gpu{gpu_id}.compute")
        self.aux_stream = Resource(env, 1, name=f"gpu{gpu_id}.aux")
        self.dma_engine = Resource(env, 1, name=f"gpu{gpu_id}.dma")
        #: node-level limiter on concurrent host-memory DMA streams
        self.host_dma_slots = host_dma_slots
        self.memory = MemoryPool(spec.node.gpu.dram_bytes, name=f"gpu{gpu_id}.dram")

    # -- compute ---------------------------------------------------------------
    def compute(self, flops: float, label: str = "kernel",
                category: str = "compute", work: float = 0.0,
                stream: Optional[Resource] = None,
                extra_time: float = 0.0, microbatch: Optional[int] = None,
                **meta: object) -> Generator:
        """Process: run ``flops`` worth of kernels on a stream.

        ``work`` is the per-kernel work granularity fed to the efficiency
        model (defaults to ``flops``); ``extra_time`` adds fixed software
        overhead (e.g. the per-pass handling cost of the pipeline);
        ``microbatch`` and extra keyword arguments go on the span.
        Returns the kernel time.
        """
        stream = stream or self.compute_stream
        duration = self.cal.compute.time(
            flops, self.spec.node.gpu.peak_half_flops, work
        ) + self.cal.kernel_launch_overhead + extra_time
        req = stream.request()
        try:
            yield req
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            stream.release(req)
        if self.tracer.enabled:
            self.tracer.record(self.id, stream.name.split(".")[-1], label,
                               start, self.env.now, category=category,
                               microbatch=microbatch, flops=flops, **meta)
        return duration

    def busy(self, duration: float, label: str = "busy",
             category: str = "compute",
             stream: Optional[Resource] = None,
             nbytes: Optional[int] = None, **meta: object) -> Generator:
        """Process: occupy a stream for a fixed duration (non-flop work such
        as an NCCL rendezvous or a fixed overhead); ``nbytes`` and extra
        keyword arguments go on the span."""
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        stream = stream or self.compute_stream
        req = stream.request()
        try:
            yield req
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            stream.release(req)
        if self.tracer.enabled:
            self.tracer.record(self.id, stream.name.split(".")[-1], label,
                               start, self.env.now, category=category,
                               nbytes=None if nbytes is None else int(nbytes),
                               **meta)
        return duration

    # -- host <-> device -------------------------------------------------------
    def dma_time(self, nbytes: int) -> float:
        g = self.spec.node.gpu
        return g.dma_latency + nbytes / g.h2d_bandwidth

    def dma(self, nbytes: int, direction: str = "h2d",
            label: str = "") -> Generator:
        """Process: move ``nbytes`` between host and device memory.

        Holds this GPU's DMA engine and one of the node's shared host-memory
        DMA slots (so simultaneous offload traffic from all six GPUs of a
        node saturates the host memory system rather than scaling freely).
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"direction must be 'h2d' or 'd2h', got {direction!r}")
        duration = self.dma_time(nbytes)
        slot = self.host_dma_slots.request()
        req = None
        try:
            yield slot
            req = self.dma_engine.request()
            yield req
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            if req is not None:
                self.dma_engine.release(req)
            self.host_dma_slots.release(slot)
        if self.tracer.enabled:
            self.tracer.record(self.id, "dma", label or direction, start,
                               self.env.now, category=direction,
                               nbytes=int(nbytes))
        return duration
