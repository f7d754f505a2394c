"""Parallel-training configuration for the performance model.

One configuration class covers all three frameworks of the paper's
Table II.  Megatron-LM and DeepSpeed are not second models: each is a
:class:`FrameworkPolicy`, a row of :data:`FRAMEWORKS` holding the choices
a framework fixes over AxoNN's grid model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from .model_stats import TransformerSpec

__all__ = ["AxoNNConfig", "FrameworkPolicy", "FRAMEWORKS"]


@dataclass(frozen=True)
class FrameworkPolicy:
    """What a framework fixes; everything else is the configuration's."""

    #: where the optimizer state lives unless ``memopt`` offloads it:
    #: ``"resident"`` (the ``20 phi`` state on the GPU) or ``"zero1"``
    #: (master weights and Adam state sharded across the data-parallel
    #: group)
    optimizer: str
    #: how a tensor-parallel group pays per pass: ``"gather"`` (AxoNN's
    #: 4D protocol all-gathers the fp32 weight shards each peer lacks) or
    #: ``"split"`` (Megatron-LM splits every GEMM, the head included, and
    #: all-reduces activations: 2 per layer forward, 4 in backward)
    tp: str
    #: checkpoint interval: the optimal sqrt rule (Section V-A, which the
    #: paper claims first) or every layer
    optimal_checkpoint: bool
    #: point-to-point backend when the configuration names none
    backend_p2p: str


#: the paper's three frameworks
FRAMEWORKS: Dict[str, FrameworkPolicy] = {
    "axonn": FrameworkPolicy("resident", "gather", True, "mpi"),
    "megatron": FrameworkPolicy("resident", "split", False, "nccl"),
    "deepspeed": FrameworkPolicy("zero1", "split", False, "nccl"),
}

#: the static flushing orders a baseline runs (``repro.sched`` builds them)
STATIC_SCHEDULES = ("1f1b", "gpipe")


@dataclass(frozen=True)
class AxoNNConfig:
    """One run configuration: a row of the paper's Table II.

    ``g_intra * g_inter * g_data`` must equal ``num_gpus``; the batch is
    split into ``g_data`` shards of ``batch_size / g_data`` sequences, each
    processed as microbatches of ``microbatch_size`` sequences.  With
    ``g_intra > 1`` every pipeline stage is additionally sharded across a
    tensor-parallel group (the 4D follow-up's intra-layer axis).

    ``framework`` names the :data:`FRAMEWORKS` policy.  ``schedule=None``
    is Algorithm 2's message-driven walk (:func:`repro.core.simulate_batch`,
    AxoNN only); a baseline names its static flushing order, ``"1f1b"``
    or ``"gpipe"`` (:func:`repro.baselines.simulate_baseline_batch`).
    """

    spec: TransformerSpec
    num_gpus: int
    g_inter: int
    g_data: int
    microbatch_size: int
    batch_size: int
    #: intra-layer (tensor) parallel degree per pipeline stage
    g_intra: int = 1
    #: "axonn", "megatron" or "deepspeed" (a :data:`FRAMEWORKS` key)
    framework: str = "axonn"
    #: None (message-driven) or a baseline's static order
    schedule: Optional[str] = None
    #: point-to-point backend for the inter-layer phase; None takes the
    #: framework's (AxoNN: "mpi"; the baselines: "nccl")
    backend_p2p: Optional[str] = None
    #: collective backend for the data-parallel phase (paper: "nccl")
    backend_coll: str = "nccl"
    #: Section V-B memory optimization (CPU offload, smaller G_inter)
    memopt: bool = False
    #: offload bucket size in parameters (paper: 4-16 million)
    bucket_size: int = 4_000_000
    #: all-reduce coarsening factor k (Section V-C; paper fixes 4)
    coarsening_k: int = 4
    #: overlap the all-reduce with the optimizer (Section V-C)
    overlap: bool = True
    #: include optimizer state in memory/time (Fig. 5 removes it)
    include_optimizer: bool = True
    placement_policy: str = "pipeline-contiguous"
    #: max in-flight microbatches (None -> G_inter, Section IV-A)
    pipeline_limit: Optional[int] = None
    #: multiplicative compute-time noise (sigma of a lognormal factor);
    #: used by the message-driven-vs-static scheduling ablation
    compute_jitter: float = 0.0
    #: seed of the jitter stream (same seed -> same perturbations)
    jitter_seed: int = 0

    def __post_init__(self):
        for name in ("num_gpus", "g_intra", "g_inter", "g_data",
                     "microbatch_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} ({getattr(self, name)}) must be "
                                 f">= 1")
        if self.framework not in FRAMEWORKS:
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.framework == "axonn":
            if self.schedule is not None:
                raise ValueError("AxoNN runs the message-driven walk: "
                                 f"schedule must be None, got "
                                 f"{self.schedule!r}")
        elif self.schedule not in STATIC_SCHEDULES:
            raise ValueError(f"{self.framework} runs a static order: "
                             f"schedule must be one of {STATIC_SCHEDULES}, "
                             f"got {self.schedule!r}")
        elif self.memopt:
            raise ValueError(f"{self.framework} has no CPU offload "
                             f"(memopt)")
        if self.backend_p2p not in (None, "mpi", "nccl"):
            raise ValueError(f"unknown p2p backend {self.backend_p2p!r}")
        if self.g_intra * self.g_inter * self.g_data != self.num_gpus:
            raise ValueError(
                f"G_intra ({self.g_intra}) x G_inter ({self.g_inter}) x "
                f"G_data ({self.g_data}) != num_gpus ({self.num_gpus})"
            )
        if self.g_intra > self.spec.n_head:
            # Uneven head splits are fine; a headless rank is not.
            raise ValueError(
                f"G_intra ({self.g_intra}) exceeds attention heads "
                f"({self.spec.n_head})")
        if self.policy.tp == "split" and self.spec.hidden % self.g_intra:
            raise ValueError(f"hidden size ({self.spec.hidden}) must divide "
                             f"across G_intra ({self.g_intra})")
        if self.batch_size % self.g_data != 0:
            raise ValueError("batch size must divide evenly across G_data")
        shard = self.batch_size // self.g_data
        if shard % self.microbatch_size != 0:
            raise ValueError("batch shard must divide into microbatches")
        if self.g_inter > self.spec.n_layer:
            raise ValueError("more pipeline stages than transformer layers")
        if self.bucket_size < 1 or self.coarsening_k < 1:
            raise ValueError("bucket_size and coarsening_k must be >= 1")
        if not 0 <= self.compute_jitter < math.inf:
            raise ValueError(f"compute_jitter must be a finite number >= 0, "
                             f"got {self.compute_jitter!r}")

    @property
    def policy(self) -> FrameworkPolicy:
        return FRAMEWORKS[self.framework]

    @property
    def p2p(self) -> str:
        """The point-to-point backend in force."""
        return self.backend_p2p or self.policy.backend_p2p

    @property
    def optimizer_placement(self) -> str:
        """``"offload"`` under ``memopt`` (Section V-B), else the
        framework's ``"resident"`` or ``"zero1"``."""
        return "offload" if self.memopt else self.policy.optimizer

    @property
    def microbatches_per_shard(self) -> int:
        return self.batch_size // self.g_data // self.microbatch_size

    @property
    def total_microbatches(self) -> int:
        return self.batch_size // self.microbatch_size

    @property
    def effective_pipeline_limit(self) -> int:
        limit = self.pipeline_limit if self.pipeline_limit is not None \
            else self.g_inter
        return max(1, min(limit, self.microbatches_per_shard))

    def with_(self, **kwargs) -> "AxoNNConfig":
        """Functional update."""
        return replace(self, **kwargs)
