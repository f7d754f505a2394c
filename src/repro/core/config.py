"""Parallel-training configuration for the performance model."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .model_stats import TransformerSpec

__all__ = ["AxoNNConfig"]


@dataclass(frozen=True)
class AxoNNConfig:
    """One AxoNN run configuration (paper Table II row, AxoNN flavor).

    ``g_intra * g_inter * g_data`` must equal ``num_gpus``; the batch is
    split into ``g_data`` shards of ``batch_size / g_data`` sequences, each
    processed as microbatches of ``microbatch_size`` sequences.  With
    ``g_intra > 1`` every pipeline stage is additionally sharded across a
    tensor-parallel group (the 4D follow-up's intra-layer axis).
    """

    spec: TransformerSpec
    num_gpus: int
    g_inter: int
    g_data: int
    microbatch_size: int
    batch_size: int
    #: intra-layer (tensor) parallel degree per pipeline stage
    g_intra: int = 1
    #: point-to-point backend for the inter-layer phase (paper: "mpi")
    backend_p2p: str = "mpi"
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
        if self.g_intra < 1:
            raise ValueError(f"G_intra ({self.g_intra}) must be >= 1")
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
        if self.batch_size % self.g_data != 0:
            raise ValueError("batch size must divide evenly across G_data")
        shard = self.batch_size // self.g_data
        if shard % self.microbatch_size != 0:
            raise ValueError("batch shard must divide into microbatches")
        if self.g_inter > self.spec.n_layer:
            raise ValueError("more pipeline stages than transformer layers")
        if self.microbatch_size < 1 or self.batch_size < 1:
            raise ValueError("batch/microbatch sizes must be >= 1")
        if self.bucket_size < 1 or self.coarsening_k < 1:
            raise ValueError("bucket_size and coarsening_k must be >= 1")
        if not 0 <= self.compute_jitter < math.inf:
            raise ValueError(f"compute_jitter must be a finite number >= 0, "
                             f"got {self.compute_jitter!r}")

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
