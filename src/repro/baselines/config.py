"""Configuration for the 3D-parallel baseline frameworks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..core.model_stats import TransformerSpec

__all__ = ["ThreeDConfig"]


@dataclass(frozen=True)
class ThreeDConfig:
    """One Megatron-LM / DeepSpeed run configuration (a Table II row).

    3D parallelism: ``g_intra`` GPUs shard each layer's matrix
    multiplications (Shoeybi et al.), ``g_inter`` pipeline stages with
    flushing (1F1B), ``g_data`` data-parallel replicas.
    """

    spec: TransformerSpec
    num_gpus: int
    g_intra: int
    g_inter: int
    g_data: int
    microbatch_size: int
    batch_size: int
    framework: str = "megatron"  # or "deepspeed"
    #: pipeline schedule: "1f1b" (PipeDream-Flush) or "gpipe"
    schedule: str = "1f1b"
    #: point-to-point backend ("nccl" is what the real baselines use; "mpi"
    #: isolates the static-schedule effect in the scheduling ablation)
    backend_p2p: str = "nccl"
    #: multiplicative compute-time noise (matches AxoNNConfig.compute_jitter)
    compute_jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.g_intra * self.g_inter * self.g_data != self.num_gpus:
            raise ValueError(
                f"G_intra x G_inter x G_data = "
                f"{self.g_intra * self.g_inter * self.g_data} != num_gpus "
                f"({self.num_gpus})"
            )
        if self.framework not in ("megatron", "deepspeed"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.schedule not in ("1f1b", "gpipe"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_size % self.g_data != 0:
            raise ValueError("batch size must divide evenly across G_data")
        shard = self.batch_size // self.g_data
        if shard % self.microbatch_size != 0:
            raise ValueError("batch shard must divide into microbatches")
        if self.g_inter > self.spec.n_layer:
            raise ValueError("more pipeline stages than transformer layers")
        if self.g_intra < 1 or self.microbatch_size < 1:
            raise ValueError("g_intra and microbatch size must be >= 1")
        if self.backend_p2p not in ("mpi", "nccl"):
            raise ValueError(f"unknown p2p backend {self.backend_p2p!r}")
        if not 0 <= self.compute_jitter < math.inf:
            raise ValueError(f"compute_jitter must be a finite number >= 0, "
                             f"got {self.compute_jitter!r}")
        if self.spec.hidden % self.g_intra != 0:
            raise ValueError("hidden size must divide across G_intra")

    @property
    def microbatches_per_shard(self) -> int:
        return self.batch_size // self.g_data // self.microbatch_size

    def with_(self, **kwargs) -> "ThreeDConfig":
        return replace(self, **kwargs)
