"""Per-GPU memory accounting for all three frameworks.

Reproduces the byte arithmetic of paper Section V-B:

* **baseline** state bytes: ``20 phi``  (4 phi fp32 params, 4 phi fp32
  grads, 2 phi fp16 params, 2 phi fp16 grads, 8 phi Adam state);
* **AxoNN memopt** state bytes: ``4 phi + 16 bsize`` (fp16 params + grads
  stay on the GPU; fp32 master and Adam state live on the CPU and stream
  through 16-bytes-per-parameter bucket buffers);
* **ZeRO-1 (DeepSpeed)**: fp16 params + grads replicated (``4 phi``),
  fp32 master + Adam state sharded across the data-parallel group
  (``16 phi / G_data``);
* activations per Eq. (1):
  ``M_act ∝ G_inter (N / (G_inter ac)) + 1 + ac`` in units of one layer's
  per-microbatch activation bytes.

:meth:`MemoryModel.config_bytes` composes them for one configuration by
its framework's policy.

Feasibility (fits in the 16 GB V100) is what makes tuning configurations
valid/invalid exactly as on Summit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..partition import optimal_checkpoint_interval
from .config import AxoNNConfig
from .model_stats import TransformerSpec

__all__ = ["MemoryModel", "MemoryBreakdown"]

BYTES_HALF = 2
BYTES_FULL = 4


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes per GPU, by category."""

    params_and_grads: int
    optimizer_state: int
    activations: int

    @property
    def total(self) -> int:
        return self.params_and_grads + self.optimizer_state + self.activations

    def as_dict(self) -> Dict[str, int]:
        return {
            "params_and_grads": self.params_and_grads,
            "optimizer_state": self.optimizer_state,
            "activations": self.activations,
            "total": self.total,
        }


class MemoryModel:
    """Memory estimates for one (model, parallel-config) pair."""

    def __init__(self, spec: TransformerSpec, internal_factor: float = 4.0):
        self.spec = spec
        self.internal_factor = internal_factor

    # -- state memory ----------------------------------------------------------
    def state_bytes_baseline(self, phi: int,
                             include_optimizer: bool = True) -> int:
        """The ``20 phi`` accounting (``12 phi`` without optimizer state +
        fp32 gradients, for the Fig. 5 experiment that removes them)."""
        base = 2 * phi + 2 * phi + 4 * phi  # theta16, grad16, theta32
        if include_optimizer:
            base += 4 * phi + 8 * phi  # fp32 grads + Adam state
        return base

    def state_bytes_memopt(self, phi: int, bucket_size: int) -> int:
        """AxoNN's optimization: ``4 phi + 16 bsize``."""
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        return 4 * phi + 16 * min(bucket_size, phi)

    def state_bytes_zero1(self, phi: int, g_data: int) -> int:
        """ZeRO stage 1: optimizer state + master weights sharded."""
        if g_data < 1:
            raise ValueError("g_data must be >= 1")
        return 4 * phi + (16 * phi) // g_data

    # -- activation memory --------------------------------------------------
    def activation_bytes(self, g_inter: int, microbatch: int,
                         ac: int = 0) -> int:
        """Eq. (1) in bytes for one GPU.

        ``ac`` defaults to the paper's optimal sqrt rule.  The unit is one
        layer's live activation footprint for one microbatch.
        """
        n = self.spec.n_layer
        layers_per_gpu = self.spec.layers_per_stage(g_inter)
        if ac == 0:
            ac = optimal_checkpoint_interval(n, layers_per_gpu)
        unit = self.spec.layer_activation_bytes(microbatch,
                                                self.internal_factor)
        factor = g_inter * (n / (g_inter * ac)) + 1 + ac
        return int(factor * unit)

    # -- one configuration ------------------------------------------------
    def config_bytes(self, cfg: AxoNNConfig) -> MemoryBreakdown:
        """Bytes per GPU of one :class:`~repro.core.config.AxoNNConfig`,
        priced by its framework's policy: the state by where the optimizer
        lives, the activations by the checkpoint interval, and the
        tensor-parallel share by how the group pays.

        Each rank owns ``phi / g_intra`` of the stage's parameter state.
        AxoNN's 4D protocol gathers whole weights rather than splitting
        GEMMs (which keeps losses bit-identical to the dense run), so a
        rank also holds a transient fp32 workspace for the peers' shards;
        Megatron-LM splits each layer's activations instead.  The
        baselines checkpoint every layer (``ac = 1``): Section V-A claims
        the first derivation of the *optimal* ``ac``.
        """
        g_intra = cfg.g_intra
        phi_full = self.spec.params_per_stage(cfg.g_inter)
        phi = phi_full // g_intra
        placement = cfg.optimizer_placement
        if placement == "offload":
            pg = 4 * phi  # fp16 params + fp16 grads resident
            opt = self.state_bytes_memopt(phi, cfg.bucket_size) - pg
        elif placement == "zero1":
            # ZeRO-1 also stages an fp32 flat buffer for its gradient
            # shard while stepping (4 phi / g_data): the overhead that in
            # practice keeps DeepSpeed from dropping tensor parallelism
            # entirely on 16 GB GPUs.
            pg = 4 * phi
            opt = (self.state_bytes_zero1(phi, cfg.g_data)
                   + (4 * phi) // cfg.g_data - pg)
        else:
            state = self.state_bytes_baseline(phi, cfg.include_optimizer)
            pg = 12 * phi if cfg.include_optimizer else state
            opt = state - pg
        ac = 0 if cfg.policy.optimal_checkpoint else 1
        act = self.activation_bytes(cfg.g_inter, cfg.microbatch_size, ac)
        if cfg.policy.tp == "split":
            act //= g_intra
        elif g_intra > 1:
            pg += BYTES_FULL * (phi_full - phi)  # gathered-weight workspace
        if cfg.schedule == "gpipe":
            # GPipe keeps up to m microbatches of boundary activations.
            act += max(0, cfg.microbatches_per_shard - cfg.g_inter) \
                * self.spec.activation_message_bytes(cfg.microbatch_size)
        return MemoryBreakdown(pg, max(opt, 0), act)

    def cluster_total_bytes(self, g_inter: int, g_data: int, microbatch: int,
                            memopt: bool,
                            bucket_size: int = 16_000_000) -> int:
        """Aggregate memory across the whole GPU grid — the quantity behind
        the paper's "520 GB -> 130.24 GB"four-fold reduction (Section V-B).

        Model state is counted once per data-parallel replica over the
        *total* parameter count (stages partition the model exactly);
        activations are per-GPU.
        """
        total = self.spec.total_params
        num_gpus = g_inter * g_data
        if memopt:
            state = 4 * total * g_data + 16 * bucket_size * num_gpus
        else:
            state = self.state_bytes_baseline(total) * g_data
        act = self.activation_bytes(g_inter, microbatch) * num_gpus
        return state + act

    # -- feasibility ------------------------------------------------------------
    def fits(self, breakdown: MemoryBreakdown, dram_bytes: int,
             reserve_fraction: float = 0.08) -> bool:
        """True when the breakdown fits device DRAM with a fragmentation /
        workspace reserve."""
        return breakdown.total <= dram_bytes * (1.0 - reserve_fraction)
