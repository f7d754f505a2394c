"""NumPy deep-learning framework (the PyTorch stand-in).

Public surface:

* :class:`Tensor`, :func:`no_grad` — reverse-mode autograd;
* :mod:`repro.nn.functional` (imported as ``F``) — fused NN ops;
* :class:`Module` & the layer zoo — parameter containers;
* :class:`GPT`, :class:`GPTConfig`, :func:`build_layer` — the transformer;
* :class:`Adam`, :class:`AdamW`, :class:`SGD` — optimizers;
* :class:`MixedPrecisionAdamW`, :class:`LossScaler` — fp16 training;
* :func:`checkpoint`, :class:`CheckpointedStack` — activation checkpointing;
* :class:`SyntheticCorpus`, :class:`LMBatches` — the dataset substitute.

Importing this package also sets the process allocator policy
(:mod:`repro.nn.memory`).
"""

from . import functional, memory
from .clip import (
    clip_grad_norm_,
    combine_partial_norms,
    global_grad_norm,
    partial_sq_norm,
)
from .generation import generate, sample_token, sequence_log_prob
from .schedule import (
    ConstantLR,
    LinearWarmupLR,
    StepDecayLR,
    WarmupCosineLR,
)
from .checkpoint import CheckpointedStack, checkpoint
from .data import LMBatches, SyntheticCorpus
from .mixed_precision import (
    LossScaler,
    MixedPrecisionAdamW,
    cast_params_half,
    grads_have_overflow,
)
from .modules import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam, AdamW, Optimizer, adam_step
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .transformer import (
    GPT,
    Block,
    CausalSelfAttention,
    GPTConfig,
    GPTEmbedding,
    GPTHead,
    KVCache,
    LayerKVCache,
    MLP,
    build_layer,
    kv_cache_bytes,
    num_layer_slots,
)

F = functional

__all__ = [
    "clip_grad_norm_",
    "combine_partial_norms",
    "global_grad_norm",
    "partial_sq_norm",
    "generate",
    "sample_token",
    "sequence_log_prob",
    "ConstantLR",
    "LinearWarmupLR",
    "StepDecayLR",
    "WarmupCosineLR",
    "F",
    "functional",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "GPT",
    "GPTConfig",
    "GPTEmbedding",
    "GPTHead",
    "Block",
    "CausalSelfAttention",
    "MLP",
    "build_layer",
    "num_layer_slots",
    "KVCache",
    "LayerKVCache",
    "kv_cache_bytes",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "adam_step",
    "MixedPrecisionAdamW",
    "LossScaler",
    "cast_params_half",
    "grads_have_overflow",
    "checkpoint",
    "CheckpointedStack",
    "SyntheticCorpus",
    "LMBatches",
]
