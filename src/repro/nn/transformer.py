"""GPT-style transformer for causal language modeling.

The architecture matches the paper's workload (Section VI-B): a GPT-2/GPT-3
family decoder parameterized by number of layers, hidden size and attention
heads, trained with causal cross-entropy.

Pipeline shardability
---------------------
AxoNN's inter-layer parallelism assigns each GPU a *contiguous subset of
layers* (Algorithm 1, line 2).  :meth:`GPT.layer_sequence` exposes the model
as an ordered list ``[GPTEmbedding, Block * n_layer, GPTHead]`` whose
elements each map ``Tensor -> Tensor``; :func:`build_layer` constructs any
single element *with the same weights the full model would have* (per-layer
RNG streams derived from the master seed), so each pipeline rank can
instantiate only its shard and still agree numerically with the serial
model — the property behind the Fig. 10 loss-curve equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import functional as F
from .modules import Dropout, Embedding, LayerNorm, Linear, Module
from .tensor import Tensor

__all__ = ["GPTConfig", "CausalSelfAttention", "MLP", "Block",
           "GPTEmbedding", "GPTHead", "GPT", "build_layer", "num_layer_slots",
           "LayerKVCache", "KVCache", "kv_cache_bytes"]


@dataclass(frozen=True)
class GPTConfig:
    """Transformer hyperparameters (paper Table I fields + training extras)."""

    vocab_size: int
    seq_len: int
    n_layer: int
    n_head: int
    hidden: int
    dropout: float = 0.0
    init_seed: int = 1234

    def __post_init__(self):
        if self.hidden % self.n_head != 0:
            raise ValueError(
                f"hidden size {self.hidden} not divisible by "
                f"{self.n_head} heads"
            )
        for fld in ("vocab_size", "seq_len", "n_layer", "n_head", "hidden"):
            if getattr(self, fld) < 1:
                raise ValueError(f"{fld} must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_head

    def layer_rng(self, slot: int) -> np.random.Generator:
        """Deterministic per-layer-slot RNG stream."""
        return np.random.default_rng((self.init_seed, slot))


class LayerKVCache:
    """Preallocated key/value buffers for one attention layer.

    Incremental decode appends the newest positions' K/V rows and attends
    over the whole buffer, so generating token ``n`` costs O(n) attention
    work instead of re-running the full O(n^2) forward.  Buffers are sized
    once at ``cfg.seq_len`` capacity — no per-token allocation.
    """

    __slots__ = ("k", "v", "length")

    def __init__(self, cfg: GPTConfig, batch_size: int = 1):
        shape = (batch_size, cfg.n_head, cfg.seq_len, cfg.head_dim)
        self.k = np.empty(shape, dtype=np.float32)
        self.v = np.empty(shape, dtype=np.float32)
        self.length = 0

    @property
    def batch_size(self) -> int:
        return self.k.shape[0]

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    @property
    def nbytes(self) -> int:
        return self.k.nbytes + self.v.nbytes

    def extend(self, k_new: np.ndarray,
               v_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append ``t`` new positions; return views of all cached K/V."""
        b, _, t, _ = k_new.shape
        if b != self.batch_size:
            raise ValueError(
                f"cache built for batch {self.batch_size}, got {b}")
        end = self.length + t
        if end > self.capacity:
            raise ValueError(
                f"KV cache overflow: {end} > capacity {self.capacity}")
        self.k[:, :, self.length:end] = k_new
        self.v[:, :, self.length:end] = v_new
        self.length = end
        return self.k[:, :, :end], self.v[:, :, :end]


class KVCache:
    """Per-block :class:`LayerKVCache` set for a full :class:`GPT`."""

    def __init__(self, cfg: GPTConfig, batch_size: int = 1):
        self.cfg = cfg
        self.blocks = [LayerKVCache(cfg, batch_size)
                       for _ in range(cfg.n_layer)]

    @property
    def length(self) -> int:
        return self.blocks[0].length

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.blocks)


def kv_cache_bytes(cfg: GPTConfig, batch_size: int = 1) -> int:
    """Full-capacity KV footprint: ``2 * n_layer * seq_len * hidden * 4``
    bytes per sequence — the serving memory budget (DESIGN.md section 9)."""
    return 2 * cfg.n_layer * cfg.seq_len * cfg.hidden * 4 * batch_size


class CausalSelfAttention(Module):
    """Multi-head self-attention with a causal mask: the parameters and
    the dropout stream of a block's attention half.  :class:`Block` feeds
    them to its one-node kernel and never calls this module; called on
    its own it runs the per-op reference composition."""

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.qkv = Linear(cfg.hidden, 3 * cfg.hidden, rng=rng)
        self.proj = Linear(cfg.hidden, cfg.hidden, rng=rng,
                           init_std=0.02 / np.sqrt(2 * cfg.n_layer))
        self.drop = Dropout(cfg.dropout, seed=int(rng.integers(2 ** 31)))
        # Upper-triangular True = masked (future positions).
        mask = np.triu(np.ones((cfg.seq_len, cfg.seq_len), dtype=bool), k=1)
        self._mask = mask

    def forward(self, x: Tensor,
                caches: Optional[Sequence[LayerKVCache]] = None) -> Tensor:
        return F.attention_unfused(
            x, self.qkv.weight, self.qkv.bias, self.proj.weight,
            self.proj.bias, self.cfg.n_head, self._mask, self.drop, caches)


class MLP(Module):
    """Position-wise feed-forward, Linear(4h) -> GELU -> Linear(h): the
    parameters and the dropout stream of a block's MLP half (see
    :class:`CausalSelfAttention` for how it is run)."""

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator):
        super().__init__()
        self.fc = Linear(cfg.hidden, 4 * cfg.hidden, rng=rng)
        self.proj = Linear(4 * cfg.hidden, cfg.hidden, rng=rng,
                           init_std=0.02 / np.sqrt(2 * cfg.n_layer))
        self.drop = Dropout(cfg.dropout, seed=int(rng.integers(2 ** 31)))

    def forward(self, x: Tensor) -> Tensor:
        return F.mlp_unfused(x, self.fc.weight, self.fc.bias,
                             self.proj.weight, self.proj.bias, self.drop)


class Block(Module):
    """Pre-norm transformer block with residual connections — one
    autograd node (:func:`~repro.nn.functional.transformer_block`) in
    every mode: training, ``no_grad``, and KV-cached decode.

    :meth:`group_forward` / :meth:`group_backward` run the same kernel
    on a member-stacked group without a graph: the pipeline stage's
    pass over the microbatches that have arrived together."""

    #: when a dict, :meth:`group_backward` also files each parameter's
    #: member-stacked gradient in it, keyed by the parameter (a
    #: tensor-parallel lead's :class:`~repro.runtime.tp.ShardMap` reads
    #: each microbatch's own gradient there)
    member_grads: Optional[dict] = None

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(cfg.hidden)
        self.attn = CausalSelfAttention(cfg, rng)
        self.ln2 = LayerNorm(cfg.hidden)
        self.mlp = MLP(cfg, rng)

    def _weights(self):
        attn, mlp = self.attn, self.mlp
        return (self.ln1.weight, self.ln1.bias,
                attn.qkv.weight, attn.qkv.bias,
                attn.proj.weight, attn.proj.bias,
                self.ln2.weight, self.ln2.bias,
                mlp.fc.weight, mlp.fc.bias, mlp.proj.weight, mlp.proj.bias)

    def forward(self, x: Tensor,
                caches: Optional[Sequence[LayerKVCache]] = None) -> Tensor:
        """``caches``, if given, split the batch rows between them in
        order (one per serving request); see the kernel."""
        return F.transformer_block(
            x, *self._weights(), self.attn.cfg.n_head, self.attn._mask,
            self.attn.drop, self.mlp.drop, caches=caches)

    def group_forward(self, x: np.ndarray, save: bool = True):
        """``(k, b, t, h)`` member-stacked input -> (output, saved); see
        :func:`~repro.nn.functional.block_forward`."""
        return F.block_forward(x, [p.data for p in self._weights()],
                               self.attn.cfg.n_head, self.attn._mask,
                               self.attn.drop, self.mlp.drop, save=save)

    def group_backward(self, saved, members: slice,
                       g: np.ndarray) -> np.ndarray:
        """Backward of the run ``members`` of a :meth:`group_forward`:
        adds the parameter gradients member by member, returns the input
        gradient."""
        dx, grads = F.block_backward(g, saved, members)
        if self.member_grads is not None:
            # copies: adding member 0 may hand its bytes to ``.grad``
            self.member_grads.update(
                (p, grad.copy()) for p, grad in zip(self._weights(), grads))
        F.accumulate_members(self._weights(), grads)
        return dx


class GPTEmbedding(Module):
    """Token + learned positional embeddings (the pipeline's first layer).

    Accepts an integer id array of shape (b, t) and returns (b, t, h).
    """

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.tok = Embedding(cfg.vocab_size, cfg.hidden, rng=rng)
        self.pos = Embedding(cfg.seq_len, cfg.hidden, rng=rng, init_std=0.01)
        self.drop = Dropout(cfg.dropout, seed=int(rng.integers(2 ** 31)))

    def forward(self, ids,
                pos_offset: Union[int, Sequence[int]] = 0) -> Tensor:
        """``pos_offset`` is the position of column 0: one int for the
        whole batch, or one per row (rows of a serving group sit at
        different depths of their own sequences)."""
        if isinstance(ids, Tensor):
            ids = ids.data
        ids = np.asarray(ids)
        if ids.max() >= self.cfg.vocab_size or ids.min() < 0:
            raise ValueError("token id outside vocabulary")
        b, t = ids.shape
        # () -> (t,), broadcast over the batch; (b,) -> (b, t)
        positions = np.asarray(pos_offset)[..., None] + np.arange(t)
        if positions.max() >= self.cfg.seq_len:
            raise ValueError(
                f"positions {positions.min()}..{positions.max() + 1} exceed "
                f"seq_len {self.cfg.seq_len}")
        return self.drop(self.tok(ids) + self.pos(positions))

    def group_forward(self, ids: np.ndarray, save: bool = True):
        """:meth:`forward` at position 0 over member-stacked ids
        ``(k, b, t)`` -> (``(k, b, t, h)`` embeddings, saved); one dropout
        draw covers the members in order."""
        ids = np.asarray(ids)
        if ids.max() >= self.cfg.vocab_size or ids.min() < 0:
            raise ValueError("token id outside vocabulary")
        positions = np.arange(ids.shape[-1])
        x = self.tok.weight.data[ids] + self.pos.weight.data[positions]
        mask = F._stream_mask(self.drop, x.shape, x.dtype)
        if mask is not None:
            x *= mask
        return x, ((ids, positions, mask) if save else None)

    def group_backward(self, saved, members: slice, g: np.ndarray) -> None:
        """Scatter the run ``members``' gradients into the two tables,
        one member at a time (each member's scatter is its own sum)."""
        ids, positions, mask = saved
        if mask is not None:
            g = g * mask[members]
        tok, pos = self.tok.weight, self.pos.weight
        for member_ids, member_g in zip(ids[members], g):
            full = np.zeros_like(tok.data)
            np.add.at(full, member_ids, member_g)
            tok._accumulate_owned(full)
            full = np.zeros_like(pos.data)
            np.add.at(full, positions, member_g.sum(axis=0))
            pos._accumulate_owned(full)


class GPTHead(Module):
    """Final LayerNorm + LM head (the pipeline's last layer)."""

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.ln_f = LayerNorm(cfg.hidden)
        self.lm_head = Linear(cfg.hidden, cfg.vocab_size, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.lm_head(self.ln_f(x))

    def group_loss(self, x: np.ndarray, targets: np.ndarray, scale: float):
        """Mean causal cross entropy of the logits, times ``scale``, for
        each member of a stacked group (``x`` ``(k, b, t, h)``,
        ``targets`` ``(k, b, t)``) -> (losses ``(k,)``, saved).  Each loss
        is its own member's mean: ``F.cross_entropy`` of that member
        alone."""
        ln = self.ln_f
        h, x_hat, inv_std = F._layer_norm_fwd(x, ln.weight.data,
                                              ln.bias.data, ln.eps)
        logits = F._linear_fwd(h, self.lm_head.weight.data, None)
        losses, ce = F._cross_entropy_fwd(logits, targets)
        scale = np.float32(scale)
        return losses * scale, (h, x_hat, inv_std, ce, scale)

    def group_backward(self, saved, members: slice) -> np.ndarray:
        """Backward of the run ``members`` of a :meth:`group_loss`, each
        seeded with d(loss)/d(loss) = 1: adds the parameter gradients
        member by member, returns the input gradient."""
        h, x_hat, inv_std, ce, scale = saved
        h, x_hat, inv_std = h[members], x_hat[members], inv_std[members]
        dlogits = F._cross_entropy_bwd(np.full(len(h), scale), ce, members)
        w = self.lm_head.weight
        dh, dw, _ = F._linear_bwd(dlogits.reshape(*h.shape[:-1], -1), h,
                                  w.data, need_b=False)
        F.accumulate_members([w], [dw])
        ln = self.ln_f
        dx, dlw, dlb = F._layer_norm_bwd(dh, x_hat, inv_std, ln.weight.data)
        F.accumulate_members([ln.weight, ln.bias], [dlw, dlb])
        return dx


def num_layer_slots(cfg: GPTConfig) -> int:
    """Length of the shardable layer sequence: embedding + blocks + head."""
    return cfg.n_layer + 2


def build_layer(cfg: GPTConfig, slot: int) -> Module:
    """Construct layer ``slot`` of the sequence with its canonical weights.

    Slot 0 is the embedding, slots ``1..n_layer`` are transformer blocks,
    slot ``n_layer + 1`` is the head.  Weights depend only on
    ``(cfg.init_seed, slot)``, so any rank building any subset agrees with
    the serial model.
    """
    n = num_layer_slots(cfg)
    if not 0 <= slot < n:
        raise ValueError(f"layer slot {slot} outside [0, {n})")
    rng = cfg.layer_rng(slot)
    if slot == 0:
        return GPTEmbedding(cfg, rng)
    if slot == n - 1:
        return GPTHead(cfg, rng)
    return Block(cfg, rng)


class GPT(Module):
    """The full model (serial reference implementation)."""

    def __init__(self, cfg: GPTConfig):
        super().__init__()
        self.cfg = cfg
        self.embedding = GPTEmbedding(cfg, cfg.layer_rng(0))
        blocks = [Block(cfg, cfg.layer_rng(i + 1)) for i in range(cfg.n_layer)]
        self.blocks = blocks
        for i, blk in enumerate(blocks):
            setattr(self, f"block{i}", blk)
        self.head = GPTHead(cfg, cfg.layer_rng(cfg.n_layer + 1))

    def layer_sequence(self) -> List[Module]:
        """The pipeline-shardable view: ``[embedding, *blocks, head]``."""
        return [self.embedding, *self.blocks, self.head]

    def forward(self, ids: np.ndarray,
                targets: Optional[np.ndarray] = None,
                cache: Optional[KVCache] = None
                ) -> Tuple[Tensor, Optional[Tensor]]:
        if cache is not None and targets is not None:
            raise ValueError("KV-cached forward is inference-only; "
                             "targets are unsupported")
        offset = cache.length if cache is not None else 0
        x = self.embedding(ids, pos_offset=offset)
        for i, blk in enumerate(self.blocks):
            x = blk(x, caches=None if cache is None else (cache.blocks[i],))
        logits = self.head(x)
        loss = F.cross_entropy(logits, targets) if targets is not None else None
        return logits, loss
