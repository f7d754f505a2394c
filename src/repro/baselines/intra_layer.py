"""Functional intra-layer (tensor) parallelism — Shoeybi et al.'s scheme.

Megatron-LM shards each transformer layer's matrix multiplications across
``g_intra`` GPUs (paper Section II-B).  This module implements the scheme
with real numerics on the NumPy autograd substrate:

* :class:`ColumnParallelLinear` — the weight's *output* dimension is
  sharded; each rank computes a slice of the output, reassembled with an
  all-gather (here: concatenation);
* :class:`RowParallelLinear` — the *input* dimension is sharded; each rank
  computes a partial product over its input slice, combined with an
  all-reduce (here: a sum);
* :class:`TensorParallelMLP` — Megatron's MLP blocking: column-parallel
  up-projection, local GELU, row-parallel down-projection — exactly **one**
  all-reduce on the forward pass;
* :class:`TensorParallelAttention` — heads partitioned across ranks:
  column-parallel QKV, local attention per head group, row-parallel output
  projection — again one forward all-reduce.

Every sharded module is constructed *from* a dense reference layer and is
numerically identical to it (forward outputs and backward gradients),
which the tests assert — the communication operations are counted so the
per-layer collective budget charged by the performance model
(2 all-reduces per layer forward) is pinned to executable code.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import F, Linear, Module, Tensor
from ..nn.modules import Parameter
from ..nn.transformer import MLP, CausalSelfAttention, GPTConfig
from ..partition import split_sizes
from ..perf.counters import counters as _perf_counters

__all__ = ["CommCounter", "ColumnParallelLinear", "RowParallelLinear",
           "TensorParallelMLP", "TensorParallelAttention"]


class CommCounter:
    """Counts the collective operations a tensor-parallel forward/backward
    performs (the quantity the DES cost model prices).

    One namespace: every event is *also* reported to the global
    :data:`repro.perf.counters` tally under ``tp.allreduce`` /
    ``tp.allgather`` (plus ``tp.allreduce_bytes`` / ``tp.allgather_bytes``),
    so a TP layer running inside the trainer and one running as a baseline
    are counted identically — and never double-booked, because the modules
    report exclusively through these two methods."""

    def __init__(self):
        self.allreduces = 0
        self.allgathers = 0
        self.allreduce_bytes = 0
        self.allgather_bytes = 0

    def allreduce(self, nbytes: int = 0) -> None:
        self.allreduces += 1
        self.allreduce_bytes += nbytes
        if _perf_counters.enabled:
            _perf_counters.bump("tp.allreduce")
            _perf_counters.bump("tp.allreduce_bytes", nbytes)

    def allgather(self, nbytes: int = 0) -> None:
        self.allgathers += 1
        self.allgather_bytes += nbytes
        if _perf_counters.enabled:
            _perf_counters.bump("tp.allgather")
            _perf_counters.bump("tp.allgather_bytes", nbytes)

    def reset(self) -> None:
        self.allreduces = 0
        self.allgathers = 0
        self.allreduce_bytes = 0
        self.allgather_bytes = 0


class ColumnParallelLinear(Module):
    """Linear with the output dimension sharded across ``world`` ranks."""

    def __init__(self, dense: Linear, world: int,
                 counter: Optional[CommCounter] = None,
                 gather_output: bool = True):
        super().__init__()
        sizes = split_sizes(dense.out_features, world)
        self.world = world
        self.counter = counter or CommCounter()
        self.gather_output = gather_output
        self.shards: List[Parameter] = []
        self.bias_shards: List[Optional[Parameter]] = []
        offset = 0
        for r, size in enumerate(sizes):
            w = Parameter(dense.weight.data[offset:offset + size].copy())
            setattr(self, f"weight{r}", w)
            self.shards.append(w)
            if dense.bias is not None:
                b = Parameter(dense.bias.data[offset:offset + size].copy())
                setattr(self, f"bias{r}", b)
                self.bias_shards.append(b)
            else:
                self.bias_shards.append(None)
            offset += size

    def forward(self, x: Tensor):
        partials = [
            F.linear(x, w, b) for w, b in zip(self.shards, self.bias_shards)
        ]
        if not self.gather_output:
            return partials
        self.counter.allgather(sum(p.data.nbytes for p in partials))
        return F.concat(partials, axis=-1)


class RowParallelLinear(Module):
    """Linear with the input dimension sharded across ``world`` ranks.

    ``forward`` accepts either a full tensor (sliced internally) or the
    list of per-rank partials produced by an upstream non-gathering
    column-parallel layer (Megatron's fused f/g pattern, which elides the
    intermediate all-gather)."""

    def __init__(self, dense: Linear, world: int,
                 counter: Optional[CommCounter] = None,
                 in_sizes: Optional[List[int]] = None):
        super().__init__()
        sizes = in_sizes if in_sizes is not None \
            else split_sizes(dense.in_features, world)
        if len(sizes) != world or sum(sizes) != dense.in_features:
            raise ValueError(
                f"in_sizes {sizes} does not partition "
                f"{dense.in_features} across {world} ranks")
        self.world = world
        self.counter = counter or CommCounter()
        self.in_sizes = sizes
        self.shards: List[Parameter] = []
        offset = 0
        for r, size in enumerate(sizes):
            w = Parameter(dense.weight.data[:, offset:offset + size].copy())
            setattr(self, f"weight{r}", w)
            self.shards.append(w)
            offset += size
        self.bias = Parameter(dense.bias.data.copy()) \
            if dense.bias is not None else None

    def forward(self, x):
        if isinstance(x, list):
            slices = x
        else:
            slices = []
            offset = 0
            for size in self.in_sizes:
                slices.append(x[..., offset:offset + size])
                offset += size
        partial = F.linear(slices[0], self.shards[0])
        for piece, w in zip(slices[1:], self.shards[1:]):
            partial = partial + F.linear(piece, w)  # the all-reduce
        self.counter.allreduce(partial.data.nbytes)
        if self.bias is not None:
            partial = partial + self.bias
        return partial


class TensorParallelMLP(Module):
    """Megatron's MLP sharding: one all-reduce per forward pass."""

    def __init__(self, dense: MLP, world: int,
                 counter: Optional[CommCounter] = None):
        super().__init__()
        self.counter = counter or CommCounter()
        self.fc = ColumnParallelLinear(dense.fc, world, self.counter,
                                       gather_output=False)
        self.proj = RowParallelLinear(dense.proj, world, self.counter)
        self.drop = dense.drop

    def forward(self, x: Tensor) -> Tensor:
        partials = self.fc(x)
        activated = [F.gelu(p) for p in partials]  # local per rank
        return self.drop(self.proj(activated))


class TensorParallelAttention(Module):
    """Megatron's attention sharding: heads partitioned across ranks."""

    def __init__(self, dense: CausalSelfAttention, world: int,
                 counter: Optional[CommCounter] = None):
        super().__init__()
        cfg = dense.cfg
        self.cfg = cfg
        self.world = world
        self.counter = counter or CommCounter()
        # Heads partitioned larger-first: n_head need not divide evenly,
        # but every rank must own at least one head.
        self.head_counts = split_sizes(cfg.n_head, world)
        self._mask = dense._mask
        self.drop = dense.drop
        # QKV sharded by head: rank r owns head_counts[r] consecutive
        # heads.  The dense qkv weight has layout (3h, h) with rows
        # [q; k; v], each of which is itself (n_head, head_dim) blocked.
        h, hd = cfg.hidden, cfg.head_dim
        self.qkv_shards: List[Parameter] = []
        self.qkv_bias_shards: List[Parameter] = []
        wq = dense.qkv.weight.data[0:h]
        wk = dense.qkv.weight.data[h:2 * h]
        wv = dense.qkv.weight.data[2 * h:3 * h]
        bq = dense.qkv.bias.data[0:h]
        bk = dense.qkv.bias.data[h:2 * h]
        bv = dense.qkv.bias.data[2 * h:3 * h]
        head0 = 0
        for r, hpr in enumerate(self.head_counts):
            rows = slice(head0 * hd, (head0 + hpr) * hd)
            w = Parameter(np.concatenate([wq[rows], wk[rows], wv[rows]]))
            b = Parameter(np.concatenate([bq[rows], bk[rows], bv[rows]]))
            setattr(self, f"qkv_w{r}", w)
            setattr(self, f"qkv_b{r}", b)
            self.qkv_shards.append(w)
            self.qkv_bias_shards.append(b)
            head0 += hpr
        self.proj = RowParallelLinear(
            dense.proj, world, self.counter,
            in_sizes=[hpr * hd for hpr in self.head_counts])

    def _rank_attention(self, x: Tensor, r: int) -> Tensor:
        b, t, _h = x.shape
        hpr, hd = self.head_counts[r], self.cfg.head_dim
        qkv = F.linear(x, self.qkv_shards[r], self.qkv_bias_shards[r])
        qkv = qkv.reshape(b, t, 3, hpr, hd).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        att = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
        att = F.where_mask(att, self._mask[:t, :t], -1e9)
        att = F.softmax(att, axis=-1)
        att = self.drop(att)
        y = att @ v
        return y.transpose(0, 2, 1, 3).reshape(b, t, hpr * hd)

    def forward(self, x: Tensor) -> Tensor:
        partials = [self._rank_attention(x, r) for r in range(self.world)]
        return self.drop(self.proj(partials))
