"""Intra-layer (tensor) parallelism as a first-class grid axis.

The follow-up paper to AxoNN ("A 4D Hybrid Algorithm to Scale Parallel
Training to Thousands of GPUs", arXiv 2305.13525) adds a ``G_intra``
dimension to the ``G_inter x G_data`` grid: each pipeline stage's layers
are sharded across a tensor-parallel group whose members exchange a
weight all-gather before each forward and a gradient reduce-scatter after
each backward.  This module provides that axis for the functional
runtime.

Bit-identity by construction ("gather weights, compute dense")
--------------------------------------------------------------
The acceptance bar is that a ``g_intra > 1`` run produces losses and
final weights *bit-identical* to the dense ``g_intra = 1`` run.  Summing
per-shard partial products (Megatron's split-K row-parallel linear, kept
in :mod:`repro.baselines.intra_layer` as the comparison baseline) cannot
deliver that: float addition is non-associative, so the re-associated
reduction drifts by ~1e-6 from the dense GEMM.  What *is* bit-exact is
concatenation: ``np.concatenate`` of contiguous row/column slices
reproduces the dense array bytewise, and slicing the dense gradient gives
exact per-shard pieces.

So the tensor-parallel stage stores genuinely sharded parameters —
separate :class:`~repro.nn.modules.Parameter` objects per (matrix part,
group member) following the 4D paper's row/column split — but each
forward **reassembles the dense weight with one concat and runs exactly
the dense code path** (:func:`~repro.nn.functional.block_forward`, the
kernel a dense ``Block`` runs), reusing the dense stage's LayerNorm and
Dropout module objects so the RNG streams advance identically.  The
dense gradients are sliced back onto the shards, and AdamW is
elementwise, so shard updates equal dense updates bit for bit.

Lead-compute protocol
---------------------
Group member ``t = 0`` (the *lead*) owns the full sharded stage and
drives Algorithm 2.  Members ``t > 0`` (*followers*) are protocol
participants: after every forward the lead sends each follower one
:data:`TAG_TP_WGT` message carrying the shard bytes that member lacks
(the weight all-gather), and after every backward one :data:`TAG_TP_GRAD`
message carrying the member's owned gradient shard (the reduce-scatter).
Followers acknowledge each message with :data:`TAG_TP_ACK`.  One message
per peer per pass — per-layer volumes ride inside the payload — keeps
the model checker's interleaving space small while the byte counts stay
real.  Both ends record the collective on their own rank under a key
naming the group, ``(group, direction, microbatch)``; per-channel FIFO
delivery makes every member's recorded sequence identical, which
:func:`~repro.obs.protocol.check_collective_order` verifies.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

import numpy as np

from ..nn import F, GPTConfig, Module
from ..nn.modules import Parameter
from ..nn.transformer import MLP, Block, CausalSelfAttention
from ..obs.protocol import ProtocolError
from ..partition import split_sizes
from .grid import RankGrid
from .stage import ChunkedShard, PipelineStage
from .transport import RECV

__all__ = ["TAG_TP_WGT", "TAG_TP_GRAD", "TAG_TP_ACK", "ShardedAttention",
           "ShardedMLP", "TPBlock", "TensorParallelStage", "build_shard",
           "TPComm", "tp_follower_step"]

TAG_TP_WGT = "tp_wgt"
TAG_TP_GRAD = "tp_grad"
TAG_TP_ACK = "tp_ack"

#: record callable signature: record(rank, op, key, nbytes)
RecordFn = Callable[[int, str, tuple, int], None]


class ShardedAttention(Module):
    """Head-sharded causal self-attention parameters (:class:`TPBlock`
    runs them).

    QKV weights are sharded head-major per group member (``wq_t``/``wk_t``/
    ``wv_t`` plus biases); the output projection is column-sharded along
    the same head partition.  The projection bias, like LayerNorm, is
    replicated (it is added after the row-parallel reduce in the 4D
    scheme, so no member owns a slice of it).
    """

    def __init__(self, dense: CausalSelfAttention, g_intra: int):
        super().__init__()
        cfg = dense.cfg
        self.cfg = cfg
        self.g_intra = g_intra
        self.head_counts = split_sizes(cfg.n_head, g_intra)
        self._mask = dense._mask
        self.drop = dense.drop  # same module: RNG advances as in dense
        h, hd = cfg.hidden, cfg.head_dim
        wd, bd = dense.qkv.weight.data, dense.qkv.bias.data
        # _qkv_w[part][t] with part in (q, k, v): the dense qkv weight has
        # rows [q; k; v], each internally head-major, so concatenating all
        # q shards, then k, then v reproduces it bytewise.
        self._qkv_w: List[List[Parameter]] = [[], [], []]
        self._qkv_b: List[List[Parameter]] = [[], [], []]
        for part, pname in enumerate("qkv"):
            head0 = 0
            for t, hc in enumerate(self.head_counts):
                rows = slice(part * h + head0 * hd,
                             part * h + (head0 + hc) * hd)
                w = Parameter(wd[rows].copy())
                b = Parameter(bd[rows].copy())
                setattr(self, f"w{pname}{t}", w)
                setattr(self, f"b{pname}{t}", b)
                self._qkv_w[part].append(w)
                self._qkv_b[part].append(b)
                head0 += hc
        self.proj_w: List[Parameter] = []
        pw = dense.proj.weight.data
        col0 = 0
        for t, hc in enumerate(self.head_counts):
            cols = slice(col0 * hd, (col0 + hc) * hd)
            w = Parameter(pw[:, cols].copy())
            setattr(self, f"wproj{t}", w)
            self.proj_w.append(w)
            col0 += hc
        self.proj_b = Parameter(dense.proj.bias.data.copy())

    def shard_params(self, t: int) -> List[Parameter]:
        """Parameters owned by group member ``t``."""
        return ([self._qkv_w[p][t] for p in range(3)]
                + [self._qkv_b[p][t] for p in range(3)]
                + [self.proj_w[t]])

    def dense_arrays(self) -> Dict[str, np.ndarray]:
        """Reassembled dense weights under the dense module's names."""
        return {
            "qkv.weight": np.concatenate(
                [p.data for part in self._qkv_w for p in part]),
            "qkv.bias": np.concatenate(
                [p.data for part in self._qkv_b for p in part]),
            "proj.weight": np.concatenate(
                [p.data for p in self.proj_w], axis=1),
            "proj.bias": self.proj_b.data.copy(),
        }


class ShardedMLP(Module):
    """Row/column-sharded MLP parameters (:class:`TPBlock` runs them).

    ``fc`` is sharded along its output dimension, ``proj`` along its
    input dimension with the same partition (Megatron's pairing, which
    the 4D paper keeps); the ``proj`` bias is replicated.
    """

    def __init__(self, dense: MLP, g_intra: int):
        super().__init__()
        self.g_intra = g_intra
        self.fc_sizes = split_sizes(dense.fc.out_features, g_intra)
        self.drop = dense.drop  # same module: RNG advances as in dense
        self.fc_w: List[Parameter] = []
        self.fc_b: List[Parameter] = []
        self.proj_w: List[Parameter] = []
        off = 0
        for t, size in enumerate(self.fc_sizes):
            rows = slice(off, off + size)
            w = Parameter(dense.fc.weight.data[rows].copy())
            b = Parameter(dense.fc.bias.data[rows].copy())
            pw = Parameter(dense.proj.weight.data[:, rows].copy())
            setattr(self, f"wfc{t}", w)
            setattr(self, f"bfc{t}", b)
            setattr(self, f"wproj{t}", pw)
            self.fc_w.append(w)
            self.fc_b.append(b)
            self.proj_w.append(pw)
            off += size
        self.proj_b = Parameter(dense.proj.bias.data.copy())

    def shard_params(self, t: int) -> List[Parameter]:
        return [self.fc_w[t], self.fc_b[t], self.proj_w[t]]

    def dense_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "fc.weight": np.concatenate([p.data for p in self.fc_w]),
            "fc.bias": np.concatenate([p.data for p in self.fc_b]),
            "proj.weight": np.concatenate(
                [p.data for p in self.proj_w], axis=1),
            "proj.bias": self.proj_b.data.copy(),
        }


class TPBlock(Module):
    """A transformer block with sharded attention/MLP and replicated
    LayerNorms, built *from* a dense :class:`~repro.nn.Block` (whose
    LayerNorm and Dropout modules it adopts, keeping init and RNG streams
    identical to the dense stage)."""

    def __init__(self, dense: Block, g_intra: int):
        super().__init__()
        self.ln1 = dense.ln1
        self.attn = ShardedAttention(dense.attn, g_intra)
        self.ln2 = dense.ln2
        self.mlp = ShardedMLP(dense.mlp, g_intra)

    def _parts(self):
        """The dense block's twelve weights in the kernel's order, each as
        (its pieces, the axis they concatenate along): a sharded matrix's
        per-member shards, or a replicated parameter alone."""
        attn, mlp = self.attn, self.mlp
        return (((self.ln1.weight,), 0), ((self.ln1.bias,), 0),
                ([p for part in attn._qkv_w for p in part], 0),
                ([p for part in attn._qkv_b for p in part], 0),
                (attn.proj_w, 1), ((attn.proj_b,), 0),
                ((self.ln2.weight,), 0), ((self.ln2.bias,), 0),
                (mlp.fc_w, 0), (mlp.fc_b, 0), (mlp.proj_w, 1),
                ((mlp.proj_b,), 0))

    def group_forward(self, x: np.ndarray, save: bool = True):
        """The dense block kernel on the reassembled weights — one concat
        per sharded matrix (see :meth:`Block.group_forward`)."""
        weights = [pieces[0].data if len(pieces) == 1 else
                   np.concatenate([p.data for p in pieces], axis=axis)
                   for pieces, axis in self._parts()]
        return F.block_forward(x, weights, self.attn.cfg.n_head,
                               self.attn._mask, self.attn.drop,
                               self.mlp.drop, save=save)

    def group_backward(self, saved, members: slice,
                       g: np.ndarray) -> np.ndarray:
        """The kernel's dense gradients sliced into exact per-shard pieces,
        added member by member."""
        dx, grads = F.block_backward(g, saved, members)
        for (pieces, axis), grad in zip(self._parts(), grads):
            offset = 0
            for p in pieces:
                size = p.shape[axis]
                cut = (slice(None),) * (axis + 1) + (
                    slice(offset, offset + size),)
                for member in grad[cut]:
                    p._accumulate(member)
                offset += size
        return dx

    def shard_params(self, t: int) -> List[Parameter]:
        return self.attn.shard_params(t) + self.mlp.shard_params(t)

    def dense_arrays(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, p in self.ln1.named_parameters():
            out[f"ln1.{name}"] = p.data.copy()
        for name, arr in self.attn.dense_arrays().items():
            out[f"attn.{name}"] = arr
        for name, p in self.ln2.named_parameters():
            out[f"ln2.{name}"] = p.data.copy()
        for name, arr in self.mlp.dense_arrays().items():
            out[f"mlp.{name}"] = arr
        return out


class TensorParallelStage(PipelineStage):
    """A pipeline stage whose transformer blocks are sharded across a
    ``g_intra``-member tensor-parallel group (held in full by the group
    lead; see the module docstring for the lead-compute design)."""

    def __init__(self, cfg: GPTConfig, stage_index: int, g_inter: int,
                 g_intra: int, checkpoint_activations: bool = False):
        if g_intra < 1:
            raise ValueError("g_intra must be >= 1")
        if checkpoint_activations and g_intra > 1:
            raise ValueError(
                "checkpoint_activations is not supported with g_intra > 1 "
                "(the checkpointed replay would re-gather shards mid-"
                "backward); disable one of the two")
        super().__init__(cfg, stage_index, g_inter,
                         checkpoint_activations=False)
        self.g_intra = g_intra
        for idx in range(self._blocks_start, self._blocks_end):
            self.layers[idx] = TPBlock(self.layers[idx], g_intra)
        self._plan_runs()

    def _tp_blocks(self) -> List[TPBlock]:
        return [layer for layer in self.layers if isinstance(layer, TPBlock)]

    # -- protocol payloads -------------------------------------------------
    def shard_flat(self, t: int) -> np.ndarray:
        """Member ``t``'s owned weights, flattened across all blocks."""
        parts = [p.data.ravel() for blk in self._tp_blocks()
                 for p in blk.shard_params(t)]
        if not parts:
            return np.empty(0, dtype=np.float32)
        return np.concatenate(parts)

    def shard_grad_flat(self, t: int) -> np.ndarray:
        """Member ``t``'s owned accumulated gradients, flattened."""
        parts = []
        for blk in self._tp_blocks():
            for p in blk.shard_params(t):
                g = p.grad
                parts.append((g if g is not None
                              else np.zeros_like(p.data)).ravel())
        if not parts:
            return np.empty(0, dtype=np.float32)
        return np.concatenate(parts)

    def wgt_payload(self, t: int) -> np.ndarray:
        """All-gather bytes for member ``t``: every shard it lacks."""
        parts = [self.shard_flat(u) for u in range(self.g_intra) if u != t]
        if not parts:
            return np.empty(0, dtype=np.float32)
        return np.concatenate(parts)

    def grad_payload(self, t: int) -> np.ndarray:
        """Reduce-scatter bytes for member ``t``: its owned grad shard."""
        return self.shard_grad_flat(t)

    # -- state -------------------------------------------------------------
    def dense_state(self) -> Dict[str, np.ndarray]:
        """The stage's weights reassembled under the *dense* stage's
        parameter names, for cross-configuration equivalence checks."""
        out: Dict[str, np.ndarray] = {}
        for li, layer in enumerate(self.layers):
            slot = self.slot_range[0] + li
            if isinstance(layer, TPBlock):
                for name, arr in layer.dense_arrays().items():
                    out[f"slot{slot}.{name}"] = arr
            else:
                for name, p in layer.named_parameters():
                    out[f"slot{slot}.{name}"] = p.data.copy()
        return out


def build_shard(cfg: GPTConfig, grid: RankGrid, i: int, n_virtual: int,
                checkpoint_activations: bool = False):
    """Pipeline rank ``i``'s ``nn_shard``, for the trainer and a process
    worker alike: the group's sharded stage when ``grid.g_intra > 1``,
    otherwise the virtual stages ``v % g_inter == i`` of ``n_virtual`` —
    a plain :class:`PipelineStage` when that is one chunk, a
    :class:`ChunkedShard` when several."""
    if grid.g_intra > 1:
        return TensorParallelStage(cfg, i, grid.g_inter, grid.g_intra)
    chunks = {v: PipelineStage(cfg, v, n_virtual,
                               checkpoint_activations=checkpoint_activations)
              for v in range(i, n_virtual, grid.g_inter)}
    return chunks[i] if len(chunks) == 1 else ChunkedShard(chunks)


class TPComm:
    """One rank's view of its tensor-parallel group and the emission /
    recording helpers the rank programs use.

    ``send`` is the transport send with the source rank bound
    (``send(dst, tag, microbatch, data)``).  ``wgt_payload(t)`` /
    ``grad_payload(t)`` build the real message bytes on the lead (None on
    followers and in the symbolic checker, where payloads are empty).
    ``record(rank, op, key, nbytes)`` is the backend's collective sink —
    trace recorder, perf counters and obs spans on the real substrates,
    the skeleton capture in the model checker.
    """

    def __init__(self, rank: int, grid: RankGrid, send,
                 wgt_payload: Optional[Callable[[int], np.ndarray]] = None,
                 grad_payload: Optional[Callable[[int], np.ndarray]] = None,
                 record: Optional[RecordFn] = None):
        self.rank = rank
        self.grid = grid
        i, j, t = grid.coord3_of(rank)
        self.group_key = (i, j)
        self.t = t
        self.lead = grid.tp_lead(rank)
        self.group = grid.tp_group(i, j)
        self.peers = grid.tp_peers(rank)
        self.send = send
        self.wgt_payload = wgt_payload
        self.grad_payload = grad_payload
        self.record = record

    @property
    def acks_per_microbatch(self) -> int:
        """Acks the lead absorbs per microbatch (one per peer per pass)."""
        return 2 * len(self.peers)

    def absorbs(self, pkt) -> bool:
        """True when ``pkt`` is a follower's :data:`TAG_TP_ACK`: a pure
        credit, which the lead's walk counts and drops wherever its
        receive loop finds one."""
        return pkt.tag == TAG_TP_ACK and pkt.src in self.peers

    def record_collective(self, op: str, direction: str, microbatch: int,
                          nbytes: int) -> None:
        if self.record is not None:
            self.record(self.rank, op,
                        (self.group_key, direction, microbatch), nbytes)

    # -- lead side ---------------------------------------------------------
    def emit_weights(self, microbatch: int) -> None:
        """The group's weight all-gather for one forward pass: one
        :data:`TAG_TP_WGT` message per peer carrying the shards it lacks."""
        nbytes = 0
        for peer in self.peers:
            t = self.grid.tp_index(peer)
            data = None if self.wgt_payload is None else self.wgt_payload(t)
            if data is not None:
                nbytes += int(data.nbytes)
            self.send(peer, TAG_TP_WGT, microbatch, data)
        self.record_collective("tp_allgather", "fwd", microbatch, nbytes)

    def emit_grads(self, microbatch: int) -> None:
        """The group's gradient reduce-scatter for one backward pass: one
        :data:`TAG_TP_GRAD` message per peer carrying its owned shard."""
        nbytes = 0
        for peer in self.peers:
            t = self.grid.tp_index(peer)
            data = None if self.grad_payload is None else self.grad_payload(t)
            if data is not None:
                nbytes += int(data.nbytes)
            self.send(peer, TAG_TP_GRAD, microbatch, data)
        self.record_collective("tp_reduce_scatter", "bwd", microbatch, nbytes)


def tp_follower_step(rank: int, grid: RankGrid, comm: TPComm,
                     total_microbatches: int) -> Generator:
    """Rank program for a tensor-parallel follower (``t > 0``).

    Reactive: absorbs exactly ``2 * m`` messages from the group lead —
    one weight all-gather per forward, one gradient reduce-scatter per
    backward — recording each collective under the same group-named key
    the lead records, and acknowledging each with :data:`TAG_TP_ACK`.
    Per-channel FIFO delivery means the recorded collective sequence is
    identical to the lead's, which the protocol verifier checks.
    """
    expected = 2 * total_microbatches
    for _ in range(expected):
        pkt = yield RECV
        if pkt.src != comm.lead or pkt.tag not in (TAG_TP_WGT, TAG_TP_GRAD):
            raise ProtocolError(
                f"tp follower {rank} received unexpected packet {pkt}")
        data = pkt.data
        nbytes = int(data.nbytes) if data is not None else 0
        if pkt.tag == TAG_TP_WGT:
            comm.record_collective("tp_allgather", "fwd",
                                   pkt.microbatch, nbytes)
        else:
            comm.record_collective("tp_reduce_scatter", "bwd",
                                   pkt.microbatch, nbytes)
        # Acks are pure credits: constant content (microbatch -1), so the
        # model checker's counts-quotient stays sound on the ack channel.
        comm.send(comm.lead, TAG_TP_ACK, -1, None)
