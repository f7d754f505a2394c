"""Intra-layer (tensor) parallelism as a first-class grid axis.

The follow-up paper to AxoNN ("A 4D Hybrid Algorithm to Scale Parallel
Training to Thousands of GPUs", arXiv 2305.13525) adds a ``G_intra``
dimension to the ``G_inter x G_data`` grid: each pipeline stage's layers
are sharded across a tensor-parallel group whose members exchange a
weight all-gather before each forward and a gradient reduce-scatter after
each backward.  This module provides that axis for the functional
runtime.

Bit-identity by construction ("the lead computes dense")
--------------------------------------------------------
The acceptance bar is that a ``g_intra > 1`` run produces losses and
final weights *bit-identical* to the dense ``g_intra = 1`` run.  Summing
per-shard partial products (Megatron's split-K row-parallel linear)
cannot deliver that: float addition is non-associative, so the
re-associated reduction drifts by ~1e-6 from the dense GEMM.  What *is*
bit-exact is concatenation: the member shards of the 4D paper's
row/column split, put back together, are the dense array bytewise, and
slicing the dense gradient gives exact per-shard pieces.

So the group lead runs the dense stage itself — the same
:class:`~repro.runtime.stage.PipelineStage` a ``g_intra = 1`` rank
builds, activation checkpointing included — and the only TP-specific
decision left is which bytes each member owns.  :class:`ShardMap` names
it once: per member, the (dense parameter, index) pieces of its heads and
of its share of the MLP units.  The protocol's payloads are those pieces,
read off the dense parameters and their gradients.

Lead-compute protocol
---------------------
Group member ``t = 0`` (the *lead*) holds the stage and its optimizer and
drives the walk.  Members ``t > 0`` (*followers*) hold neither on the
functional runtime: they are protocol participants.  After every forward
the lead sends each follower, per microbatch of the pass, one
:data:`TAG_TP_WGT` message carrying the pieces that member lacks (the
weight all-gather), and after every backward one :data:`TAG_TP_GRAD`
message per microbatch carrying that microbatch's own gradient of the
member's pieces (the reduce-scatter).  Followers only receive: as in
the 4D paper's collectives, nothing is acknowledged.  One message per
peer per microbatch — per-layer volumes ride inside the payload — keeps
the model checker's interleaving space small while the byte counts stay
real.  Both ends record the collective on their own rank under a key
naming the group, ``(group, direction, microbatch)``; per-channel FIFO
delivery makes every member's recorded sequence identical, which
:func:`~repro.obs.protocol.check_collective_order` verifies.

A lead that owns several chunks (an interleaved schedule) holds one
:class:`ShardMap` and one :class:`TPComm` per chunk, and qualifies its
tags and directions with the chunk's virtual stage (``tp_wgt@3``,
``fwd@3``), as :func:`~repro.runtime.rankprog.lower_rank` qualifies its
``F@3`` / ``B@3``; a single chunk's tags and keys are unqualified.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..nn import Block
from ..nn.modules import Parameter
from ..obs import Tracer
from ..obs.protocol import ProtocolError
from ..perf.counters import counters
from .grid import RankGrid
from .stage import partition_layers
from .transport import RECV

__all__ = ["TAG_TP_WGT", "TAG_TP_GRAD", "ShardMap", "TPComm",
           "book_tp_counters", "record_tp_span", "tp_follower_step"]

TAG_TP_WGT = "tp_wgt"
TAG_TP_GRAD = "tp_grad"

#: tag -> the collective its message carries: (op, direction)
_COLLECTIVES = {TAG_TP_WGT: ("tp_allgather", "fwd"),
                TAG_TP_GRAD: ("tp_reduce_scatter", "bwd")}

#: record callable signature: record(rank, op, key, nbytes)
RecordFn = Callable[[int, str, tuple, int], None]


def book_tp_counters(op: str, nbytes: int) -> None:
    """Book one member's record of a TP collective in the ``tp.*`` perf
    counters: one ``tp.allgather`` / ``tp.reduce_scatter`` and its
    bytes."""
    if counters.enabled:
        kind = "allgather" if op == "tp_allgather" else "reduce_scatter"
        counters.bump(f"tp.{kind}")
        counters.bump(f"tp.{kind}_bytes", nbytes)


def record_tp_span(tracer: Optional[Tracer], rank: int, op: str,
                   key: tuple, nbytes: int) -> None:
    """One member's record of a TP collective as a zero-width span on its
    ``tp`` stream (when tracing)."""
    if tracer is not None and tracer.enabled:
        now = tracer.now()
        tracer.record(rank, "tp", op, now, now, category="tp",
                      nbytes=nbytes, group=str(key[0]), direction=key[1],
                      microbatch=key[2])


class ShardMap:
    """Which bytes of a dense stage each of ``g_intra`` tensor-parallel
    group members owns: the 4D paper's row/column split, named once.

    ``pieces[t]`` lists member ``t``'s ``(dense parameter, index)`` pairs,
    block by block in stage order.  Per block: the q, k and v row bands
    and the attention projection's columns of the member's heads
    (``split_sizes(n_head, g_intra)``), then the MLP ``fc`` rows, ``fc``
    bias and ``proj`` columns of its share of the ``4 * hidden`` units.
    The LayerNorms and both projection biases are replicated (added after
    the row-parallel reduce in the 4D scheme), so no member lists them.

    ``grads`` is where the stage's blocks file each parameter's
    member-stacked gradient during a backward pass (their
    ``member_grads``), before adding it into ``.grad``.
    """

    def __init__(self, stage, g_intra: int):
        self.pieces: List[List[Tuple[Parameter, tuple]]] = [
            [] for _ in range(g_intra)]
        self.grads: Dict[Parameter, np.ndarray] = {}
        for layer in stage.layers:
            if not isinstance(layer, Block):
                continue
            layer.member_grads = self.grads
            attn, mlp = layer.attn, layer.mlp
            h, hd = attn.cfg.hidden, attn.cfg.head_dim
            heads = partition_layers(attn.cfg.n_head, g_intra)
            units = partition_layers(mlp.fc.out_features, g_intra)
            for owned, (a, b), (c, d) in zip(self.pieces, heads, units):
                qkv = [(slice(part * h + a * hd, part * h + b * hd),)
                       for part in range(3)]
                owned += ([(attn.qkv.weight, rows) for rows in qkv]
                          + [(attn.qkv.bias, rows) for rows in qkv]
                          + [(attn.proj.weight,
                              (slice(None), slice(a * hd, b * hd))),
                             (mlp.fc.weight, (slice(c, d),)),
                             (mlp.fc.bias, (slice(c, d),)),
                             (mlp.proj.weight, (slice(None), slice(c, d)))])

    def wgt_payload(self, t: int) -> np.ndarray:
        """All-gather bytes for member ``t``: every piece it lacks."""
        return _flat(p.data[index] for u, owned in enumerate(self.pieces)
                     if u != t for p, index in owned)

    def grad_payload(self, t: int, member: int) -> np.ndarray:
        """Reduce-scatter bytes for member ``t``: the gradient of its own
        pieces that member ``member`` of the last backward pass computed —
        that microbatch's own, bit for bit what a width-1 backward of it
        computes (DESIGN.md section 9)."""
        return _flat(self.grads[p][member][index]
                     for p, index in self.pieces[t])


def _flat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    parts = [a.ravel() for a in arrays]
    return np.concatenate(parts) if parts else np.empty(0, np.float32)


class TPComm:
    """One rank's view of its tensor-parallel group and the emission /
    recording helpers the rank programs use.

    ``send`` is the transport send with the source rank bound
    (``send(dst, tag, microbatch, data)``).  ``shards``, the lead's
    :class:`ShardMap` of one chunk, builds the message bytes (None on
    followers, which only receive; the model checker's symbolic stage
    has no layers, so its payloads are empty).  ``chunk``, the chunk's
    virtual stage when the lead owns several, qualifies the tags and
    directions.
    ``record(rank, op, key, nbytes)`` is the backend's collective sink —
    trace recorder, perf counters and obs spans on the real substrates,
    the skeleton capture in the model checker.
    """

    def __init__(self, rank: int, grid: RankGrid, send,
                 shards: Optional[ShardMap] = None,
                 record: Optional[RecordFn] = None,
                 chunk: Optional[int] = None):
        self.rank = rank
        self.grid = grid
        i, j, _t = grid.coord3_of(rank)
        self.group_key = (i, j)
        self.lead = grid.tp_lead(rank)
        self.peers = grid.tp_peers(rank)
        self.send = send
        self.shards = shards
        self.record = record
        self.at = "" if chunk is None else f"@{chunk}"

    def record_collective(self, op: str, direction: str, microbatch: int,
                          nbytes: int) -> None:
        if self.record is not None:
            self.record(self.rank, op,
                        (self.group_key, direction, microbatch), nbytes)

    # -- lead side ---------------------------------------------------------
    def emit_weights(self, microbatches) -> None:
        """The group's weight all-gather for a forward pass: per
        microbatch, one :data:`TAG_TP_WGT` message per peer carrying the
        shards it lacks."""
        self._emit(TAG_TP_WGT, microbatches, lambda t, _member:
                   self.shards.wgt_payload(t))

    def emit_grads(self, microbatches) -> None:
        """The group's gradient reduce-scatter for a backward pass: per
        microbatch, one :data:`TAG_TP_GRAD` message per peer carrying that
        microbatch's gradient of the peer's own shard."""
        self._emit(TAG_TP_GRAD, microbatches, self.shards.grad_payload)
        self.shards.grads.clear()

    def _emit(self, tag: str, microbatches, payload) -> None:
        op, direction = _COLLECTIVES[tag]
        for member, mb in enumerate(microbatches):
            nbytes = 0
            for peer in self.peers:
                data = payload(self.grid.tp_index(peer), member)
                nbytes += int(data.nbytes)
                self.send(peer, tag + self.at, mb, data)
            self.record_collective(op, direction + self.at, mb, nbytes)


def tp_follower_step(rank: int, grid: RankGrid, comm: TPComm,
                     passes: int) -> Generator:
    """Rank program for a tensor-parallel follower (``t > 0``).

    Reactive and receive-only: takes exactly ``2 * passes`` messages from
    the group lead, where ``passes`` is the microbatches times the chunks
    the lead runs — one weight all-gather per forward, one gradient
    reduce-scatter per backward — recording each collective under the
    same group-named key (chunk-qualified direction included) the lead
    records, and sends nothing.  Per-channel FIFO delivery means the
    recorded collective sequence is identical to the lead's, which the
    protocol verifier checks.
    """
    for _ in range(2 * passes):
        pkt = yield RECV
        tag, at, chunk = pkt.tag.partition("@")
        if pkt.src != comm.lead or tag not in _COLLECTIVES:
            raise ProtocolError(
                f"tp follower {rank} received unexpected packet {pkt}")
        data = pkt.data
        nbytes = int(data.nbytes) if data is not None else 0
        op, direction = _COLLECTIVES[tag]
        comm.record_collective(op, direction + at + chunk, pkt.microbatch,
                               nbytes)
