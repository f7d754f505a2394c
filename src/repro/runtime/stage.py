"""A pipeline stage: one rank's contiguous shard of the network.

Implements the ``nn_shard`` object of Algorithms 1-2: the stage owns its
layer modules, runs forward passes keeping what the backward needs per
in-flight microbatch, and runs backward passes that (a) accumulate parameter
gradients and (b) produce the gradient w.r.t. the stage input to send
upstream.  The final stage additionally computes the loss (pre-divided by
the total number of microbatches in the batch — the paper's overflow guard
that also makes the accumulated gradient an exact full-batch mean).

A pass runs a group of microbatches through each layer's
``group_forward`` / ``group_backward`` pair (the block kernel of
:func:`~repro.nn.functional.block_forward`), with no autograd graph.
Activation checkpointing (Section V-A) is applied *inside* the stage with
the ``ac = sqrt(N)`` interval rule: a checkpointed segment keeps only its
group's input and replays the whole group in backward.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import (Block, Dropout, GPTConfig, GPTEmbedding, LayerKVCache,
                  Module, Tensor, build_layer, no_grad, num_layer_slots)
from ..partition import optimal_checkpoint_interval, split_sizes

__all__ = ["partition_layers", "PipelineStage", "ChunkedShard",
           "build_shard", "InferenceStage"]


def partition_layers(n_slots: int, g_inter: int) -> List[Tuple[int, int]]:
    """Split ``n_slots`` layer slots into ``g_inter`` contiguous [start, end)
    ranges, sizes differing by at most one (larger shards first)."""
    ends = list(accumulate(split_sizes(n_slots, g_inter)))
    return list(zip([0] + ends[:-1], ends))


def _dropout_modules(stage: PipelineStage) -> List[Dropout]:
    """All dropout modules of a stage, in deterministic traversal order."""
    return [m for layer in stage.layers for m in layer.modules()
            if isinstance(m, Dropout)]


class PipelineStage:
    """One rank's ``nn_shard``.

    :meth:`forward` and :meth:`backward` take a *group* of microbatches,
    the way :meth:`InferenceStage.forward` takes a group of requests: one
    pass of the stage's layers over the members stacked on a new leading
    axis (DESIGN.md section 9), each member computing bit for bit what a
    group of one computes.  A width-1 group is the only per-microbatch
    path.  The stash keeps the member axis, so a backward may cover any
    run of consecutive members of one forward group — the rest of the
    group's gradients may still be on the wire.
    """

    def __init__(self, cfg: GPTConfig, stage_index: int, g_inter: int,
                 checkpoint_activations: bool = False):
        self.cfg = cfg
        self.stage_index = stage_index
        self.g_inter = g_inter
        n_slots = num_layer_slots(cfg)
        ranges = partition_layers(n_slots, g_inter)
        self.slot_range = ranges[stage_index]
        self.layers: List[Module] = [
            build_layer(cfg, slot) for slot in range(*self.slot_range)
        ]
        self.is_first = stage_index == 0
        self.is_last = stage_index == g_inter - 1

        # Checkpointing applies to the transformer blocks of the stage (the
        # embedding/head are cheap); interval from the paper's sqrt rule.
        self._blocks_start = 1 if self.is_first else 0
        self._blocks_end = len(self.layers) - (1 if self.is_last else 0)
        n_blocks = self._blocks_end - self._blocks_start
        self._interval = optimal_checkpoint_interval(cfg.n_layer, n_blocks) \
            if checkpoint_activations and n_blocks else 0
        self._plan_runs()

        #: microbatch -> the forward group whose stash holds it
        self._inflight: Dict[int, _Group] = {}
        #: per-microbatch loss value (last stage only)
        self.microbatch_losses: Dict[int, float] = {}

    def _plan_runs(self) -> None:
        """Split the layers before the head into runs: the embedding, then
        the blocks — one plain run, or checkpointed segments of
        ``interval`` blocks, each with the dropout streams its replay
        rewinds (Section V-A)."""
        body = self.layers[:self._blocks_end]
        blocks = body[self._blocks_start:]
        runs: List[Tuple[List[Module], Optional[list]]] = [
            (body[:self._blocks_start], None)]
        if self._interval:
            for i in range(0, len(blocks), self._interval):
                segment = blocks[i:i + self._interval]
                runs.append((segment, [m.rng for layer in segment
                                       for m in layer.modules()
                                       if isinstance(m, Dropout)]))
        else:
            runs.append((blocks, None))
        self._runs = [(layers, rngs) for layers, rngs in runs if layers]

    # -- introspection -----------------------------------------------------
    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def named_parameters(self):
        for li, layer in enumerate(self.layers):
            slot = self.slot_range[0] + li
            for name, p in layer.named_parameters():
                yield f"slot{slot}.{name}", p

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    @property
    def inflight_microbatches(self) -> int:
        return len(self._inflight)

    @property
    def chunks(self) -> Dict[int, "PipelineStage"]:
        """Virtual stage -> chunk, the mapping a static schedule's walk
        indexes; a plain stage is its own only chunk."""
        return {self.stage_index: self}

    def reset(self) -> None:
        """Void a partial batch: in-flight activations and recorded
        losses (a failed attempt's, or a long-lived worker's last)."""
        self._inflight.clear()
        self.microbatch_losses.clear()

    # -- execution ------------------------------------------------------------
    def forward(self, microbatches: Sequence[int], xs: Sequence[np.ndarray],
                targets: Optional[Sequence[np.ndarray]] = None,
                loss_divisor: float = 1.0,
                loss_scale: float = 1.0) -> np.ndarray:
        """Run this stage's forward pass for the group ``microbatches``;
        ``xs[i]`` is microbatch ``microbatches[i]``'s input.

        * first stage: ``xs`` are integer token arrays;
        * other stages: ``xs`` are boundary activations from upstream;
        * last stage: requires ``targets`` (one per member); computes each
          member's loss (pre-divided by ``loss_divisor``, times the
          mixed-precision ``loss_scale``) and records its value.

        Returns the member-stacked boundary activations to send
        downstream — row ``i`` for ``microbatches[i]`` — or, on the last
        stage, the ``(k,)`` scaled losses.
        """
        mbs = list(microbatches)
        if not mbs or len(xs) != len(mbs) or len(set(mbs)) != len(mbs):
            raise ValueError(f"a group is one input each for distinct "
                             f"microbatches, got {len(xs)} for {mbs}")
        for mb in mbs:
            if mb in self._inflight:
                raise RuntimeError(f"microbatch {mb} already in flight on "
                                   f"stage {self.stage_index}")
        if self.is_last and targets is None:
            raise ValueError("last stage forward requires targets")
        if self.is_first:
            x = np.stack(xs)
        else:
            x = np.stack(xs).astype(np.float32, copy=False)
        group = _Group(mbs)
        for layers, rngs in self._runs:
            if rngs is not None:  # checkpointed: keep the input only
                group.saved.append(
                    (x, [rng.bit_generator.state for rng in rngs]))
                for layer in layers:
                    x, _ = layer.group_forward(x, save=False)
            else:
                ctxs = []
                for layer in layers:
                    x, ctx = layer.group_forward(x)
                    ctxs.append(ctx)
                group.saved.append(ctxs)
        if self.is_last:
            # Pre-divide by the total microbatch count (Section IV-B) and
            # apply the mixed-precision loss scale (Section II-A).
            x, group.head = self.layers[-1].group_loss(
                x, np.stack(targets), loss_scale / loss_divisor)
            for mb, loss in zip(mbs, x):
                self.microbatch_losses[mb] = \
                    float(loss) * loss_divisor / loss_scale
        for mb in mbs:
            self._inflight[mb] = group
        return x

    def backward(self, microbatches: Sequence[int],
                 grads: Optional[Sequence[np.ndarray]] = None
                 ) -> Optional[np.ndarray]:
        """Run this stage's backward pass for ``microbatches``, a run of
        consecutive members of one forward group.

        ``grads`` are the gradients w.r.t. their outputs (None on the last
        stage, whose roots are the scalar losses — Algorithm 2's
        ``BACKWARD(1)``).  Parameter gradients are added member by member,
        in order.  Returns the member-stacked gradients w.r.t. the stage
        inputs, or None on the first stage.
        """
        mbs = list(microbatches)
        group = self._inflight.get(mbs[0]) if mbs else None
        if group is None:
            raise RuntimeError(f"backward for unknown microbatch "
                               f"{mbs[:1]} on stage {self.stage_index}")
        start = group.mbs.index(mbs[0])
        if group.mbs[start:start + len(mbs)] != mbs:
            raise RuntimeError(
                f"backward for {mbs} on stage {self.stage_index}: a pass "
                f"covers consecutive members of one forward group "
                f"({group.mbs})")
        members = slice(start, start + len(mbs))
        if self.is_last:
            g = self.layers[-1].group_backward(group.head, members)
        elif grads is None:
            raise ValueError("non-last stage backward requires a gradient")
        else:
            g = np.stack(grads).astype(np.float32, copy=False)
        for (layers, rngs), saved in zip(reversed(self._runs),
                                         reversed(group.saved)):
            if rngs is not None:
                saved = self._replay(layers, rngs, *saved)
            for layer, ctx in zip(reversed(layers), reversed(saved)):
                g = layer.group_backward(ctx, members, g)
        for mb in mbs:
            del self._inflight[mb]
        return g

    @staticmethod
    def _replay(layers, rngs, x, states) -> list:
        """Re-run a checkpointed segment over its whole group with the
        dropout streams rewound to where its forward found them, so the
        masks match the activations already sent on; the states the
        replay found (later passes may have advanced the streams) are put
        back after it."""
        current = [rng.bit_generator.state for rng in rngs]
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        try:
            saved = []
            for layer in layers:
                x, ctx = layer.group_forward(x)
                saved.append(ctx)
        finally:
            for rng, state in zip(rngs, current):
                rng.bit_generator.state = state
        return saved


class _Group:
    """One forward pass's stash: its microbatches in member order and, per
    run of layers, what the backward needs (a checkpointed run: its
    input and dropout states), every array member-stacked."""

    __slots__ = ("mbs", "saved", "head")

    def __init__(self, mbs: List[int]):
        self.mbs = mbs
        self.saved: list = []
        self.head = None


class ChunkedShard:
    """One rank's ``nn_shard`` when it holds several virtual stages
    (interleaved schedules place ``n_virtual > g_inter`` chunks round
    robin).  Only a static schedule's walk tells them apart, through
    :attr:`chunks`; every other phase — optimizer, data-parallel
    buffers, checkpointing, recovery, the process backend's parameter
    block — sees one shard with the :class:`PipelineStage` surface.
    """

    def __init__(self, chunks: Dict[int, PipelineStage]):
        self.chunks = chunks
        self.layers: List[Module] = [
            layer for chunk in chunks.values() for layer in chunk.layers]
        #: the loss-computing chunk's dict when this rank holds it
        self.microbatch_losses: Dict[int, float] = next(
            (c.microbatch_losses for c in chunks.values() if c.is_last), {})

    def parameters(self):
        return [p for chunk in self.chunks.values()
                for p in chunk.parameters()]

    def named_parameters(self):
        for chunk in self.chunks.values():
            yield from chunk.named_parameters()

    def num_parameters(self) -> int:
        return sum(chunk.num_parameters() for chunk in self.chunks.values())

    @property
    def inflight_microbatches(self) -> int:
        return sum(chunk.inflight_microbatches
                   for chunk in self.chunks.values())

    def reset(self) -> None:
        for chunk in self.chunks.values():
            chunk.reset()


def build_shard(cfg: GPTConfig, i: int, g_inter: int, n_virtual: int,
                checkpoint_activations: bool = False):
    """Pipeline rank ``i``'s ``nn_shard``, for the trainer and a process
    worker alike (a tensor-parallel lead's too): the virtual stages
    ``v % g_inter == i`` of ``n_virtual`` — a plain
    :class:`PipelineStage` when that is one chunk, a
    :class:`ChunkedShard` when several."""
    chunks = {v: PipelineStage(cfg, v, n_virtual,
                               checkpoint_activations=checkpoint_activations)
              for v in range(i, n_virtual, g_inter)}
    return chunks[i] if len(chunks) == 1 else ChunkedShard(chunks)


class InferenceStage:
    """Forward-only pipeline shard for serving (:mod:`repro.serve`).

    Shares :func:`partition_layers`/:func:`build_layer` with
    :class:`PipelineStage`, so rank ``i`` holds exactly the weights the
    training stage would — the serial/pipeline numerical-equivalence
    property carries over to inference verbatim.  Instead of autograd
    bookkeeping, each in-flight *request* owns per-block
    :class:`~repro.nn.LayerKVCache` buffers: a decode step feeds only the
    newest token's activation through the shard and attends over the cache.
    Layers run in eval mode (dropout off), matching ``model.eval()`` on the
    serial side.
    """

    def __init__(self, cfg: GPTConfig, stage_index: int, g_inter: int):
        self.cfg = cfg
        self.stage_index = stage_index
        self.g_inter = g_inter
        ranges = partition_layers(num_layer_slots(cfg), g_inter)
        self.slot_range = ranges[stage_index]
        self.layers: List[Module] = [
            build_layer(cfg, slot) for slot in range(*self.slot_range)
        ]
        for layer in self.layers:
            layer.eval()
        self.is_first = stage_index == 0
        self.is_last = stage_index == g_inter - 1
        #: request id -> {layer index -> LayerKVCache}
        self._caches: Dict[int, Dict[int, LayerKVCache]] = {}
        #: request id -> positions consumed so far (the position offset)
        self._pos: Dict[int, int] = {}

    # -- request lifecycle -------------------------------------------------
    @property
    def inflight_requests(self) -> int:
        return len(self._caches)

    def kv_bytes(self) -> int:
        """Current KV-cache footprint of all in-flight requests (full
        capacity; buffers are preallocated at admission)."""
        return sum(c.nbytes for caches in self._caches.values()
                   for c in caches.values())

    def start_request(self, rid: int) -> None:
        if rid in self._caches:
            raise RuntimeError(f"request {rid} already in flight on stage "
                               f"{self.stage_index}")
        self._caches[rid] = {
            li: LayerKVCache(self.cfg)
            for li, layer in enumerate(self.layers)
            if isinstance(layer, Block)
        }
        self._pos[rid] = 0

    def finish_request(self, rid: int) -> None:
        self._caches.pop(rid)
        self._pos.pop(rid)

    # -- KV handoff (disaggregated prefill/decode) -------------------------
    def export_kv(self, rid: int
                  ) -> Tuple[int, Dict[int, Tuple[np.ndarray, np.ndarray]]]:
        """Snapshot request ``rid``'s filled KV rows for transfer.

        Returns ``(pos, blocks)`` where ``blocks`` maps *global* layer-slot
        indices to ``(k, v)`` arrays holding only the used prefix.  The
        global keys let a pool with a different pipeline depth re-shard the
        same layers: each importing stage picks out the slots it owns.
        """
        if rid not in self._caches:
            raise RuntimeError(f"request {rid} not started on stage "
                               f"{self.stage_index}")
        blocks = {
            self.slot_range[0] + li: (c.k[:, :, :c.length].copy(),
                                      c.v[:, :, :c.length].copy())
            for li, c in self._caches[rid].items()
        }
        return self._pos[rid], blocks

    def import_kv(self, rid: int, pos: int,
                  blocks: Dict[int, Tuple[np.ndarray, np.ndarray]]) -> None:
        """Admit request ``rid`` seeded from an :meth:`export_kv` snapshot.

        Only the slots this stage owns are consumed; ``blocks`` may carry
        the whole network's caches (the ingest message fans past every
        stage of the importing pool).
        """
        self.start_request(rid)
        for li, cache in self._caches[rid].items():
            k, v = blocks[self.slot_range[0] + li]
            cache.extend(k, v)
        self._pos[rid] = pos

    # -- execution ---------------------------------------------------------
    def forward(self, rids: Sequence[int],
                xs: Sequence[np.ndarray]) -> np.ndarray:
        """One forward-only pass for the group ``rids``; ``xs[i]`` is
        request ``rids[i]``'s ``(1, t, ...)`` input, one ``t`` per group.

        * first stage: integer token arrays — one whole prompt, or the
          single newest token of each of ``w`` decoding requests;
        * other stages: the boundary activations from upstream;
        * last stage: returns logits ``(w, t, vocab)``.

        The rows are stacked on the batch axis — never flattened into it
        — so every layer runs once over the group while each row sees
        the arithmetic it would see alone (DESIGN.md section 9); only
        the attention core runs per request, over that request's own
        cache.  The pass is all-or-nothing: every row is validated
        before any cache is extended or position advanced.
        """
        if not rids or len(rids) != len(xs) or len(set(rids)) != len(rids):
            raise ValueError(f"a group is one input each for distinct "
                             f"requests, got {len(xs)} for rids {list(rids)}")
        t = np.shape(xs[0])[1]
        for rid, x in zip(rids, xs):
            if rid not in self._caches:
                raise RuntimeError(f"request {rid} not started on stage "
                                   f"{self.stage_index}")
            if np.shape(x)[:2] != (1, t):
                raise ValueError(
                    f"request {rid}: input shape {np.shape(x)} in a group "
                    f"of (1, {t}, ...) rows; groups are not ragged")
            if self._pos[rid] + t > self.cfg.seq_len:
                raise ValueError(
                    f"request {rid}: KV cache overflow: {self._pos[rid]} + "
                    f"{t} > capacity {self.cfg.seq_len}")
            if self.is_first and not (
                    0 <= np.min(x) and np.max(x) < self.cfg.vocab_size):
                raise ValueError(f"request {rid}: token id outside "
                                 "vocabulary")
        caches = [self._caches[rid] for rid in rids]
        with no_grad():
            if self.is_first:
                x = np.concatenate(xs)
            else:
                x = Tensor(np.concatenate(xs, dtype=np.float32))
            for li, layer in enumerate(self.layers):
                if isinstance(layer, GPTEmbedding):
                    x = layer(x, pos_offset=[self._pos[rid] for rid in rids])
                elif isinstance(layer, Block):
                    x = layer(x, caches=[c[li] for c in caches])
                else:  # GPTHead
                    x = layer(x)
        for rid in rids:
            self._pos[rid] += t
        return x.data
