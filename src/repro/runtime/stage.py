"""A pipeline stage: one rank's contiguous shard of the network.

Implements the ``nn_shard`` object of Algorithms 1-2: the stage owns its
layer modules, runs forward passes keeping the boundary tensors alive per
in-flight microbatch, and runs backward passes that (a) accumulate parameter
gradients and (b) produce the gradient w.r.t. the stage input to send
upstream.  The final stage additionally computes the loss (pre-divided by
the total number of microbatches in the batch — the paper's overflow guard
that also makes the accumulated gradient an exact full-batch mean).

Activation checkpointing (Section V-A) is applied *inside* the stage via
:class:`~repro.nn.checkpoint.CheckpointedStack` with the ``ac = sqrt(N)``
interval rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import (Block, GPTConfig, GPTEmbedding, LayerKVCache, Module,
                  Tensor, build_layer, no_grad, num_layer_slots)
from ..nn.checkpoint import CheckpointedStack, optimal_checkpoint_interval

__all__ = ["partition_layers", "PipelineStage", "ChunkedShard", "build_shard",
           "InferenceStage"]


def partition_layers(n_slots: int, g_inter: int) -> List[Tuple[int, int]]:
    """Split ``n_slots`` layer slots into ``g_inter`` contiguous [start, end)
    ranges, sizes differing by at most one (larger shards first)."""
    if g_inter < 1:
        raise ValueError("g_inter must be >= 1")
    if n_slots < g_inter:
        raise ValueError(
            f"cannot split {n_slots} layers across {g_inter} stages"
        )
    base, extra = divmod(n_slots, g_inter)
    ranges = []
    start = 0
    for i in range(g_inter):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class PipelineStage:
    """One rank's ``nn_shard``."""

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
        blocks = self.layers[self._blocks_start:self._blocks_end]
        if checkpoint_activations and blocks:
            interval = optimal_checkpoint_interval(cfg.n_layer, len(blocks))
            self._block_runner: Optional[CheckpointedStack] = \
                CheckpointedStack(blocks, interval)
        else:
            self._block_runner = None

        #: per-microbatch saved boundary tensors: mb -> (input, output)
        self._inflight: Dict[int, Tuple[Optional[Tensor], Tensor]] = {}
        #: per-microbatch loss value (last stage only)
        self.microbatch_losses: Dict[int, float] = {}

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
    def _run_layers(self, x):
        # leading non-block layer (embedding)
        for layer in self.layers[:self._blocks_start]:
            x = layer(x)
        if self._block_runner is not None:
            x = self._block_runner(x)
        else:
            for layer in self.layers[self._blocks_start:self._blocks_end]:
                x = layer(x)
        for layer in self.layers[self._blocks_end:]:
            if self.is_last:
                break  # the head is applied inside forward() with targets
            x = layer(x)
        return x

    def forward(self, microbatch: int, data: np.ndarray,
                targets: Optional[np.ndarray] = None,
                loss_divisor: float = 1.0,
                loss_scale: float = 1.0) -> np.ndarray:
        """Run this stage's forward pass for one microbatch.

        * first stage: ``data`` is the integer token array;
        * other stages: ``data`` is the boundary activation from upstream.
        * last stage: requires ``targets``; computes the (pre-divided) loss,
          records its value, and returns nothing to forward further.

        Returns the boundary activation to send downstream (or the loss
        value array for the last stage, kept for symmetric bookkeeping).
        """
        if microbatch in self._inflight:
            raise RuntimeError(
                f"microbatch {microbatch} already in flight on stage "
                f"{self.stage_index}"
            )
        if self.is_first:
            x_in: Optional[Tensor] = None
            x = np.asarray(data)
        else:
            x_in = Tensor(np.asarray(data, dtype=np.float32),
                          requires_grad=True)
            x = x_in

        out = self._run_layers(x)

        if self.is_last:
            if targets is None:
                raise ValueError("last stage forward requires targets")
            head = self.layers[-1]
            # Pre-divide by the total microbatch count (Section IV-B) and
            # apply the mixed-precision loss scale (Section II-A).
            loss = head.loss(out, targets) * (loss_scale / loss_divisor)
            self.microbatch_losses[microbatch] = \
                loss.item() * loss_divisor / loss_scale
            self._inflight[microbatch] = (x_in, loss)
            return loss.data
        self._inflight[microbatch] = (x_in, out)
        return out.data

    def backward(self, microbatch: int,
                 grad: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Run this stage's backward pass for one microbatch.

        ``grad`` is the gradient w.r.t. this stage's output (None for the
        last stage, whose root is the scalar loss — Algorithm 2's
        ``BACKWARD(1)``).  Returns the gradient w.r.t. the stage input, or
        None for the first stage.
        """
        if microbatch not in self._inflight:
            raise RuntimeError(
                f"backward for unknown microbatch {microbatch} on stage "
                f"{self.stage_index}"
            )
        x_in, out = self._inflight.pop(microbatch)
        if self.is_last:
            out.backward()  # scalar loss
        else:
            if grad is None:
                raise ValueError("non-last stage backward requires a gradient")
            out.backward(np.asarray(grad, dtype=np.float32))
        if x_in is None:
            return None
        g = x_in.grad
        x_in.zero_grad()
        return g


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


def build_shard(cfg: GPTConfig, grid, i: int, n_virtual: int,
                checkpoint_activations: bool = False):
    """Pipeline rank ``i``'s ``nn_shard``, for the trainer and a process
    worker alike: the group's sharded stage when ``grid.g_intra > 1``,
    otherwise the virtual stages ``v % g_inter == i`` of ``n_virtual`` —
    a plain :class:`PipelineStage` when that is one chunk, a
    :class:`ChunkedShard` when several."""
    if grid.g_intra > 1:
        from .tp import TensorParallelStage  # tp builds on this module
        return TensorParallelStage(cfg, i, grid.g_inter, grid.g_intra)
    chunks = {v: PipelineStage(cfg, v, n_virtual,
                               checkpoint_activations=checkpoint_activations)
              for v in range(i, n_virtual, grid.g_inter)}
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
