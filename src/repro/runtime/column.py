"""Algorithm 1's end of a batch, as one rank program: the data-parallel
column reduce (line 13) and the rank's own optimizer step.

Every lead rank ``g^{i,j}`` runs :meth:`ColumnStep.run` once its pipeline
walk is over.  It is a plain ``send`` + ``yield RECV`` generator like the
walks in :mod:`repro.runtime.rankprog`, with two placements: the
cooperative trainer drives every rank's copy on one
:class:`~repro.runtime.transport.RankTransport`, and a process worker
drives its own over its shared-memory rings
(:mod:`repro.runtime.parallel`) — the same code, so the two backends
reduce and step bit for bit alike.

The reduce sums in the fixed replica order ``0..g-1`` of the column,
whatever the arrival order.  Work is split by ownership: slot (fp32
parameter, or fp16 chunk) ``c`` belongs to replica ``c mod g``.  Each
replica sends its contribution to the owner, the owner stacks the ``g``
contributions in replica order and sums them with one ``np.sum`` over
the stacked axis, then sends the result back to every replica.

* ``precision="fp32"`` (:class:`~repro.nn.AdamW`): one message per peer
  carries the peer's slots, and the sum is per parameter over the
  replicas that have a gradient; then AdamW steps.
* mixed precision (:class:`~repro.nn.MixedPrecisionAdamW`): gradients
  are cast to one fp16 row and reduced *in half precision* in
  ``coarsening_k * bucket_size`` chunks, one message per chunk (Section
  V-C).  Overflow is one OR over the whole grid: each column knows its
  own verdict from its reduced chunks, and the verdict travels up the
  pipeline chain ``g^{0,j} -> ... -> g^{G_inter-1,j}`` and back down, so
  every rank skips or steps in lockstep.
* CPU offload (:class:`~repro.runtime.offload.BucketedOffloadAdamW`):
  each reduced chunk's buckets are stepped as soon as the chunk arrives,
  overlapping the rest of the reduce (Section V-B, Fig. 7).  The grid's
  overflow verdict comes only after the last chunk, so those bucket
  steps are speculative: the state they touch is saved first and put
  back when the verdict is "skip".

When tracing, each rank records ``allreduce`` (fp32) or
``allreduce-chunk{c}`` spans on its ``aux`` stream — the wait from the
previous chunk's arrival to this one's — and ``optimizer`` spans on
``compute``; under offload the two interleave as in the paper's Fig. 7.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from ..nn import AdamW, LossScaler, MixedPrecisionAdamW, Tensor
from ..obs import Tracer
from .grid import RankGrid
from .offload import BucketedOffloadAdamW
from .transport import RECV

__all__ = ["ColumnStep", "TAG_DP", "TAG_DP_SUM", "TAG_OVERFLOW",
           "make_optimizer"]

#: a replica's contribution to the slots a column peer owns
TAG_DP = "dp"
#: an owner's reduced slots, back to every replica
TAG_DP_SUM = "dp-sum"
#: the grid-wide overflow verdict, along the pipeline chain and back
TAG_OVERFLOW = "overflow"

#: collective sink: record(rank, op, key)
RecordFn = Callable[[int, str, tuple], None]


def make_optimizer(params: Sequence[Tensor], precision: str, offload: bool,
                   bucket_size: int, scaler: LossScaler, **hparams):
    """The rank optimizer a trainer configuration asks for — built the
    same way in the trainer and in a process worker."""
    if offload:
        return BucketedOffloadAdamW(params, bucket_size=bucket_size,
                                    scaler=scaler, **hparams)
    if precision == "mixed":
        return MixedPrecisionAdamW(params, scaler=scaler, **hparams)
    return AdamW(params, **hparams)


class ColumnStep:
    """One lead rank's share of its column's reduce, and its optimizer.

    Built once per (stage, optimizer) pair; the fp16 row, the reduced
    total and the owner's stacking buffers are allocated here and reused
    every batch.  ``chunk`` is ``coarsening_k * bucket_size`` (unused in
    fp32).  After :meth:`run` finishes, :attr:`applied` says whether the
    optimizer stepped.
    """

    def __init__(self, grid: RankGrid, rank: int, params: Sequence[Tensor],
                 opt, chunk: int):
        self.grid = grid
        self.rank = rank
        self.params: List[Tensor] = list(params)
        self.opt = opt
        i, j = grid.coord_of(rank)
        self.stage_index = i
        self.column = grid.data_parallel_ranks(i)
        self.me = j
        self.mixed = not isinstance(opt, AdamW)
        self.applied = True
        g = len(self.column)
        if not self.mixed:
            self.n_chunks = 1
            return
        numel = sum(p.size for p in self.params)
        self.row = np.empty(numel, dtype=np.float16)
        self.total = np.empty(numel, dtype=np.float16)
        self.row_views = []
        #: per-parameter views of the reduced total (MixedPrecisionAdamW)
        self.halves = []
        offset = 0
        for p in self.params:
            shape = p.data.shape
            self.row_views.append(self.row[offset:offset + p.size]
                                  .reshape(shape))
            self.halves.append(self.total[offset:offset + p.size]
                               .reshape(shape))
            offset += p.size
        size = max(1, chunk)
        self.bounds = [(a, min(a + size, numel))
                       for a in range(0, numel, size)]
        self.n_chunks = len(self.bounds)
        #: owned chunk -> (g, chunk) stack of the replicas' rows
        self.stacks: Dict[int, np.ndarray] = {
            c: np.empty((g, b - a), dtype=np.float16)
            for c, (a, b) in enumerate(self.bounds) if c % g == j}
        self.undo = (np.empty((3, numel), dtype=np.float32)
                     if isinstance(opt, BucketedOffloadAdamW) else None)

    # -- the rank program --------------------------------------------------
    def run(self, send: Callable, tracer: Optional[Tracer] = None,
            record: Optional[RecordFn] = None) -> Generator:
        """Reduce this rank's gradients with its column, agree on overflow
        with the grid (mixed precision), and step.  ``send(dst, tag,
        microbatch, data)`` is the transport's, source bound; ``record``
        receives the collective records the protocol verifier checks.
        Returns (and sets :attr:`applied`) whether the optimizer stepped.
        """
        if tracer is not None and not tracer.enabled:
            tracer = None
        if self.mixed:
            return self._run_mixed(send, tracer, record)
        return self._run_fp32(send, tracer, record)

    def _optimizer_span(self, tracer: Optional[Tracer], **meta):
        """An ``optimizer`` span on this rank's compute stream (a no-op
        context without a tracer)."""
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(self.rank, "compute", "optimizer",
                           category="optimizer", **meta)

    def _run_fp32(self, send: Callable, tracer: Optional[Tracer],
                  record: Optional[RecordFn]) -> Generator:
        g, me = len(self.column), self.me
        if g > 1:
            params = self.params
            if record is not None:
                for slot in range(len(params)):
                    record(self.rank, "allreduce_fp32",
                           (self.stage_index, slot))
            t0 = tracer.now() if tracer is not None else 0.0
            owners = [q for q in range(g) if params[q::g]]
            for q in owners:
                if q != me:
                    send(self.column[q], TAG_DP, 0,
                         [p.grad for p in params[q::g]])
            # an owner waits for every contribution, and everyone for
            # every other owner's sums
            parts: Dict[int, list] = {me: [p.grad for p in params[me::g]]}
            want = g if me in owners else 1
            sums_due = len(owners) - (me in owners)
            while len(parts) < want or sums_due:
                pkt = yield RECV
                q = self.column.index(pkt.src)
                if pkt.tag == TAG_DP:
                    parts[q] = pkt.data
                    if len(parts) < g:
                        continue
                    # Every contribution is in: sum my slots in replica
                    # order and hand the sums back.
                    sums = []
                    for k in range(len(parts[me])):
                        grads = [parts[r][k] for r in range(g)
                                 if parts[r][k] is not None]
                        sums.append(np.sum(grads, axis=0) if grads
                                    else None)
                    for q2, peer in enumerate(self.column):
                        if q2 != me:
                            send(peer, TAG_DP_SUM, 0, sums)
                    _set_grads(params[me::g], sums)
                elif pkt.tag == TAG_DP_SUM:
                    _set_grads(params[q::g], pkt.data)
                    sums_due -= 1
                else:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"rank {self.rank} received unexpected packet {pkt}")
            if tracer is not None:
                tracer.record(self.rank, "aux", "allreduce", t0,
                              tracer.now(), category="allreduce",
                              nbytes=sum(p.data.nbytes for p in params),
                              ranks=g)
        with self._optimizer_span(tracer):
            self.opt.step()
        self.applied = True
        return True

    def _run_mixed(self, send: Callable, tracer: Optional[Tracer],
                   record: Optional[RecordFn]) -> Generator:
        g, me, rank = len(self.column), self.me, self.rank
        bounds, total = self.bounds, self.total
        offload = self.undo is not None
        # Values beyond the fp16 range legitimately become inf here — that
        # is precisely what the overflow verdict detects.
        with np.errstate(over="ignore"):
            for dst, p in zip(self.row_views, self.params):
                if p.grad is None:
                    dst[...] = np.float16(0)
                else:
                    np.copyto(dst, p.grad, casting="unsafe")
        if record is not None:
            for c in range(self.n_chunks):
                record(rank, "allreduce_fp16", (self.stage_index, c))
        if offload:
            self.opt.steps += 1  # taken back below on a "skip" verdict
        stepped: List[int] = []
        overflow = False
        t_prev = tracer.now() if tracer is not None else 0.0

        def arrived(c: int) -> None:
            """Chunk ``c`` of the total is final on this rank."""
            nonlocal overflow, t_prev
            a, b = bounds[c]
            if tracer is not None:
                now = tracer.now()
                tracer.record(rank, "aux", f"allreduce-chunk{c}", t_prev,
                              now, category="allreduce", nbytes=2 * (b - a),
                              chunk=c, ranks=g)
                t_prev = now
            if not np.isfinite(total[a:b]).all():
                overflow = True
            if offload and not overflow:
                stepped.append(c)
                with self._optimizer_span(tracer, chunk=c):
                    self.opt.step_buckets(total, a, b, undo=self.undo)

        def reduce_owned(c: int) -> None:
            a, b = bounds[c]
            with np.errstate(invalid="ignore", over="ignore"):
                np.sum(self.stacks[c], axis=0, dtype=np.float16,
                       out=total[a:b])
            for q, peer in enumerate(self.column):
                if q != me:
                    send(peer, TAG_DP_SUM, c, total[a:b])
            arrived(c)

        have: Dict[int, int] = {}  # owned chunk -> contributions stacked
        for c, (a, b) in enumerate(bounds):
            owner = c % g
            if owner != me:
                send(self.column[owner], TAG_DP, c, self.row[a:b])
            else:
                self.stacks[c][me] = self.row[a:b]
                have[c] = 1
                if g == 1:
                    reduce_owned(c)
        flags: Dict[tuple, bool] = {}
        pending = sum(1 for c in range(self.n_chunks) if c % g != me) \
            + sum(1 for c in have if have[c] < g)
        while pending:
            pkt = yield RECV
            c = pkt.microbatch
            if pkt.tag == TAG_DP:
                self.stacks[c][self.column.index(pkt.src)] = pkt.data
                have[c] += 1
                if have[c] == g:
                    pending -= 1
                    reduce_owned(c)
            elif pkt.tag == TAG_DP_SUM:
                a, b = bounds[c]
                total[a:b] = pkt.data
                pending -= 1
                arrived(c)
            else:  # a pipeline neighbour's column finished first
                flags[_flag_key(rank, pkt)] = pkt.data

        # The grid-wide OR: up the pipeline chain, then the final verdict
        # back down it.
        prev = self.grid.prev_in_pipeline(rank)
        nxt = self.grid.next_in_pipeline(rank)
        if prev is not None:
            while (prev, 0) not in flags:
                pkt = yield RECV
                flags[_flag_key(rank, pkt)] = pkt.data
            overflow = overflow or flags.pop((prev, 0))
        if nxt is not None:
            send(nxt, TAG_OVERFLOW, 0, overflow)
            while (nxt, 1) not in flags:
                pkt = yield RECV
                flags[_flag_key(rank, pkt)] = pkt.data
            overflow = flags.pop((nxt, 1))
        if prev is not None:
            send(prev, TAG_OVERFLOW, 1, overflow)
        self.applied = not overflow
        if offload and overflow:
            for c in stepped:
                self.opt.undo_buckets(self.undo, *bounds[c])
            self.opt.steps -= 1
        elif not overflow:
            with self._optimizer_span(tracer):
                if offload:
                    self.opt.finish_step()
                else:
                    self.opt.step(self.halves)
        return self.applied


def _flag_key(rank: int, pkt) -> tuple:
    """(sender, direction) of an overflow verdict: 0 up the chain, 1 the
    final answer coming back down."""
    if pkt.tag != TAG_OVERFLOW:  # pragma: no cover - defensive
        raise RuntimeError(f"rank {rank} received unexpected packet {pkt}")
    return pkt.src, pkt.microbatch


def _set_grads(params: Sequence[Tensor], sums: Sequence) -> None:
    """Each replica takes a reduced gradient into its own buffer."""
    for p, total in zip(params, sums):
        if total is None:
            continue
        if p.grad is None:
            p.grad = total.copy()
        else:
            np.copyto(p.grad, total)
