"""Bucketed CPU-offload optimizer — the functional twin of Section V-B.

The paper's memory optimization keeps only the half-precision parameters and
gradients on the GPU; the fp32 master weights and the Adam state vectors
live in CPU memory and are streamed through the GPU in fixed-size *buckets*
(``bsize`` parameters at a time), reusing one set of device buffers.

This class implements that dataflow with real numerics over a flat
parameter space:

* ``host_master`` / ``host_exp_avg`` / ``host_exp_avg_sq`` — the CPU-resident
  fp32 arrays (``4 phi`` + ``8 phi`` bytes);
* ``device_half`` — the fp16 weights that stay on the GPU (``2 phi``);
* per-step device working set: one fp32 master bucket + two fp32 state
  buckets + one fp32 descaled-gradient bucket = ``16 * bsize`` bytes,
  matching the paper's accounting (and its ``4 phi + 16 bsize`` total).

Because Adam is elementwise, the bucketed update is numerically identical
to a monolithic :class:`~repro.nn.mixed_precision.MixedPrecisionAdamW`
step — a property the tests assert directly.  Byte counters for
host<->device traffic let the performance model and the Fig. 6/8
experiments share one source of truth.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn import LossScaler
from ..nn.optim import adam_step
from ..nn.tensor import Tensor

__all__ = ["BucketedOffloadAdamW"]


class BucketedOffloadAdamW:
    """AdamW with CPU-offloaded state applied in ``bsize``-parameter buckets."""

    def __init__(self, params: Iterable[Tensor], bucket_size: int,
                 lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01,
                 scaler: Optional[LossScaler] = None):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer over an empty parameter list")
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.bucket_size = bucket_size
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.scaler = scaler or LossScaler(dynamic=False, init_scale=1.0)

        # Flat layout: parameter p occupies [offsets[p], offsets[p+1]).
        sizes = [p.size for p in self.params]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.numel = int(self.offsets[-1])

        # "CPU memory": fp32 master weights + Adam state.
        self.host_master = np.concatenate(
            [p.data.reshape(-1).astype(np.float32) for p in self.params]
        )
        self.host_exp_avg = np.zeros(self.numel, dtype=np.float32)
        self.host_exp_avg_sq = np.zeros(self.numel, dtype=np.float32)
        # "GPU memory": the fp16 weights that stay resident.
        self.device_half = self.host_master.astype(np.float16)

        self.steps = 0
        self.skipped_steps = 0
        #: cumulative host<->device traffic, bytes
        self.h2d_bytes = 0
        self.d2h_bytes = 0

    # -- bookkeeping ------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return -(-self.numel // self.bucket_size)

    def device_optimizer_bytes(self) -> int:
        """Peak *optimizer-phase* device working set: 16 * bsize bytes
        (fp32 master + exp_avg + exp_avg_sq buckets and the descale buffer,
        4 bytes each) — paper Section V-B."""
        b = min(self.bucket_size, self.numel)
        return 16 * b

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _flat_grads_half(self) -> np.ndarray:
        """Collect the fp16 gradients as one flat device array."""
        parts = []
        for p in self.params:
            if p.grad is None:
                parts.append(np.zeros(p.size, dtype=np.float16))
            else:
                parts.append(p.grad.reshape(-1).astype(np.float16))
        return np.concatenate(parts)

    def _scatter_master_to_params(self) -> None:
        for p, a, b in zip(self.params, self.offsets, self.offsets[1:]):
            p.data[...] = self.host_master[a:b].reshape(p.data.shape)

    # -- the step -----------------------------------------------------------
    def step(self, half_grads: Optional[np.ndarray] = None) -> bool:
        """Apply one bucketed update.

        ``half_grads``: flat fp16 gradient array (defaults to gathering the
        ``.grad`` of the wrapped parameters).  Returns False when an
        overflow was detected (step skipped, loss scale reduced).
        """
        if half_grads is None:
            half_grads = self._flat_grads_half()
        if half_grads.shape != (self.numel,):
            raise ValueError(
                f"expected flat gradient of {self.numel} elements, got "
                f"{half_grads.shape}"
            )
        # np.isfinite handles fp16 natively — no fp32 copy of the flat
        # gradient just to run the overflow check.
        if not np.isfinite(half_grads).all():
            self.scaler.update(found_overflow=True)
            self.skipped_steps += 1
            return False
        self.steps += 1
        self.step_buckets(half_grads, 0, self.numel)
        self.finish_step()
        return True

    def step_buckets(self, half_grads: np.ndarray, start: int, end: int,
                     undo: Optional[np.ndarray] = None) -> None:
        """Apply the current step (``steps`` already advanced) to the
        buckets covering ``[start, end)``; ``start`` lies on a bucket
        boundary.  :meth:`step` runs every bucket at once; the
        data-parallel step (:mod:`repro.runtime.column`) runs each reduced
        chunk's buckets as the chunk arrives, before the grid has agreed
        that no gradient overflowed — so with ``undo`` (a ``(3, numel)``
        fp32 array) the range's master weights and moments are saved first
        and :meth:`undo_buckets` can take the update back."""
        if undo is not None:
            undo[0, start:end] = self.host_master[start:end]
            undo[1, start:end] = self.host_exp_avg[start:end]
            undo[2, start:end] = self.host_exp_avg_sq[start:end]
        inv_scale = 1.0 / self.scaler.scale
        bsize = self.bucket_size
        for lo in range(start, end, bsize):
            hi = min(lo + bsize, end)
            n = hi - lo
            # Fetch the bucket to the device (master + both state vectors).
            self.h2d_bytes += 12 * n
            master = self.host_master[lo:hi]
            m = self.host_exp_avg[lo:hi]
            v = self.host_exp_avg_sq[lo:hi]
            # Descale gradients into the fp32 scratch buffer (4 * bsize).
            g32 = half_grads[lo:hi].astype(np.float32) * inv_scale
            adam_step(master, g32, m, v, self.steps, self.lr,
                      self.beta1, self.beta2, self.eps,
                      self.weight_decay, decoupled=True)
            # Offload the updated bucket back to the host.
            self.d2h_bytes += 12 * n
            # Refresh the resident fp16 weights.
            self.device_half[lo:hi] = master.astype(np.float16)

    def undo_buckets(self, undo: np.ndarray, start: int, end: int) -> None:
        """Restore ``[start, end)`` from what :meth:`step_buckets` saved
        in ``undo`` (the fp16 weights are recast from the masters)."""
        self.host_master[start:end] = undo[0, start:end]
        self.host_exp_avg[start:end] = undo[1, start:end]
        self.host_exp_avg_sq[start:end] = undo[2, start:end]
        self.device_half[start:end] = \
            self.host_master[start:end].astype(np.float16)

    def finish_step(self) -> None:
        """Close a step whose every bucket ran: the parameters take the
        new master weights."""
        self._scatter_master_to_params()
        self.scaler.update(found_overflow=False)
