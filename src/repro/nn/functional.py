"""Fused neural-network operations with hand-written backward passes.

Composites built from :class:`~repro.nn.tensor.Tensor` primitives would be
correct but slow and numerically fragile; the operations that dominate a
transformer get fused implementations here (matching what PyTorch kernels
do): numerically-stable softmax / log-softmax, LayerNorm, GELU (tanh
approximation, as used by GPT), fused cross-entropy, a single-node
``linear``, the attention-core ``masked_softmax`` (scale + causal mask +
softmax in one node), dropout with an explicit RNG, and helpers for
masking and concatenation.

Each fused op records **one** autograd node where the primitive
composition would record many; the ``*_unfused`` reference implementations
at the bottom of this module are those compositions, kept for gradient
checking (``tests/test_nn_fused.py``) and for the fused-vs-unfused rows of
``benchmarks/bench_wallclock.py``.

Backward closures allocate fresh gradient arrays and hand them to
``Tensor._accumulate_owned`` (ownership transfer, no defensive copy) —
see the hot-path contract in :mod:`repro.nn.tensor`.  That contract is
checked statically by lint rule **REP001** (``python -m repro.analysis
lint``) and dynamically by the opt-in autograd sanitizer
(:func:`repro.analysis.sanitize`); never pass the upstream gradient ``g``
or a view of a parent's ``.data`` to the owned variant.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..perf.counters import counters as _counters
from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "layer_norm",
    "cross_entropy",
    "masked_softmax",
    "dropout",
    "embedding",
    "where_mask",
    "concat",
    "linear",
    "softmax_unfused",
    "log_softmax_unfused",
    "gelu_unfused",
    "layer_norm_unfused",
    "cross_entropy_unfused",
    "linear_unfused",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    if _counters.enabled:
        _counters.bump("softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted, out=shifted)  # shifted is fresh: reuse in place
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray, a=x, out=out_data, axis=axis) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (g * out).sum(axis=axis, keepdims=True)
        a._accumulate_owned(out * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    if _counters.enabled:
        _counters.bump("log_softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(g: np.ndarray, a=x, out=out_data, axis=axis) -> None:
        softmax_x = np.exp(out)
        softmax_x *= g.sum(axis=axis, keepdims=True)
        a._accumulate_owned(g - softmax_x)

    return Tensor._make(out_data, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (GPT-2's activation).

    The cubic is expanded into multiplications: NumPy's ``x ** 3`` takes a
    scalar-power path roughly two orders of magnitude slower than two
    multiplies, and this op sits on the hottest path of every MLP block.
    """
    if _counters.enabled:
        _counters.bump("gelu")
    xd = x.data
    x_sq = xd * xd
    inner = _GELU_C * (xd + 0.044715 * (x_sq * xd))
    t = np.tanh(inner, out=inner)  # inner is fresh: reuse in place
    out_data = 0.5 * xd * (1.0 + t)

    def backward(g: np.ndarray, a=x, t=t, xd=xd, x_sq=x_sq) -> None:
        dinner = _GELU_C * (1.0 + (3 * 0.044715) * x_sq)
        grad = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        grad *= g
        a._accumulate_owned(grad)

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last dimension with affine parameters — one node
    computing mean/variance/normalization with a closed-form backward."""
    if _counters.enabled:
        _counters.bump("layer_norm")
    xd = x.data
    # The ufunc sequence of np.mean + np.var (bit-identical to them), minus
    # var's second mean and the Python of numpy's _methods wrappers.
    n = xd.shape[-1]
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / n
    centered = xd - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = np.multiply(centered, inv_std, out=centered)  # fresh: reuse
    out_data = x_hat * weight.data + bias.data

    def backward(g: np.ndarray, a=x, w=weight, b=bias,
                 x_hat=x_hat, inv_std=inv_std) -> None:
        if w.requires_grad:
            axes = tuple(range(g.ndim - 1))
            w._accumulate_owned((g * x_hat).sum(axis=axes))
        if b.requires_grad:
            axes = tuple(range(g.ndim - 1))
            b._accumulate_owned(g.sum(axis=axes))
        if a.requires_grad:
            gw = g * w.data
            term2 = gw.mean(axis=-1, keepdims=True)
            term3 = x_hat * (gw * x_hat).mean(axis=-1, keepdims=True)
            gw -= term2
            gw -= term3
            gw *= inv_std
            a._accumulate_owned(gw)

    return Tensor._make(out_data, (x, weight, bias), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy.

    ``logits``: (..., V); ``targets``: integer array matching the leading
    shape.  Fused log-softmax + NLL, averaged over non-ignored positions —
    one graph node, one backward.
    """
    if _counters.enabled:
        _counters.bump("cross_entropy")
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape[:-1]}"
        )
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones_like(flat_targets, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross_entropy over zero valid targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    safe_targets = np.where(mask, flat_targets, 0)
    picked = log_probs[np.arange(flat_targets.size), safe_targets]
    loss = -(picked * mask).sum() / count
    out_data = np.asarray(loss, dtype=logits.dtype)

    def backward(g: np.ndarray, a=logits, log_probs=log_probs,
                 safe_targets=safe_targets, mask=mask, count=count) -> None:
        probs = np.exp(log_probs)
        probs[np.arange(safe_targets.size), safe_targets] -= 1.0
        probs *= (float(g) / count) * mask[:, None]
        a._accumulate_owned(probs.reshape(a.data.shape))

    return Tensor._make(out_data, (logits,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, scale: float = 1.0,
                   fill: float = -1e9) -> Tensor:
    """Fused attention core: ``softmax(where(mask, fill, x * scale))``.

    Replaces the three-node scale -> :func:`where_mask` -> :func:`softmax`
    chain of the attention layer with one node.  Masked positions receive
    ``fill`` (large negative), so their softmax weight underflows to
    exactly 0 and — since the backward is ``scale * s * (g - sum(g*s))`` —
    no gradient flows through them, matching the unfused chain bit for bit.
    """
    if _counters.enabled:
        _counters.bump("masked_softmax")
    mask = np.asarray(mask, dtype=bool)
    xd = x.data
    # Clamp the fill to the dtype's finite range (fp16 cannot hold -1e9).
    fill = max(fill, float(np.finfo(xd.dtype).min))
    fill_v = np.asarray(fill, dtype=xd.dtype)
    if scale != 1.0:
        scores = xd * np.asarray(scale, dtype=xd.dtype)
        np.copyto(scores, fill_v, where=mask)  # scores is fresh
    else:
        scores = np.where(mask, fill_v, xd)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores, out=scores)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray, a=x, out=out_data, scale=scale) -> None:
        dot = (g * out).sum(axis=-1, keepdims=True)
        grad = out * (g - dot)
        if scale != 1.0:
            grad *= np.asarray(scale, dtype=grad.dtype)
        a._accumulate_owned(grad)

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales survivors by ``1/(1-p)`` so inference needs
    no rescaling.  The caller supplies the RNG for determinism."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask

    def backward(g: np.ndarray, a=x, mask=mask) -> None:
        a._accumulate_owned(g * mask)

    return Tensor._make(out_data, (x,), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding indices must be integers")
    out_data = weight.data[ids]

    def backward(g: np.ndarray, w=weight, ids=ids) -> None:
        full = np.zeros_like(w.data)
        np.add.at(full, ids, g)
        w._accumulate_owned(full)

    return Tensor._make(out_data, (weight,), backward)


def where_mask(x: Tensor, mask: np.ndarray, fill: float) -> Tensor:
    """Replace positions where ``mask`` is True with ``fill`` (no gradient
    flows through filled positions) — the causal-attention mask op."""
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, np.asarray(fill, dtype=x.dtype), x.data)

    def backward(g: np.ndarray, a=x, mask=mask) -> None:
        a._accumulate_owned(np.where(mask, 0.0, g))

    return Tensor._make(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` with slice-wise backward."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g: np.ndarray, parts=tensors, sizes=sizes, axis=axis) -> None:
        offset = 0
        for t, size in zip(parts, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                t._accumulate(g[tuple(sl)])
            offset += size

    return Tensor._make(out_data, tensors, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` as a single autograd node.

    ``weight`` uses the PyTorch (out, in) layout; ``bias``, if given, must
    be one-dimensional of length ``out``.  Fusing matters twice over: the
    unfused ``x @ w.swapaxes(-1, -2) + b`` records three nodes, and — much
    worse — the generic matmul backward materializes a *per-batch-element*
    ``(b, in, out)`` weight-gradient stack before reducing it.  Here the
    weight gradient is one ``(out, N) @ (N, in)`` GEMM over the flattened
    leading dimensions.
    """
    if _counters.enabled:
        _counters.bump("linear")
    xd = x.data
    out_data = xd @ weight.data.T
    if bias is not None:
        out_data += bias.data
        parents: Sequence[Tensor] = (x, weight, bias)
    else:
        parents = (x, weight)

    def backward(g: np.ndarray, a=x, w=weight, b=bias) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            x2 = a.data.reshape(-1, a.data.shape[-1])
            w._accumulate_owned(g2.T @ x2)
        if b is not None and b.requires_grad:
            b._accumulate_owned(g2.sum(axis=0))
        if a.requires_grad:
            a._accumulate_owned(g @ w.data)

    return Tensor._make(out_data, parents, backward)


# ===========================================================================
# Unfused reference compositions
# ===========================================================================
# Each mirrors the fused op above using only Tensor primitives (one autograd
# node per elementwise step).  They exist so the fused kernels can be
# verified against an independent derivation of the same gradient, and so
# the benchmark harness can put a number on what fusion buys.

def softmax_unfused(x: Tensor, axis: int = -1) -> Tensor:
    """Primitive-op softmax (max treated as a constant shift)."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_unfused(x: Tensor, axis: int = -1) -> Tensor:
    """Primitive-op log-softmax."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gelu_unfused(x: Tensor) -> Tensor:
    """Primitive-op tanh-approximation GELU."""
    inner = (x + (x * x * x) * 0.044715) * _GELU_C
    return x * (inner.tanh() + 1.0) * 0.5


def layer_norm_unfused(x: Tensor, weight: Tensor, bias: Tensor,
                       eps: float = 1e-5) -> Tensor:
    """Primitive-op LayerNorm over the last dimension."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    x_hat = centered / (var + eps).sqrt()
    return x_hat * weight + bias


def cross_entropy_unfused(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Primitive-op mean cross entropy (no ignore_index support)."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape[:-1]}"
        )
    v = logits.shape[-1]
    flat = logits.reshape(-1, v)
    lp = log_softmax_unfused(flat, axis=-1)
    picked = lp[np.arange(flat.shape[0]), targets.reshape(-1)]
    return -picked.mean()


def linear_unfused(x: Tensor, weight: Tensor,
                   bias: Optional[Tensor] = None) -> Tensor:
    """Primitive-op linear: swapaxes + matmul (+ broadcast add)."""
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    return out
