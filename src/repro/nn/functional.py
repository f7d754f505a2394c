"""Fused neural-network operations with hand-written backward passes.

Composites built from :class:`~repro.nn.tensor.Tensor` primitives would be
correct but slow and numerically fragile; the operations that dominate a
transformer get fused implementations here (matching what PyTorch kernels
do): numerically-stable softmax / log-softmax, LayerNorm, GELU (tanh
approximation, as used by GPT), fused cross-entropy, a single-node
``linear``, the attention-core ``masked_softmax`` (scale + causal mask +
softmax in one node), dropout with an explicit RNG, helpers for masking
and concatenation — and :func:`transformer_block`, the whole pre-norm
block as one node.

Each fused op records **one** autograd node where the primitive
composition would record many; the ``*_unfused`` reference implementations
at the bottom of this module are those compositions, kept for gradient
checking (``tests/test_nn_fused.py``) and as the bit-exact reference of
the block kernel (``tests/test_nn_block.py``).

The arithmetic of ``linear``, ``layer_norm``, ``gelu``, ``masked_softmax``
and ``dropout`` lives in raw-array ``_<op>_fwd`` / ``_<op>_bwd`` helpers
(no ``Tensor``, no closure).  The single-op node and the block kernel both
call them, so each formula is written once and a block is bit-identical
to the composition of its ops; the forward helpers also book the
:mod:`repro.perf` kernel counters, so a block counts the same ``linear`` /
``layer_norm`` / ``gelu`` / ``masked_softmax`` calls either way.

The backward helpers that reduce over rows (``linear``'s weight and bias
gradients, ``layer_norm``'s affine gradients, the cross-entropy mean)
read axis 0 as a *member* axis: a group of microbatches stacked on a new
leading axis (:func:`block_forward`), each reduced on its own.  A
single-op node is a group of one (``g[None]``), so a pipeline stage can
run ``k`` microbatches through one set of NumPy calls and still hand
back, member by member, the gradients ``k`` separate passes would.

Backward closures allocate fresh gradient arrays and hand them to
``Tensor._accumulate_owned`` (ownership transfer, no defensive copy) —
see the hot-path contract in :mod:`repro.nn.tensor`.  That contract is
checked statically by lint rule **REP001** (``python -m repro.analysis
lint``) and dynamically by the opt-in autograd sanitizer
(:func:`repro.nn.sanitizer.sanitize`); never pass the upstream gradient ``g``
or a view of a parent's ``.data`` to the owned variant.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..perf.counters import counters as _counters
from .tensor import Tensor, as_tensor, is_grad_enabled

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
    "transformer_block",
    "block_forward",
    "block_backward",
    "accumulate_members",
    "softmax_unfused",
    "log_softmax_unfused",
    "gelu_unfused",
    "layer_norm_unfused",
    "cross_entropy_unfused",
    "linear_unfused",
    "attention_unfused",
    "mlp_unfused",
    "transformer_block_unfused",
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
    xd = x.data
    out_data, t, x_sq = _gelu_fwd(xd)

    def backward(g: np.ndarray, a=x, t=t, xd=xd, x_sq=x_sq) -> None:
        a._accumulate_owned(_gelu_bwd(g, xd, t, x_sq))

    return Tensor._make(out_data, (x,), backward)


def _gelu_fwd(xd: np.ndarray):
    """-> (out, tanh term, x squared); the last two are saved."""
    if _counters.enabled:
        _counters.bump("gelu")
    x_sq = xd * xd
    inner = _GELU_C * (xd + 0.044715 * (x_sq * xd))
    t = np.tanh(inner, out=inner)  # inner is fresh: reuse in place
    return 0.5 * xd * (1.0 + t), t, x_sq


def _gelu_bwd(g: np.ndarray, xd: np.ndarray, t: np.ndarray,
              x_sq: np.ndarray) -> np.ndarray:
    dinner = _GELU_C * (1.0 + (3 * 0.044715) * x_sq)
    grad = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
    grad *= g
    return grad


_LN_EPS = 1e-5


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = _LN_EPS) -> Tensor:
    """LayerNorm over the last dimension with affine parameters — one node
    computing mean/variance/normalization with a closed-form backward."""
    out_data, x_hat, inv_std = _layer_norm_fwd(x.data, weight.data,
                                               bias.data, eps)

    def backward(g: np.ndarray, a=x, w=weight, b=bias,
                 x_hat=x_hat, inv_std=inv_std) -> None:
        da, dw, db = _layer_norm_bwd(g[None], x_hat[None], inv_std[None],
                                     w.data, a.requires_grad,
                                     w.requires_grad, b.requires_grad)
        if dw is not None:
            w._accumulate_owned(dw[0])
        if db is not None:
            b._accumulate_owned(db[0])
        if da is not None:
            a._accumulate_owned(da[0])

    return Tensor._make(out_data, (x, weight, bias), backward)


def _layer_norm_fwd(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray,
                    eps: float):
    """-> (out, x_hat, inv_std); the last two are saved.

    The ufunc sequence of np.mean + np.var (bit-identical to them on fp32
    and fp64), minus var's second mean and the Python of numpy's _methods
    wrappers.
    """
    if _counters.enabled:
        _counters.bump("layer_norm")
    n = xd.shape[-1]
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / n
    centered = xd - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = np.multiply(centered, inv_std, out=centered)  # fresh: reuse
    return x_hat * wd + bd, x_hat, inv_std


def _layer_norm_bwd(g: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray,
                    wd: np.ndarray, need_x: bool = True,
                    need_w: bool = True, need_b: bool = True):
    """-> (dx, dw, db), each fresh, None where not needed.

    Axis 0 of ``g`` is the member axis (see :func:`block_forward`):
    ``dw`` / ``db`` are per member, ``(k, h)``.

    The two row means are ``np.add.reduce(...) / n`` — the ufunc sequence
    ``.mean`` runs, bit-identical to it on fp32 and fp64, without the
    Python of numpy's ``_methods`` wrappers.  As in the forward, fp16 is
    the exception: its ``.mean`` accumulates in fp32 and this does not;
    no runtime path normalises fp16 (fp16 exists on the wire and in the
    data-parallel reduction only).
    """
    axes = tuple(range(1, g.ndim - 1))
    dw = (g * x_hat).sum(axis=axes) if need_w else None
    db = g.sum(axis=axes) if need_b else None
    if not need_x:
        return None, dw, db
    n = g.shape[-1]
    gw = g * wd
    term2 = np.add.reduce(gw, axis=-1, keepdims=True) / n
    term3 = x_hat * (np.add.reduce(gw * x_hat, axis=-1, keepdims=True) / n)
    gw -= term2
    gw -= term3
    gw *= inv_std
    return gw, dw, db


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy.

    ``logits``: (..., V); ``targets``: integer array matching the leading
    shape.  Fused log-softmax + NLL, averaged over non-ignored positions —
    one graph node, one backward.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape[:-1]}"
        )
    losses, saved = _cross_entropy_fwd(logits.data[None], targets[None],
                                       ignore_index)
    out_data = losses.reshape(())

    def backward(g: np.ndarray, a=logits, saved=saved) -> None:
        probs = _cross_entropy_bwd(np.reshape(g, 1), saved)
        a._accumulate_owned(probs.reshape(a.data.shape))

    return Tensor._make(out_data, (logits,), backward)


def _cross_entropy_fwd(logits: np.ndarray, targets: np.ndarray,
                       ignore_index: Optional[int] = None):
    """Member-stacked ``(k, ..., V)`` logits -> (per-member mean losses
    ``(k,)``, what :func:`_cross_entropy_bwd` needs)."""
    if _counters.enabled:
        _counters.bump("cross_entropy")
    k, v = logits.shape[0], logits.shape[-1]
    flat_logits = logits.reshape(k, -1, v)
    flat_targets = targets.reshape(k, -1)
    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones_like(flat_targets, dtype=bool)
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError("cross_entropy over zero valid targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    safe_targets = np.where(mask, flat_targets, 0)
    rows = np.arange(k)[:, None], np.arange(flat_targets.shape[1])
    picked = log_probs[(*rows, safe_targets)]
    losses = -(picked * mask).sum(axis=1) / counts.astype(logits.dtype)
    return losses, (log_probs, safe_targets, mask, counts)


def _cross_entropy_bwd(g: np.ndarray, saved,
                       members: slice = slice(None)) -> np.ndarray:
    """Gradient w.r.t. the flattened logits of ``members``, given each
    member's upstream gradient ``g`` (one value per member)."""
    log_probs, safe_targets, mask, counts = (a[members] for a in saved)
    probs = np.exp(log_probs)
    rows = np.arange(len(probs))[:, None], np.arange(safe_targets.shape[1])
    probs[(*rows, safe_targets)] -= 1.0
    probs *= (g.astype(np.float64) / counts)[:, None, None] \
        * mask[..., None]
    return probs


def masked_softmax(x: Tensor, mask: np.ndarray, scale: float = 1.0,
                   fill: float = -1e9) -> Tensor:
    """Fused attention core: ``softmax(where(mask, fill, x * scale))``.

    Replaces the three-node scale -> :func:`where_mask` -> :func:`softmax`
    chain of the attention layer with one node.  Masked positions receive
    ``fill`` (large negative), so their softmax weight underflows to
    exactly 0 and — since the backward is ``scale * s * (g - sum(g*s))`` —
    no gradient flows through them, matching the unfused chain bit for bit.
    """
    out_data = _masked_softmax_fwd(x.data, mask, scale, fill)

    def backward(g: np.ndarray, a=x, out=out_data, scale=scale) -> None:
        a._accumulate_owned(_masked_softmax_bwd(g, out, scale))

    return Tensor._make(out_data, (x,), backward)


def _masked_softmax_fwd(xd: np.ndarray, mask: np.ndarray, scale: float,
                        fill: float = -1e9) -> np.ndarray:
    if _counters.enabled:
        _counters.bump("masked_softmax")
    mask = np.asarray(mask, dtype=bool)
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
    return e / e.sum(axis=-1, keepdims=True)


def _masked_softmax_bwd(g: np.ndarray, out: np.ndarray,
                        scale: float) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    grad = out * (g - dot)
    if scale != 1.0:
        grad *= np.asarray(scale, dtype=grad.dtype)
    return grad


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales survivors by ``1/(1-p)`` so inference needs
    no rescaling.  The caller supplies the RNG for determinism."""
    mask = _dropout_mask(x.shape, x.dtype, p, rng, training)
    if mask is None:
        return x
    out_data = x.data * mask

    def backward(g: np.ndarray, a=x, mask=mask) -> None:
        a._accumulate_owned(g * mask)

    return Tensor._make(out_data, (x,), backward)


def _dropout_mask(shape, dtype, p: float, rng: np.random.Generator,
                  training: bool) -> Optional[np.ndarray]:
    """The scaled keep mask for one activation (forward and backward are
    both a multiply by it), or None when dropout is the identity — in
    which case nothing is drawn from ``rng``.  One ``(k, ...)`` draw is
    ``k`` draws of ``(...)`` in a row: the mask of a member-stacked
    activation is the masks its members would draw one after another."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(dtype) / keep


def _stream_mask(drop, shape, dtype) -> Optional[np.ndarray]:
    """:func:`_dropout_mask` drawn from a dropout stream — anything with
    ``p`` / ``rng`` / ``training``, i.e. a :class:`~repro.nn.Dropout`."""
    return _dropout_mask(shape, dtype, drop.p, drop.rng, drop.training)


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
    out_data = _linear_fwd(x.data, weight.data,
                           None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray, a=x, w=weight, b=bias) -> None:
        da, dw, db = _linear_bwd(g[None], a.data[None], w.data,
                                 a.requires_grad, w.requires_grad,
                                 b is not None and b.requires_grad)
        if dw is not None:
            w._accumulate_owned(dw[0])
        if db is not None:
            b._accumulate_owned(db[0])
        if da is not None:
            a._accumulate_owned(da[0])

    return Tensor._make(out_data, parents, backward)


def _linear_fwd(xd: np.ndarray, wd: np.ndarray,
                bd: Optional[np.ndarray]) -> np.ndarray:
    if _counters.enabled:
        _counters.bump("linear")
    out = xd @ wd.T
    if bd is not None:
        out += bd
    return out


def _linear_bwd(g: np.ndarray, xd: np.ndarray, wd: np.ndarray,
                need_x: bool = True, need_w: bool = True,
                need_b: bool = True):
    """-> (dx, dw, db), each fresh, None where not needed.

    Axis 0 is the member axis: ``dw`` is ``(k, out, in)``, one batched
    ``(k, out, N) @ (k, N, in)`` GEMM whose member ``i`` is the GEMM a
    width-1 pass of member ``i`` runs, and ``db`` is ``(k, out)``.
    Flattening the members into ``N`` instead would regroup the sum.
    """
    k = g.shape[0]
    g3 = g.reshape(k, -1, g.shape[-1])
    dw = g3.swapaxes(1, 2) @ xd.reshape(k, -1, xd.shape[-1]) \
        if need_w else None
    db = g3.sum(axis=1) if need_b else None
    return (g @ wd if need_x else None), dw, db


def transformer_block(x: Tensor, ln1_w: Tensor, ln1_b: Tensor,
                      qkv_w: Tensor, qkv_b: Tensor,
                      proj_w: Tensor, proj_b: Tensor,
                      ln2_w: Tensor, ln2_b: Tensor,
                      fc_w: Tensor, fc_b: Tensor,
                      out_w: Tensor, out_b: Tensor,
                      n_head: int, mask: np.ndarray, attn_drop, mlp_drop,
                      caches=None) -> Tensor:
    """A pre-norm transformer block as a single autograd node::

        x = x + drop(proj(attend(qkv(ln1(x)))))
        x = x + drop(out(gelu(fc(ln2(x)))))

    The node is :func:`block_forward` / :func:`block_backward` on a
    group of one: the raw-array helpers of the ops above in that order —
    the same ufunc / GEMM sequence, on the same memory layouts, as
    :func:`transformer_block_unfused` — with what the one hand-written
    backward needs saved; no ``Tensor`` per intermediate, no closure per
    op, no reshape / transpose / index nodes.  Output, input gradient and
    all twelve parameter gradients equal the composition's bit for bit
    (``tests/test_nn_block.py``).

    ``mask`` is the ``(seq_len, seq_len)`` causal mask (True = hidden).
    ``attn_drop`` / ``mlp_drop`` are the block's two dropout streams
    (:class:`~repro.nn.Dropout`: ``p``, ``rng``, ``training``);
    ``attn_drop`` draws for the attention weights and then for the
    attention output, as the composition does.  ``caches``, if given,
    are :class:`~repro.nn.LayerKVCache` objects splitting the batch rows
    between them in order (each covers its own ``batch_size`` rows): the
    projections run once over the whole stack, only the attention core
    runs per cache, over that cache's own length — never padded to a
    common one, which would regroup the softmax sum.  Cached attention
    is inference-only.
    """
    if caches is not None and is_grad_enabled():
        raise RuntimeError(
            "KV-cached attention is inference-only; wrap the call "
            "in no_grad()")
    weights = (ln1_w, ln1_b, qkv_w, qkv_b, proj_w, proj_b,
               ln2_w, ln2_b, fc_w, fc_b, out_w, out_b)
    out, saved = block_forward(x.data[None], [w.data for w in weights],
                               n_head, mask, attn_drop, mlp_drop, caches,
                               save=is_grad_enabled())
    if saved is None:
        return Tensor._make(out[0], (), None)

    def backward(g: np.ndarray) -> None:
        dx, grads = block_backward(g[None], saved)
        if x.requires_grad:
            x._accumulate_owned(dx[0])
        accumulate_members(weights, grads)

    return Tensor._make(out[0], (x, *weights), backward)


class _BlockSaved:
    """What :func:`block_backward` needs of one :func:`block_forward`;
    every array keeps the forward's member axis."""

    __slots__ = ("weights", "n_head", "arrays")

    def __init__(self, weights, n_head, arrays):
        self.weights = weights
        self.n_head = n_head
        self.arrays = arrays


def block_forward(xd: np.ndarray, weights: Sequence[np.ndarray],
                  n_head: int, mask: np.ndarray, attn_drop, mlp_drop,
                  caches=None, save: bool = True):
    """:func:`transformer_block`'s forward on raw arrays -> (out, saved).

    ``xd`` is a group of ``k`` inputs stacked on a new leading member
    axis, ``(k, b, t, h)`` — never flattened into ``b`` (DESIGN.md
    section 9).  Every op is elementwise, a reduction along the last
    axis, or a GEMM over the same inner ``(t, .)`` matrices a width-1
    pass multiplies, so member ``i`` of every output is bit for bit what
    ``xd[i]`` alone gives.  Each dropout stream draws in the order
    width-1 passes would: ``attn_drop`` member 0's attention-weights
    mask, then its projection mask, then member 1's, and so on;
    ``mlp_drop`` one ``(k, ...)`` draw, which is ``k`` draws in a row.
    ``weights`` are the twelve parameter arrays in
    :func:`transformer_block`'s order.  ``saved`` is None unless
    ``save``; it keeps the member axis, so :func:`block_backward` can
    take any run of members.  With ``caches`` (serving: one member, its
    rows split between the caches) nothing is saved.
    """
    (ln1_w, ln1_b, qkv_w, qkv_b, proj_w, proj_b,
     ln2_w, ln2_b, fc_w, fc_b, out_w, out_b) = weights
    k, b, t, h = xd.shape
    hd = h // n_head
    scale = 1.0 / np.sqrt(hd)

    h1, x_hat1, inv_std1 = _layer_norm_fwd(xd, ln1_w, ln1_b, _LN_EPS)
    qkv = _linear_fwd(h1, qkv_w, qkv_b)  # (k, b, t, 3h)
    # three (k, b, nh, t, hd) views of the one qkv buffer
    q, kk, v = qkv.reshape(k, b, t, 3, n_head, hd).transpose(3, 0, 1, 4, 2, 5)
    att = att_mask = att_d = None
    if caches is None:
        # Fused scale + causal mask + softmax over the scores.
        att = _masked_softmax_fwd(q @ kk.swapaxes(-1, -2), mask[:t, :t],
                                  scale)
        att_mask, proj_mask = _attention_masks(attn_drop, att.shape,
                                               (k, b, t, h), att.dtype)
        att_d = att if att_mask is None else att * att_mask
        y = att_d @ v  # (k, b, nh, t, hd)
    else:  # grad is off (transformer_block checks): nothing is saved
        covered = sum(c.batch_size for c in caches)
        if k != 1 or covered != b:
            raise ValueError(f"caches cover {covered} batch rows, got {b}")
        ys, row = [], 0
        for cache in caches:
            rows = slice(row, row + cache.batch_size)
            row = rows.stop
            past = cache.length
            k_all, v_all = cache.extend(kk[0, rows], v[0, rows])
            # Query rows past..past+t of the causal mask attend over all
            # past+t keys: the from-scratch [:t, :t] case is past == 0.
            a = _masked_softmax_fwd(q[0, rows] @ k_all.swapaxes(-1, -2),
                                    mask[past:past + t, :past + t], scale)
            a_mask = _stream_mask(attn_drop, a.shape, a.dtype)
            ys.append((a if a_mask is None else a * a_mask) @ v_all)
        y = np.concatenate(ys, axis=0)[None]
        proj_mask = _stream_mask(attn_drop, (k, b, t, h), y.dtype)
    # heads back in: a copy
    y = y.transpose(0, 1, 3, 2, 4).reshape(k, b, t, h)
    x1 = _linear_fwd(y, proj_w, proj_b)
    if proj_mask is not None:
        x1 *= proj_mask
    x1 += xd  # first residual

    h2, x_hat2, inv_std2 = _layer_norm_fwd(x1, ln2_w, ln2_b, _LN_EPS)
    f = _linear_fwd(h2, fc_w, fc_b)
    act, tanh_f, f_sq = _gelu_fwd(f)
    out = _linear_fwd(act, out_w, out_b)
    out_mask = _stream_mask(mlp_drop, out.shape, out.dtype)
    if out_mask is not None:
        out *= out_mask
    out += x1  # second residual
    if not save:
        return out, None
    return out, _BlockSaved(weights, n_head, (
        x_hat1, inv_std1, h1, qkv, att, att_mask, att_d, y, proj_mask,
        x_hat2, inv_std2, h2, f, tanh_f, f_sq, act, out_mask))


def block_backward(g: np.ndarray, saved: _BlockSaved,
                   members: slice = slice(None)):
    """:func:`block_forward`'s backward for the run ``members`` of its
    member axis, given their output gradients ``g`` ``(n, b, t, h)``
    -> (dx, grads).

    ``grads`` are the twelve parameter gradients, each ``(n, ...)``: one
    batched GEMM or sum per parameter, whose member ``i`` is the
    gradient a width-1 backward of that member computes — never one
    flattened over the members (:func:`_linear_bwd`) — for the caller
    to add in member order (:func:`accumulate_members`).
    """
    ln1_w, _, qkv_w, _, proj_w, _, ln2_w, _, fc_w, _, out_w, _ = \
        saved.weights
    (x_hat1, inv_std1, h1, qkv, att, att_mask, att_d, y, proj_mask,
     x_hat2, inv_std2, h2, f, tanh_f, f_sq, act, out_mask) = (
        None if a is None else a[members] for a in saved.arrays)
    n, b, t, h = g.shape
    n_head = saved.n_head
    hd = h // n_head
    scale = 1.0 / np.sqrt(hd)
    q, k, v = qkv.reshape(n, b, t, 3, n_head, hd).transpose(3, 0, 1, 4, 2, 5)

    # MLP half: out = x1 + drop(out(gelu(fc(ln2(x1)))))
    dact, d_out_w, d_out_b = _linear_bwd(
        g if out_mask is None else g * out_mask, act, out_w)
    dh2, d_fc_w, d_fc_b = _linear_bwd(_gelu_bwd(dact, f, tanh_f, f_sq), h2,
                                      fc_w)
    dx1, d_ln2_w, d_ln2_b = _layer_norm_bwd(dh2, x_hat2, inv_std2, ln2_w)
    dx1 += g
    # attention half: x1 = x + drop(proj(att_d @ v))
    dy, d_proj_w, d_proj_b = _linear_bwd(
        dx1 if proj_mask is None else dx1 * proj_mask, y, proj_w)
    dy = dy.reshape(n, b, t, n_head, hd).transpose(0, 1, 3, 2, 4)
    datt = dy @ v.swapaxes(-1, -2)
    if att_mask is not None:
        datt *= att_mask
    dscores = _masked_softmax_bwd(datt, att, scale)
    # q, k, v are views of one (n, b, t, 3, nh, hd) buffer; so are their
    # gradients, written once each instead of scattered into three
    # zeroed copies and summed.
    dqkv = np.empty((n, b, t, 3, n_head, hd), dtype=dscores.dtype)
    dq, dk, dv = dqkv.transpose(3, 0, 1, 4, 2, 5)
    dq[...] = dscores @ k
    dk[...] = (q.swapaxes(-1, -2) @ dscores).swapaxes(-1, -2)
    dv[...] = att_d.swapaxes(-1, -2) @ dy
    dh1, d_qkv_w, d_qkv_b = _linear_bwd(dqkv.reshape(n, b, t, 3 * h), h1,
                                        qkv_w)
    dx, d_ln1_w, d_ln1_b = _layer_norm_bwd(dh1, x_hat1, inv_std1, ln1_w)
    dx += dx1
    return dx, (d_ln1_w, d_ln1_b, d_qkv_w, d_qkv_b, d_proj_w, d_proj_b,
                d_ln2_w, d_ln2_b, d_fc_w, d_fc_b, d_out_w, d_out_b)


def _attention_masks(drop, att_shape, out_shape, dtype):
    """``drop``'s masks for the attention weights and the projection
    output of a member-stacked pass, drawn member by member — each
    member's weights mask, then its projection mask — as width-1 passes
    draw them; ``(None, None)`` when dropout is off."""
    pairs = [(_stream_mask(drop, att_shape[1:], dtype),
              _stream_mask(drop, out_shape[1:], dtype))
             for _ in range(att_shape[0])]
    if pairs[0][0] is None:
        return None, None
    att, out = zip(*pairs)
    return np.stack(att), np.stack(out)


def accumulate_members(params: Sequence[Tensor],
                       grads: Sequence[np.ndarray]) -> None:
    """Add member-stacked parameter gradients (fresh ``(n, ...)`` arrays,
    one per parameter) into ``.grad`` member by member: the order in
    which width-1 backward passes of those members would accumulate."""
    for p, grad in zip(params, grads):
        if p.requires_grad:
            for member in grad:
                p._accumulate_owned(member)


# ===========================================================================
# Unfused reference compositions
# ===========================================================================
# Each mirrors the fused op above using only Tensor primitives (one autograd
# node per elementwise step).  They exist so the fused kernels can be
# verified against an independent derivation of the same gradient.

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


def attention_unfused(x: Tensor, qkv_w: Tensor, qkv_b: Tensor,
                      proj_w: Tensor, proj_b: Tensor, n_head: int,
                      mask: np.ndarray, drop, caches=None) -> Tensor:
    """Causal multi-head self-attention, one node per op: the attention
    half of :func:`transformer_block_unfused` (same arguments as the
    kernel; ``drop`` is a callable ``Tensor -> Tensor``)."""
    b, t, h = x.shape
    hd = h // n_head
    scale = 1.0 / np.sqrt(hd)

    def attend(q: Tensor, k: Tensor, v: Tensor, past: int) -> Tensor:
        att = masked_softmax(q @ k.swapaxes(-1, -2),
                             mask[past:past + t, :past + t], scale=scale)
        return drop(att) @ v  # (b, nh, t, hd)

    qkv = linear(x, qkv_w, qkv_b)  # (b, t, 3h)
    qkv = qkv.reshape(b, t, 3, n_head, hd)
    qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, b, nh, t, hd)
    q, k, v = qkv[0], qkv[1], qkv[2]
    if caches is None:
        y = attend(q, k, v, 0)
    else:
        if is_grad_enabled():
            raise RuntimeError(
                "KV-cached attention is inference-only; wrap the call "
                "in no_grad()")
        covered = sum(c.batch_size for c in caches)
        if covered != b:
            raise ValueError(f"caches cover {covered} batch rows, got {b}")
        ys, row = [], 0
        for cache in caches:
            rows = slice(row, row + cache.batch_size)
            row = rows.stop
            past = cache.length
            k_all, v_all = cache.extend(k.data[rows], v.data[rows])
            ys.append(attend(Tensor(q.data[rows]), Tensor(k_all),
                             Tensor(v_all), past))
        y = concat(ys, axis=0)
    y = y.transpose(0, 2, 1, 3).reshape(b, t, h)
    return drop(linear(y, proj_w, proj_b))


def mlp_unfused(x: Tensor, fc_w: Tensor, fc_b: Tensor, out_w: Tensor,
                out_b: Tensor, drop) -> Tensor:
    """Position-wise feed-forward, one node per op: the MLP half of
    :func:`transformer_block_unfused`."""
    return drop(linear(gelu(linear(x, fc_w, fc_b)), out_w, out_b))


def transformer_block_unfused(x: Tensor, ln1_w: Tensor, ln1_b: Tensor,
                              qkv_w: Tensor, qkv_b: Tensor,
                              proj_w: Tensor, proj_b: Tensor,
                              ln2_w: Tensor, ln2_b: Tensor,
                              fc_w: Tensor, fc_b: Tensor,
                              out_w: Tensor, out_b: Tensor,
                              n_head: int, mask: np.ndarray,
                              attn_drop, mlp_drop, caches=None) -> Tensor:
    """:func:`transformer_block` as the composition of single-op nodes
    it replaced (20 of them, 23 with dropout on) — the reference the
    kernel must equal bit for bit."""
    x = x + attention_unfused(layer_norm(x, ln1_w, ln1_b), qkv_w, qkv_b,
                              proj_w, proj_b, n_head, mask, attn_drop, caches)
    return x + mlp_unfused(layer_norm(x, ln2_w, ln2_b), fc_w, fc_b,
                           out_w, out_b, mlp_drop)
