"""Gradient checks for the fused kernels in ``repro.nn.functional``.

Every fused op is verified three ways:

* against its ``*_unfused`` primitive composition (same forward values,
  same gradients — an independent derivation of the same math);
* against central finite differences in float64;
* for graph economy: one fused call records exactly one autograd node
  where the composition records several.

Plus the operational corners: fp16 inputs survive forward + backward with
the dtype preserved, and degenerate shapes (batch 1, seq 1) work.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.perf import counters, counting

H = 8  # trailing (feature) dimension shared by all cases
SHAPES = [(2, 3, H), (1, 3, H), (2, 1, H), (1, 1, H)]


def _rng():
    return np.random.default_rng(1234)


def _params(dtype=np.float32):
    rng = _rng()
    w = Tensor(rng.standard_normal((H, H)).astype(dtype) * 0.5,
               requires_grad=True)
    b = Tensor(rng.standard_normal(H).astype(dtype) * 0.1,
               requires_grad=True)
    ln_w = Tensor((1.0 + 0.1 * rng.standard_normal(H)).astype(dtype),
                  requires_grad=True)
    ln_b = Tensor((0.1 * rng.standard_normal(H)).astype(dtype),
                  requires_grad=True)
    return w, b, ln_w, ln_b


def _causal(t):
    return np.triu(np.ones((t, t), dtype=bool), k=1)


def _cases(shape, dtype=np.float32):
    """{op: (fused_builder, unfused_builder, n_param_tensors)}.

    Each builder maps (x: Tensor, params: tuple) -> Tensor.  Params are
    rebuilt per variant by the caller so gradients do not mix.
    """
    t = shape[-2] if len(shape) >= 2 else 1
    targets = _rng().integers(0, H, size=shape[:-1])
    mask = _causal(shape[-1])  # masked_softmax uses a square trailing block
    scale = 0.37

    return {
        "softmax": (lambda x, p: F.softmax(x),
                    lambda x, p: F.softmax_unfused(x), 0),
        "log_softmax": (lambda x, p: F.log_softmax(x),
                        lambda x, p: F.log_softmax_unfused(x), 0),
        "gelu": (lambda x, p: F.gelu(x),
                 lambda x, p: F.gelu_unfused(x), 0),
        "layer_norm": (lambda x, p: F.layer_norm(x, p[2], p[3]),
                       lambda x, p: F.layer_norm_unfused(x, p[2], p[3]), 2),
        "cross_entropy": (lambda x, p: F.cross_entropy(x, targets),
                          lambda x, p: F.cross_entropy_unfused(x, targets),
                          0),
        "linear": (lambda x, p: F.linear(x, p[0], p[1]),
                   lambda x, p: F.linear_unfused(x, p[0], p[1]), 2),
        "linear_nobias": (lambda x, p: F.linear(x, p[0]),
                          lambda x, p: F.linear_unfused(x, p[0]), 1),
        "masked_softmax": (
            lambda x, p: F.masked_softmax(x, mask, scale=scale),
            lambda x, p: F.softmax(F.where_mask(x * scale, mask, -1e9)), 0),
        "mean": (lambda x, p: x.mean(axis=-1),
                 lambda x, p: x.sum(axis=-1) * (1.0 / x.shape[-1]), 0),
    }


OP_NAMES = sorted(_cases((2, 3, H)))


def _grad_params(op, params):
    """The parameter tensors whose gradients the op under test touches."""
    w, b, ln_w, ln_b = params
    return {"layer_norm": [ln_w, ln_b], "linear": [w, b],
            "linear_nobias": [w]}.get(op, [])


def _scalarize(out):
    """Deterministic projection to a scalar loss."""
    if out.data.size == 1:
        return out if out.data.ndim == 0 else out.sum()
    proj = np.linspace(0.5, 1.5, out.data.size,
                       dtype=np.float64).reshape(out.shape)
    return (out * Tensor(proj.astype(out.data.dtype))).sum()


def _run(builder, x_data, dtype=np.float32):
    x = Tensor(np.asarray(x_data, dtype=dtype), requires_grad=True)
    params = _params(dtype)
    out = builder(x, params)
    _scalarize(out).backward()
    return out, x, params


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("op", OP_NAMES)
def test_fused_matches_unfused(op, shape):
    fused_b, unfused_b, _ = _cases(shape)[op]
    if op == "masked_softmax":
        shape = shape[:-2] + (shape[-1], shape[-1])  # square trailing block
    x_data = _rng().standard_normal(shape)

    out_f, x_f, p_f = _run(fused_b, x_data)
    out_u, x_u, p_u = _run(unfused_b, x_data)

    np.testing.assert_allclose(out_f.data, out_u.data, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(x_f.grad, x_u.grad, rtol=1e-4, atol=1e-6)
    for pf, pu in zip(_grad_params(op, p_f), _grad_params(op, p_u)):
        np.testing.assert_allclose(pf.grad, pu.grad, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["fp32", "fp64"])
@pytest.mark.parametrize("shape", [(1, 1, 128), (16, 32, 64), (3, 1, 128),
                                   (2, 5, 7), (1, 96, 128), (4, 1, 1000)],
                         ids=str)
def test_layer_norm_one_pass_statistics_bit_equal(shape, dtype):
    """``F.layer_norm`` takes its mean and variance in one pass over the
    centred values; that is the ufunc sequence ``np.mean`` + ``np.var``
    run, so the output equals the two-call form bit for bit (and the
    primitive composition to rounding: it divides by the deviation where
    the kernel multiplies by its reciprocal)."""
    rng = _rng()
    for _ in range(25):
        x = (rng.standard_normal(shape) * rng.uniform(0.1, 10)).astype(dtype)
        w = rng.standard_normal(shape[-1]).astype(dtype)
        b = rng.standard_normal(shape[-1]).astype(dtype)
        got = F.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        mu = x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - mu) * inv_std * w + b
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        unfused = F.layer_norm_unfused(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, unfused, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["fp32", "fp64"])
@pytest.mark.parametrize("shape", [(1, 1, 128), (1, 32, 64), (16, 32, 64),
                                   (2, 5, 7), (4, 1, 1000)], ids=str)
def test_layer_norm_backward_row_means_bit_equal(shape, dtype):
    """The backward's two row means are ``np.add.reduce(...) / n``, the
    ufunc sequence ``.mean`` runs: the input gradient equals the
    ``.mean`` form bit for bit (fp16, whose ``.mean`` accumulates in
    fp32, is the documented exception)."""
    rng = _rng()
    for _ in range(25):
        x = (rng.standard_normal(shape) * rng.uniform(0.1, 10)).astype(dtype)
        w = rng.standard_normal(shape[-1]).astype(dtype)
        b = rng.standard_normal(shape[-1]).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        F.layer_norm(xt, Tensor(w), Tensor(b)).backward(g)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        x_hat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
        want = g * w
        term2 = want.mean(axis=-1, keepdims=True)
        term3 = x_hat * (want * x_hat).mean(axis=-1, keepdims=True)
        want -= term2
        want -= term3
        want *= inv_std
        assert xt.grad.dtype == want.dtype
        assert np.array_equal(xt.grad, want)


@pytest.mark.parametrize("op", OP_NAMES)
def test_fused_matches_finite_differences(op):
    shape = (2, 3, H)
    fused_b, _, _ = _cases(shape)[op]
    if op == "masked_softmax":
        shape = shape[:-2] + (shape[-1], shape[-1])
    x_data = _rng().standard_normal(shape)  # float64

    _, x, params = _run(fused_b, x_data, dtype=np.float64)

    def loss_at(arr):
        xt = Tensor(arr.copy(), requires_grad=True)
        return float(_scalarize(fused_b(xt, _params(np.float64))).data)

    eps = 1e-6
    num = np.zeros_like(x_data)
    it = np.nditer(x_data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x_data.copy()
        bumped[idx] += eps
        up = loss_at(bumped)
        bumped[idx] -= 2 * eps
        down = loss_at(bumped)
        num[idx] = (up - down) / (2 * eps)
    np.testing.assert_allclose(x.grad, num, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("op", OP_NAMES)
def test_fused_fp16_inputs(op):
    shape = (2, 3, H)
    fused_b, _, _ = _cases(shape)[op]
    if op == "masked_softmax":
        shape = shape[:-2] + (shape[-1], shape[-1])
    x_data = (0.25 * _rng().standard_normal(shape))

    out, x, _ = _run(fused_b, x_data, dtype=np.float16)
    assert out.data.dtype == np.float16
    assert x.grad.dtype == np.float16
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all()


@pytest.mark.parametrize("op", OP_NAMES)
def test_fused_records_single_node(op):
    shape = (2, 3, H)
    fused_b, unfused_b, n_params = _cases(shape)[op]
    if op == "masked_softmax":
        shape = shape[:-2] + (shape[-1], shape[-1])
    x_data = _rng().standard_normal(shape)
    x = Tensor(np.asarray(x_data, dtype=np.float32), requires_grad=True)
    params = _params()

    with counting():
        fused_b(x, params)
        fused_nodes = counters.get("graph_nodes")
    with counting():
        unfused_b(x, params)
        unfused_nodes = counters.get("graph_nodes")

    assert fused_nodes == 1
    assert unfused_nodes > 1


def test_masked_softmax_masked_positions_are_inert():
    t = 6
    mask = _causal(t)
    x = Tensor(_rng().standard_normal((2, t, t)).astype(np.float32),
               requires_grad=True)
    out = F.masked_softmax(x, mask, scale=0.5)
    assert np.all(out.data[:, mask] == 0.0)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-6)
    _scalarize(out).backward()
    assert np.all(x.grad[:, mask] == 0.0)


def test_mean_is_single_node_and_matches_composite():
    x_data = _rng().standard_normal((3, 4, 5)).astype(np.float32)
    for kwargs in ({}, {"axis": -1}, {"axis": 1, "keepdims": True},
                   {"axis": (0, 2)}):
        xa = Tensor(x_data.copy(), requires_grad=True)
        xb = Tensor(x_data.copy(), requires_grad=True)
        ma = xa.mean(**kwargs)
        count = x_data.size // ma.data.size
        mb = xb.sum(**kwargs) * (1.0 / count)
        np.testing.assert_array_equal(ma.data, mb.data)
        _scalarize(ma).backward()
        _scalarize(mb).backward()
        np.testing.assert_allclose(xa.grad, xb.grad, rtol=1e-6, atol=1e-7)
    with counting():
        Tensor(x_data, requires_grad=True).mean()
        assert counters.get("graph_nodes") == 1
