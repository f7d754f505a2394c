"""The transformer block as one autograd node.

``F.transformer_block`` runs the raw-array helpers of ``linear`` /
``layer_norm`` / ``gelu`` / ``masked_softmax`` / ``dropout`` in the order
the per-op composition ``F.transformer_block_unfused`` runs the ops, so
the two must agree **exactly** — output, input gradient and all twelve
parameter gradients — not to a tolerance.  (Equality is by value, the
house standard: the composition scatters the q / k / v gradients into
zeroed buffers and sums them, which can turn a ``-0.0`` into ``+0.0``
where the kernel, writing them once, keeps it.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_paths
from repro.nn import Block, GPTConfig, LayerKVCache, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.sanitizer import sanitize
from repro.perf import counting
from repro.runtime import AxoNNTrainer

PARAM_NAMES = ("ln1.weight", "ln1.bias", "attn.qkv.weight", "attn.qkv.bias",
               "attn.proj.weight", "attn.proj.bias", "ln2.weight", "ln2.bias",
               "mlp.fc.weight", "mlp.fc.bias", "mlp.proj.weight",
               "mlp.proj.bias")


def make_block(cfg, seed, dtype=np.float32):
    """A block whose every parameter is random (the default init leaves
    biases at 0 and LayerNorm weights at 1, which hides terms); equal
    ``cfg`` and ``seed`` give equal weights and equal dropout streams."""
    blk = Block(cfg, cfg.layer_rng(1))
    rng = np.random.default_rng(seed)
    for p in blk.parameters():
        p.data = (0.3 * rng.standard_normal(p.data.shape)).astype(dtype)
    return blk


def kernel_args(blk):
    """``blk``'s parameters in kernel order, then the non-tensor
    arguments — what ``Block.forward`` passes."""
    named = dict(blk.named_parameters())
    return ([named[n] for n in PARAM_NAMES],
            (blk.attn.cfg.n_head, blk.attn._mask, blk.attn.drop,
             blk.mlp.drop))


def run(fn, cfg, seed, x_data, g, dtype=np.float32):
    """Forward + backward of ``fn`` (the kernel or the composition) on a
    fresh block; returns output, input gradient, parameter gradients."""
    blk = make_block(cfg, seed, dtype)
    params, rest = kernel_args(blk)
    x = Tensor(x_data.astype(dtype), requires_grad=True)
    out = fn(x, *params, *rest)
    out.backward(g.astype(dtype))
    return out.data, x.grad, [p.grad for p in params]


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@given(batch=st.integers(1, 3), n_head=st.sampled_from([1, 2, 4]),
       head_dim=st.integers(1, 4), seq_len=st.integers(1, 6),
       t_frac=st.floats(0, 1), dropout=st.sampled_from([0.0, 0.1]),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_kernel_equals_composition_bitwise(batch, n_head, head_dim, seq_len,
                                           t_frac, dropout, seed):
    t = 1 + int(t_frac * (seq_len - 1))
    cfg = GPTConfig(vocab_size=7, seq_len=seq_len, n_layer=2, n_head=n_head,
                    hidden=n_head * head_dim, dropout=dropout)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, t, cfg.hidden))
    g = rng.standard_normal((batch, t, cfg.hidden))
    out_k, dx_k, dp_k = run(F.transformer_block, cfg, seed, x, g)
    out_c, dx_c, dp_c = run(F.transformer_block_unfused, cfg, seed, x, g)
    assert same(out_k, out_c)
    assert same(dx_k, dx_c)
    for name, a, b in zip(PARAM_NAMES, dp_k, dp_c):
        assert same(a, b), name


def test_second_backward_accumulates_like_the_composition():
    """Gradient accumulation across microbatches: two passes through the
    same parameters leave the sums the composition leaves."""
    cfg = GPTConfig(vocab_size=7, seq_len=5, n_layer=2, n_head=2, hidden=8,
                    dropout=0.1)
    grads = {}
    for fn in (F.transformer_block, F.transformer_block_unfused):
        params, rest = kernel_args(make_block(cfg, 3))
        data = np.random.default_rng(4)
        for _ in range(2):
            x = Tensor(data.standard_normal((2, 5, 8)).astype(np.float32),
                       requires_grad=True)
            fn(x, *params, *rest).backward(
                data.standard_normal((2, 5, 8)).astype(np.float32))
        grads[fn] = [p.grad for p in params]
    for a, b in zip(*grads.values()):
        assert same(a, b)


def test_kernel_matches_finite_differences_fp64():
    cfg = GPTConfig(vocab_size=7, seq_len=3, n_layer=2, n_head=2, hidden=4)
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((2, 3, 4))
    proj = rng.standard_normal((2, 3, 4))
    _, dx, dps = run(F.transformer_block, cfg, 0, x_data, proj,
                     dtype=np.float64)

    blk = make_block(cfg, 0, np.float64)
    params, rest = kernel_args(blk)

    def loss(x_arr):
        with no_grad():
            out = F.transformer_block(Tensor(x_arr), *params, *rest)
        return float((out.data * proj).sum())

    def numeric(arr, f):
        num = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + 1e-6
            up = f()
            arr[idx] = keep - 1e-6
            down = f()
            arr[idx] = keep
            num[idx] = (up - down) / 2e-6
        return num

    np.testing.assert_allclose(dx, numeric(x_data, lambda: loss(x_data)),
                               rtol=1e-5, atol=1e-8)
    for name, p, dp in zip(PARAM_NAMES, params, dps):
        np.testing.assert_allclose(dp, numeric(p.data, lambda: loss(x_data)),
                                   rtol=1e-5, atol=1e-8, err_msg=name)


def test_one_node_and_the_composition_s_kernel_calls():
    """``nn.graph_nodes_per_op`` falls, ``nn.kernel_calls_per_op`` keeps
    its meaning: a block is one node however it is called, and books the
    kernel calls of the ops it is made of."""
    cfg = GPTConfig(vocab_size=7, seq_len=6, n_layer=2, n_head=2, hidden=8)
    blk = make_block(cfg, 1)
    params, rest = kernel_args(blk)
    x = Tensor(np.ones((2, 6, 8), dtype=np.float32), requires_grad=True)
    counts = {}
    for name, call in [("module", lambda: blk(x)),
                       ("unfused", lambda: F.transformer_block_unfused(
                           x, *params, *rest))]:
        with counting() as c:
            call()
        counts[name] = c.snapshot()
    assert counts["module"].pop("graph_nodes") == 1
    assert counts["unfused"].pop("graph_nodes") == 20
    assert counts["module"] == counts["unfused"] == {
        "linear": 4, "layer_norm": 2, "gelu": 1, "masked_softmax": 1}
    with counting() as c, no_grad():
        blk(x)
    assert "graph_nodes" not in c.snapshot()


def test_frozen_parents_get_no_gradient():
    cfg = GPTConfig(vocab_size=7, seq_len=4, n_layer=2, n_head=2, hidden=8)
    params, rest = kernel_args(make_block(cfg, 2))
    params[3].requires_grad = False  # attn.qkv.bias
    x = Tensor(np.ones((1, 4, 8), dtype=np.float32))  # a constant input
    F.transformer_block(x, *params, *rest).backward(
        np.ones((1, 4, 8), dtype=np.float32))
    assert x.grad is None and params[3].grad is None
    assert all(p.grad is not None for i, p in enumerate(params) if i != 3)


class TestCaches:
    CFG = GPTConfig(vocab_size=7, seq_len=12, n_layer=2, n_head=2, hidden=8)

    def resident(self, lengths):
        """One cache per request, already holding ``lengths[i]`` rows."""
        blk = make_block(self.CFG, 5).eval()
        params, rest = kernel_args(blk)
        rng = np.random.default_rng(6)
        caches = []
        for n in lengths:
            cache = LayerKVCache(self.CFG)
            with no_grad():
                F.transformer_block_unfused(
                    Tensor(rng.standard_normal((1, n, 8))
                           .astype(np.float32)), *params, *rest,
                    caches=[cache])
            caches.append(cache)
        return params, rest, caches

    @pytest.mark.parametrize("t", [1, 3])
    def test_ragged_lengths_equal_the_composition(self, t):
        lengths = [2, 7, 4]
        x = np.random.default_rng(7).standard_normal(
            (3, t, 8)).astype(np.float32)
        outs = []
        for fn in (F.transformer_block, F.transformer_block_unfused):
            params, rest, caches = self.resident(lengths)
            with no_grad():
                outs.append(fn(Tensor(x), *params, *rest, caches=caches).data)
            assert [c.length for c in caches] == [n + t for n in lengths]
        assert same(*outs)

    def test_grad_mode_refused_before_any_cache_is_touched(self):
        params, rest, caches = self.resident([2, 5])
        x = Tensor(np.ones((2, 1, 8), dtype=np.float32))
        with pytest.raises(RuntimeError, match="inference-only"):
            F.transformer_block(x, *params, *rest, caches=caches)
        assert [c.length for c in caches] == [2, 5]

    def test_rows_must_be_covered(self):
        params, rest, caches = self.resident([2, 5])
        with no_grad(), pytest.raises(ValueError, match="cover 2 batch"):
            F.transformer_block(Tensor(np.ones((3, 1, 8), dtype=np.float32)),
                                *params, *rest, caches=caches)


def test_training_step_under_sanitizer():
    """The closure honours the ownership contract and saves nothing that
    is mutated before backward — through plain parameters and through
    the ``F.concat`` parents of a tensor-parallel block, dropout on."""
    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=2, n_head=2, hidden=16,
                    dropout=0.1)
    rng = np.random.default_rng(0)
    x = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))
    y = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))
    for g_intra in (1, 2):
        trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, g_intra=g_intra,
                               microbatch_size=2)
        with sanitize():
            assert np.isfinite(trainer.train_batch(x, y).loss)


def test_kernel_module_lints_clean():
    """REP001 over the new closure (and the rest of the module)."""
    assert lint_paths([F.__file__]) == []
