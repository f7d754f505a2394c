"""Tests for optimizers, mixed precision, checkpointing and the dataset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    AdamW,
    Block,
    CheckpointedStack,
    Dropout,
    GPT,
    GPTConfig,
    LMBatches,
    Linear,
    LossScaler,
    MixedPrecisionAdamW,
    SGD,
    SyntheticCorpus,
    Tensor,
    adam_step,
    checkpoint,
    grads_have_overflow,
)
from repro.nn.modules import Module
from repro.partition import (activation_memory_factor, factors,
                             optimal_checkpoint_interval)


def quadratic_param(value=5.0):
    return Tensor(np.array([value], dtype=np.float32), requires_grad=True)


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            p = quadratic_param()
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_invalid_args(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad yet: no-op
        assert p.data[0] == 5.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_is_lr(self):
        """Adam's bias correction makes the first step ~= lr * sign(grad)."""
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1)
        (p * 1.0).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.999))

    def test_adamw_decay_is_decoupled(self):
        """With zero gradient, AdamW still shrinks weights; Adam with L2
        weight decay routes decay through the moments instead."""
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_adam_l2_decay_differs_from_decoupled(self):
        a = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        a.grad = np.ones(1, dtype=np.float32)
        b.grad = np.ones(1, dtype=np.float32)
        Adam([a], lr=0.1, weight_decay=0.5).step()
        AdamW([b], lr=0.1, weight_decay=0.5).step()
        assert a.data[0] != pytest.approx(b.data[0])

    def test_adam_step_function_matches_class(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(8).astype(np.float32)
        grad = rng.standard_normal(8).astype(np.float32)
        p = Tensor(data.copy(), requires_grad=True)
        p.grad = grad.copy()
        opt = AdamW([p], lr=0.01, weight_decay=0.01)
        opt.step()
        # Manual path via the raw function.
        manual = data.copy()
        m = np.zeros(8, dtype=np.float32)
        v = np.zeros(8, dtype=np.float32)
        adam_step(manual, grad.copy(), m, v, 1, 0.01, 0.9, 0.999, 1e-8,
                  0.01, decoupled=True)
        np.testing.assert_allclose(p.data, manual, rtol=1e-6)

    def test_training_reduces_loss_tiny_gpt(self):
        cfg = GPTConfig(vocab_size=13, seq_len=6, n_layer=1, n_head=2,
                        hidden=8, init_seed=0)
        model = GPT(cfg)
        opt = AdamW(model.parameters(), lr=1e-2)
        corpus = SyntheticCorpus(13, 2000, seed=0)
        batches = LMBatches(corpus, batch_size=8, seq_len=6)
        losses = []
        for i in range(30):
            x, y = batches.batch(i)
            opt.zero_grad()
            _, loss = model(x, targets=y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) - 0.1


class TestLossScaler:
    def test_static_scale(self):
        s = LossScaler(init_scale=1024, dynamic=False)
        s.update(found_overflow=True)
        assert s.scale == 1024

    def test_backoff_on_overflow(self):
        s = LossScaler(init_scale=1024, dynamic=True)
        s.update(found_overflow=True)
        assert s.scale == 512

    def test_growth_after_interval(self):
        s = LossScaler(init_scale=8, growth_interval=3)
        for _ in range(3):
            s.update(found_overflow=False)
        assert s.scale == 16

    def test_min_scale_floor(self):
        s = LossScaler(init_scale=2, min_scale=1.0)
        for _ in range(5):
            s.update(found_overflow=True)
        assert s.scale == 1.0

    def test_scale_loss(self):
        s = LossScaler(init_scale=4, dynamic=False)
        loss = Tensor(np.array(2.0, dtype=np.float32), requires_grad=True)
        scaled = s.scale_loss(loss)
        assert scaled.item() == 8.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            LossScaler(init_scale=0)


class TestMixedPrecision:
    def test_overflow_detection(self):
        good = [np.ones(3, dtype=np.float16)]
        bad = [np.array([1, np.inf, 2], dtype=np.float16)]
        assert not grads_have_overflow(good)
        assert grads_have_overflow(bad)

    def test_step_descales_gradients(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        scaler = LossScaler(init_scale=2.0, dynamic=False)
        opt = MixedPrecisionAdamW([p], lr=0.1, weight_decay=0.0,
                                  scaler=scaler)
        # fp16 gradient as produced from a loss scaled by 2.
        applied = opt.step([np.array([2.0], dtype=np.float16)])
        assert applied
        # Descaled gradient = 1.0 -> first Adam step ~= -lr.
        assert p.data[0] == pytest.approx(0.9, rel=1e-3)

    def test_overflow_skips_step_and_backs_off(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = MixedPrecisionAdamW([p], lr=0.1)
        scale_before = opt.scaler.scale
        applied = opt.step([np.array([np.inf], dtype=np.float16)])
        assert not applied
        assert p.data[0] == 1.0
        assert opt.scaler.scale == scale_before / 2
        assert opt.skipped_steps == 1

    def test_half_params_follow_master(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = MixedPrecisionAdamW([p], lr=0.5, weight_decay=0.0,
                                  scaler=LossScaler(init_scale=128,
                                                    dynamic=False))
        opt.step([np.array([128.0], dtype=np.float16)])
        np.testing.assert_allclose(opt.half_params[0],
                                   p.data.astype(np.float16))

    def test_mixed_precision_training_converges(self):
        cfg = GPTConfig(vocab_size=11, seq_len=6, n_layer=1, n_head=2,
                        hidden=8, init_seed=1)
        model = GPT(cfg)
        opt = MixedPrecisionAdamW(model.parameters(), lr=1e-2,
                                  scaler=LossScaler(init_scale=128,
                                                    dynamic=True))
        corpus = SyntheticCorpus(11, 1500, seed=1)
        batches = LMBatches(corpus, batch_size=8, seq_len=6)
        losses = []
        for i in range(25):
            x, y = batches.batch(i)
            model.zero_grad()
            _, loss = model(x, targets=y)
            (loss * opt.scaler.scale).backward()
            half_grads = [p.grad.astype(np.float16)
                          for p in model.parameters()]
            opt.step(half_grads)
            losses.append(loss.item())
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_gradient_list_length_checked(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = MixedPrecisionAdamW([p])
        with pytest.raises(ValueError):
            opt.step([])


class _Affine(Module):
    """Deterministic toy layer for checkpoint tests."""

    def __init__(self, scale):
        super().__init__()
        from repro.nn.modules import Parameter
        self.w = Parameter(np.array([scale], dtype=np.float32))

    def forward(self, x):
        return x * self.w


class TestCheckpointing:
    def test_checkpoint_matches_plain_forward(self):
        lin = Linear(4, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1)
                   .standard_normal((2, 4)).astype(np.float32),
                   requires_grad=True)
        plain = lin(x)
        ckpt = checkpoint(lin, x)
        np.testing.assert_allclose(plain.data, ckpt.data, atol=1e-6)

    def test_checkpoint_gradients_match(self):
        lin = Linear(4, 4, rng=np.random.default_rng(0))
        x1 = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        x2 = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        lin(x1).sum().backward()
        w_grad_plain = lin.weight.grad.copy()
        lin.zero_grad()
        checkpoint(lin, x2).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-6)
        np.testing.assert_allclose(w_grad_plain, lin.weight.grad, atol=1e-6)

    def test_checkpointed_stack_equivalence(self):
        layers = [_Affine(1.5), _Affine(0.5), _Affine(2.0), _Affine(0.25)]
        stack_ckpt = CheckpointedStack(layers, interval=2)
        x1 = Tensor(np.full((3,), 2.0, dtype=np.float32), requires_grad=True)
        out = stack_ckpt(x1)
        out.sum().backward()
        # Plain reference.
        stack_plain = CheckpointedStack(layers, interval=0)
        x2 = Tensor(np.full((3,), 2.0, dtype=np.float32), requires_grad=True)
        for layer in layers:
            layer.zero_grad()
        out2 = stack_plain(x2)
        out2.sum().backward()
        np.testing.assert_allclose(out.data, out2.data)
        np.testing.assert_allclose(x1.grad, x2.grad)

    @pytest.mark.parametrize("interval", [1, 2])
    def test_checkpointed_stack_replays_its_dropout_masks(self, interval):
        """With dropout on, the recomputed segment must be the network
        that produced the activations: outputs, input gradient and weight
        gradients equal the uncheckpointed stack bit for bit.  (The
        replay used to draw fresh masks: input gradient off by 1.9e-2.)"""
        cfg = GPTConfig(vocab_size=11, seq_len=6, n_layer=2, n_head=2,
                        hidden=8, dropout=0.5)
        x_data = np.random.default_rng(0).standard_normal(
            (2, 6, 8)).astype(np.float32)
        results = []
        for ivl in (0, interval):
            blocks = [Block(cfg, cfg.layer_rng(i + 1)) for i in range(2)]
            x = Tensor(x_data.copy(), requires_grad=True)
            out = CheckpointedStack(blocks, ivl)(x)
            out.backward(np.ones_like(out.data))
            # the streams end where the uncheckpointed run leaves them
            draws = [m.rng.random() for b in blocks for m in b.modules()
                     if isinstance(m, Dropout)]
            results.append([out.data, x.grad, np.array(draws)]
                           + [p.grad for b in blocks for p in b.parameters()])
        for plain, ckpt in zip(*results):
            assert np.array_equal(plain, ckpt)

    def test_checkpoint_param_grads_accumulate(self):
        layer = _Affine(2.0)
        stack = CheckpointedStack([layer], interval=1)
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        stack(x).sum().backward()
        assert layer.w.grad is not None
        assert layer.w.grad[0] == pytest.approx(2.0)  # sum of inputs

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointedStack([], interval=-1)

    def test_factors(self):
        assert factors(12) == [1, 2, 3, 4, 6, 12]
        assert factors(1) == [1]
        with pytest.raises(ValueError):
            factors(0)

    def test_optimal_interval_sqrt_rule(self):
        # N=48 layers total, 8 per GPU: sqrt(48)=6.93 -> factor of 8
        # closest is 8 (|8-6.93| < |4-6.93|).
        assert optimal_checkpoint_interval(48, 8) == 8
        # N=48, 12 per GPU: factors 1,2,3,4,6,12; closest to 6.93 is 6.
        assert optimal_checkpoint_interval(48, 12) == 6

    def test_activation_memory_minimized_near_sqrt(self):
        n, g_inter = 48, 1
        costs = {ac: activation_memory_factor(n, g_inter, ac)
                 for ac in factors(48)}
        best = min(costs, key=costs.get)
        assert abs(best - np.sqrt(n)) <= 2

    @given(n_per_gpu=st.integers(1, 64), total_mult=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_optimal_interval_is_a_factor(self, n_per_gpu, total_mult):
        total = n_per_gpu * total_mult
        ac = optimal_checkpoint_interval(total, n_per_gpu)
        assert n_per_gpu % ac == 0


class TestSyntheticData:
    def test_corpus_deterministic(self):
        a = SyntheticCorpus(50, 1000, seed=3)
        b = SyntheticCorpus(50, 1000, seed=3)
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_corpus_seed_changes_stream(self):
        a = SyntheticCorpus(50, 1000, seed=3)
        b = SyntheticCorpus(50, 1000, seed=4)
        assert not np.array_equal(a.tokens, b.tokens)

    def test_tokens_in_vocab(self):
        c = SyntheticCorpus(20, 500, seed=0)
        assert c.tokens.min() >= 0
        assert c.tokens.max() < 20

    def test_zipf_head_is_heavy(self):
        c = SyntheticCorpus(100, 50_000, seed=0, markov_weight=0.0)
        counts = np.bincount(c.tokens, minlength=100)
        assert counts[:10].sum() > counts[50:].sum()

    def test_markov_structure_is_learnable(self):
        """Bigram conditional entropy must be well below unigram entropy."""
        c = SyntheticCorpus(50, 100_000, seed=0, markov_weight=0.9)
        tokens = c.tokens
        uni = np.bincount(tokens, minlength=50).astype(float)
        uni /= uni.sum()
        h_uni = -(uni[uni > 0] * np.log(uni[uni > 0])).sum()
        joint = np.zeros((50, 50))
        np.add.at(joint, (tokens[:-1], tokens[1:]), 1)
        joint /= joint.sum()
        cond = joint / joint.sum(axis=1, keepdims=True).clip(1e-12)
        h_cond = -(joint * np.log(cond.clip(1e-12))).sum()
        assert h_cond < 0.8 * h_uni

    def test_invalid_corpus_args(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(1, 100)
        with pytest.raises(ValueError):
            SyntheticCorpus(10, 1)
        with pytest.raises(ValueError):
            SyntheticCorpus(10, 100, markov_weight=1.5)

    def test_batches_shapes(self):
        c = SyntheticCorpus(30, 1000, seed=0)
        b = LMBatches(c, batch_size=4, seq_len=16)
        x, y = b.batch(0)
        assert x.shape == (4, 16)
        assert y.shape == (4, 16)

    def test_targets_are_shifted_inputs(self):
        c = SyntheticCorpus(30, 1000, seed=0)
        b = LMBatches(c, batch_size=2, seq_len=8)
        x, y = b.batch(5)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_batches_deterministic_by_index(self):
        c = SyntheticCorpus(30, 1000, seed=0)
        b1 = LMBatches(c, batch_size=4, seq_len=8)
        b2 = LMBatches(c, batch_size=4, seq_len=8)
        for i in (0, 3, 10):
            x1, y1 = b1.batch(i)
            x2, y2 = b2.batch(i)
            np.testing.assert_array_equal(x1, x2)
            np.testing.assert_array_equal(y1, y2)

    def test_different_batches_differ(self):
        c = SyntheticCorpus(30, 1000, seed=0)
        b = LMBatches(c, batch_size=4, seq_len=8)
        x0, _ = b.batch(0)
        x1, _ = b.batch(1)
        assert not np.array_equal(x0, x1)

    def test_invalid_batch_args(self):
        c = SyntheticCorpus(30, 100, seed=0)
        with pytest.raises(ValueError):
            LMBatches(c, batch_size=0, seq_len=8)
        with pytest.raises(ValueError):
            LMBatches(c, batch_size=1, seq_len=100)
        with pytest.raises(ValueError):
            LMBatches(c, batch_size=1, seq_len=8).batch(-1)

    def test_iteration(self):
        c = SyntheticCorpus(30, 1000, seed=0)
        b = LMBatches(c, batch_size=2, seq_len=8)
        it = iter(b)
        x0, _ = next(it)
        x1, _ = next(it)
        np.testing.assert_array_equal(x0, b.batch(0)[0])
        np.testing.assert_array_equal(x1, b.batch(1)[0])
