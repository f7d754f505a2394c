"""Tests for KV-cached incremental decoding: repro.nn.transformer caches
and the cached `generate` path (token-identical to full recompute)."""

import numpy as np
import pytest

from repro.nn import (GPT, GPTConfig, KVCache, LayerKVCache, generate,
                      kv_cache_bytes, no_grad, sample_token)

CFG = GPTConfig(vocab_size=23, seq_len=16, n_layer=3, n_head=2, hidden=8)


class TestLayerKVCache:
    def test_extend_returns_growing_views(self):
        cache = LayerKVCache(CFG, batch_size=1)
        hd = CFG.hidden // CFG.n_head
        k1 = np.ones((1, CFG.n_head, 3, hd), dtype=np.float32)
        ka, va = cache.extend(k1, 2 * k1)
        assert ka.shape == (1, CFG.n_head, 3, hd)
        assert cache.length == 3
        k2 = np.full((1, CFG.n_head, 1, hd), 5.0, dtype=np.float32)
        kb, vb = cache.extend(k2, k2)
        assert kb.shape[2] == 4 and cache.length == 4
        assert np.all(kb[:, :, :3] == 1.0) and np.all(kb[:, :, 3:] == 5.0)
        assert np.all(vb[:, :, :3] == 2.0)

    def test_capacity_overflow_raises(self):
        cache = LayerKVCache(CFG, batch_size=1)
        hd = CFG.hidden // CFG.n_head
        big = np.zeros((1, CFG.n_head, CFG.seq_len + 1, hd),
                       dtype=np.float32)
        with pytest.raises(ValueError):
            cache.extend(big, big)

    def test_batch_mismatch_raises(self):
        cache = LayerKVCache(CFG, batch_size=1)
        hd = CFG.hidden // CFG.n_head
        k = np.zeros((2, CFG.n_head, 1, hd), dtype=np.float32)
        with pytest.raises(ValueError):
            cache.extend(k, k)

    def test_kv_cache_bytes_accounting(self):
        cache = KVCache(CFG, batch_size=2)
        assert len(cache.blocks) == CFG.n_layer
        assert cache.nbytes == kv_cache_bytes(CFG, batch_size=2)
        # 2 (K and V) * layers * seq * hidden * 4 bytes * batch
        assert kv_cache_bytes(CFG, batch_size=2) == \
            2 * CFG.n_layer * CFG.seq_len * CFG.hidden * 4 * 2


class TestCachedForward:
    def test_incremental_forward_matches_full(self):
        model = GPT(CFG)
        model.eval()
        ids = np.array([[3, 1, 4, 1, 5, 9, 2, 6]])
        full, _ = model(ids)
        cache = KVCache(CFG, batch_size=1)
        with no_grad():
            out_prefill, _ = model(ids[:, :5], cache=cache)
            out_last, _ = model(ids[:, 5:], cache=cache)
        assert cache.length == 8
        np.testing.assert_allclose(out_last.data, full.data[:, 5:],
                                   rtol=2e-5, atol=2e-6)
        np.testing.assert_allclose(out_prefill.data, full.data[:, :5],
                                   rtol=2e-5, atol=2e-6)

    def test_cache_with_targets_rejected(self):
        model = GPT(CFG)
        ids = np.array([[1, 2, 3]])
        with pytest.raises(ValueError, match="cache"):
            model(ids, targets=ids, cache=KVCache(CFG, 1))

    def test_cache_under_grad_rejected(self):
        model = GPT(CFG)
        ids = np.array([[1, 2, 3]])
        with pytest.raises(RuntimeError, match="no_grad|inference"):
            model(ids, cache=KVCache(CFG, 1))

    def test_position_offset_out_of_range(self):
        model = GPT(CFG)
        model.eval()
        cache = KVCache(CFG, batch_size=1)
        ids = np.zeros((1, CFG.seq_len), dtype=np.int64)
        with no_grad():
            model(ids, cache=cache)
            with pytest.raises(ValueError):
                model(np.array([[1]]), cache=cache)

    def test_negative_token_id_rejected(self):
        """NumPy would wrap it to the end of the table silently."""
        model = GPT(CFG)
        with pytest.raises(ValueError, match="vocabulary"):
            model(np.array([[1, -1, 2]]))
        with pytest.raises(ValueError, match="vocabulary"):
            model(np.array([[CFG.vocab_size]]))


class TestCachedGenerate:
    """use_cache=True must emit exactly the tokens of the full-recompute
    path — same logits stream, same RNG draws."""

    @pytest.mark.parametrize("kwargs", [
        dict(greedy=True),
        dict(temperature=0.8),
        dict(temperature=1.2, top_k=5),
    ])
    def test_token_identical_to_full_recompute(self, kwargs):
        model = GPT(CFG)
        prompt = np.array([2, 7, 1, 8])
        cached = generate(model, prompt, 10, use_cache=True,
                          rng=np.random.default_rng(42), **kwargs)
        full = generate(model, prompt, 10, use_cache=False,
                        rng=np.random.default_rng(42), **kwargs)
        assert np.array_equal(cached, full)

    def test_beyond_seq_len_falls_back_to_sliding_window(self):
        model = GPT(CFG)
        prompt = np.array([1, 2, 3])
        n_new = CFG.seq_len  # forces the sequence past the context window
        cached = generate(model, prompt, n_new, greedy=True,
                          use_cache=True)
        full = generate(model, prompt, n_new, greedy=True, use_cache=False)
        assert cached.size == prompt.size + n_new
        assert np.array_equal(cached, full)

    def test_restores_training_mode(self):
        model = GPT(CFG)
        model.train()
        generate(model, np.array([1]), 2, greedy=True)
        assert model.training


class TestSampleToken:
    def test_greedy_is_argmax(self):
        logits = np.array([0.1, 3.0, -1.0])
        assert sample_token(logits, greedy=True) == 1

    def test_sampling_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            sample_token(np.array([0.0, 1.0]))

    def test_top_k_restricts_support(self):
        rng = np.random.default_rng(0)
        logits = np.array([10.0, 9.0, -50.0, -60.0])
        draws = {sample_token(logits, top_k=2, rng=rng)
                 for _ in range(50)}
        assert draws <= {0, 1}

    def test_seeded_draws_reproducible(self):
        logits = np.linspace(-1, 1, 11)
        a = [sample_token(logits, rng=np.random.default_rng(7))
             for _ in range(3)]
        b = [sample_token(logits, rng=np.random.default_rng(7))
             for _ in range(3)]
        assert a == b
