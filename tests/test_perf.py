"""Tests for the :mod:`repro.perf` instrumentation package."""

import numpy as np

from repro.nn import GPT, GPTConfig, Tensor, no_grad
from repro.obs import RuntimeTracer, pass_widths
from repro.perf import OpCounters, counters, counting
from repro.runtime import AxoNNTrainer


class TestCounters:
    def test_disabled_by_default(self):
        c = OpCounters()
        c.bump("x")
        assert c.get("x") == 0

    def test_bump_and_snapshot(self):
        c = OpCounters()
        c.enabled = True
        c.bump("x")
        c.bump("x", 2)
        c.bump("y")
        assert c.snapshot() == {"x": 3, "y": 1}
        c.reset()
        assert c.snapshot() == {}

    def test_counting_context_restores_state(self):
        assert not counters.enabled
        with counting() as c:
            assert c is counters
            assert counters.enabled
        assert not counters.enabled

    def test_counting_resets_by_default(self):
        with counting():
            counters.bump("stale")
        with counting():
            assert counters.get("stale") == 0
        with counting():
            counters.bump("kept")
            with counting(reset=False):
                assert counters.get("kept") == 1

    def test_autograd_reports_graph_nodes(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with counting():
            ((a * 2.0) + 1.0).sum().backward()
            assert counters.get("graph_nodes") == 3  # mul, add, sum
        with counting():
            with no_grad():
                (a * 2.0) + 1.0
            assert counters.get("graph_nodes") == 0

    def test_model_step_counts_fused_ops(self):
        cfg = GPTConfig(vocab_size=11, seq_len=6, n_layer=2, n_head=2,
                        hidden=8, dropout=0.0, init_seed=5)
        model = GPT(cfg)
        ids = np.zeros((2, 6), dtype=np.int64)
        with counting():
            _, loss = model(ids, targets=ids)
            loss.backward()
            snap = counters.snapshot()
        assert snap["gelu"] == cfg.n_layer
        assert snap["masked_softmax"] == cfg.n_layer
        assert snap["layer_norm"] == 2 * cfg.n_layer + 1
        assert snap["cross_entropy"] == 1
        assert snap["linear"] == 4 * cfg.n_layer + 1
        assert snap["graph_nodes"] > 0

    def test_hybrid_step_runs_what_arrived_together_as_one_pass(self):
        """The spine's 2x2 microbatch-1 step (8 microbatches per pipeline,
        two in flight): each last stage takes the pair of activations that
        arrive together as one stacked pass, so the step makes 408 fused
        kernel calls where a pass per microbatch made 560 (the first
        stage starts its fresh microbatches one pass each), and the
        stages build no autograd graph."""
        cfg = GPTConfig(vocab_size=64, seq_len=32, n_layer=4, n_head=4,
                        hidden=64)
        rng = np.random.default_rng(0)
        x, y = rng.integers(0, cfg.vocab_size, (2, 16, cfg.seq_len))
        tracer = RuntimeTracer()
        trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=1,
                               tracer=tracer)
        with counting():
            trainer.train_batch(x, y)
            snap = counters.snapshot()
        assert snap.pop("graph_nodes", 0) == 0
        assert sum(n for key, n in snap.items()
                   if not key.startswith("tp.")) == 408
        assert pass_widths(tracer.spans) == {
            0: {1: 16}, 1: {2: 8}, 2: {1: 16}, 3: {2: 8}}

