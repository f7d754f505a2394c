"""End-to-end tests of the message-driven training engine: sharding,
pipeline mechanics, and the serial-vs-parallel equivalence that reproduces
the paper's Fig. 10 validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GPT, GPTConfig, LMBatches, SyntheticCorpus
from repro.runtime import (
    AxoNNTrainer,
    PipelineStage,
    SerialTrainer,
    partition_layers,
    state_dict_as_slots,
)

CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=11)


def make_batch(batch_size=8, seed=0, cfg=CFG):
    corpus = SyntheticCorpus(cfg.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=batch_size, seq_len=cfg.seq_len)


class TestPartition:
    def test_even_split(self):
        assert partition_layers(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_split_larger_first(self):
        assert partition_layers(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_single_stage(self):
        assert partition_layers(5, 1) == [(0, 5)]

    def test_too_many_stages(self):
        with pytest.raises(ValueError):
            partition_layers(3, 4)
        with pytest.raises(ValueError):
            partition_layers(3, 0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_the_per_stage_loop(self, n):
        """Every ``1 <= g <= n``: the ranges the original per-stage loop
        built (stage ``i`` takes one extra slot while ``i < n % g``)."""
        for g in range(1, n + 1):
            base, extra = divmod(n, g)
            ranges, start = [], 0
            for i in range(g):
                size = base + (1 if i < extra else 0)
                ranges.append((start, start + size))
                start += size
            assert partition_layers(n, g) == ranges

    @given(n=st.integers(1, 40), g=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_partition_covers_exactly(self, n, g):
        if n < g:
            return
        ranges = partition_layers(n, g)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
            assert b > a
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestPipelineStage:
    def test_stage_shards_cover_model(self):
        total = sum(
            PipelineStage(CFG, i, 3).num_parameters() for i in range(3)
        )
        assert total == GPT(CFG).num_parameters()

    def test_forward_backward_single_stage(self):
        stage = PipelineStage(CFG, 0, 1)
        x, y = make_batch(4).batch(0)
        stage.forward([0], [x], targets=[y], loss_divisor=1.0)
        out_grad = stage.backward([0])
        assert out_grad is None  # first stage has no upstream
        assert all(p.grad is not None for p in stage.parameters())

    def test_duplicate_microbatch_rejected(self):
        stage = PipelineStage(CFG, 0, 2)
        x, _ = make_batch(2).batch(0)
        stage.forward([0], [x])
        with pytest.raises(RuntimeError, match="already in flight"):
            stage.forward([0], [x])

    def test_backward_unknown_microbatch(self):
        stage = PipelineStage(CFG, 0, 2)
        with pytest.raises(RuntimeError, match="unknown microbatch"):
            stage.backward([3], [np.zeros(1)])

    def test_last_stage_requires_targets(self):
        stage = PipelineStage(CFG, 1, 2)
        act = np.zeros((2, CFG.seq_len, CFG.hidden), dtype=np.float32)
        with pytest.raises(ValueError, match="targets"):
            stage.forward([0], [act])

    def test_middle_stage_backward_requires_grad(self):
        stage = PipelineStage(CFG, 0, 2)
        x, _ = make_batch(2).batch(0)
        stage.forward([0], [x])
        with pytest.raises(ValueError, match="gradient"):
            stage.backward([0], None)

    def test_boundary_grad_shape(self):
        first = PipelineStage(CFG, 0, 2)
        last = PipelineStage(CFG, 1, 2)
        x, y = make_batch(2).batch(0)
        act = first.forward([0], [x])
        last.forward([0], act, targets=[y], loss_divisor=1.0)
        gin = last.backward([0])
        assert gin.shape == act.shape

    @pytest.mark.parametrize("ckpt", [False, True])
    @pytest.mark.parametrize("index", [0, 1])
    def test_backward_may_split_a_forward_group(self, index, ckpt):
        """Forward {0, 1, 2} as one group, then backward {0} and {1, 2}:
        bit for bit three width-1 passes — outputs, input gradients and
        every ``p.grad`` — with dropout on, with and without activation
        checkpointing.  A gradient may arrive without the rest of its
        forward group, so the stash must hand out any run of members."""
        cfg = dataclasses.replace(CFG, dropout=0.1)
        x, y = make_batch(6, cfg=cfg).batch(0)
        xs = [x[2 * i:2 * i + 2] for i in range(3)]
        ys = [y[2 * i:2 * i + 2] for i in range(3)]
        rng = np.random.default_rng(0)
        act = (3, 2, cfg.seq_len, cfg.hidden)
        last = index == 1
        if last:
            xs = list(rng.standard_normal(act).astype(np.float32))
            grads = [None] * 3
        else:
            grads = list(rng.standard_normal(act).astype(np.float32))

        def run(groups):
            stage = PipelineStage(cfg, index, 2, checkpoint_activations=ckpt)
            outs, gins = [], []
            for mbs in groups[0]:
                kw = dict(targets=[ys[i] for i in mbs], loss_divisor=3.0) \
                    if last else {}
                outs.extend(stage.forward(mbs, [xs[i] for i in mbs], **kw))
            for mbs in groups[1]:
                g = stage.backward(mbs, None if last else
                                   [grads[i] for i in mbs])
                gins.extend([None] * len(mbs) if g is None else g)
            return outs, gins, [p.grad for p in stage.parameters()]

        one = run(([[0], [1], [2]], [[0], [1], [2]]))
        split = run(([[0, 1, 2]], [[0], [1, 2]]))
        for want, got in zip(one, split):
            assert len(want) == len(got)
            for a, b in zip(want, got):
                assert (a is None and b is None) or np.array_equal(a, b)

    def test_checkpointed_stage_matches_plain(self):
        x, y = make_batch(4).batch(0)
        plain = PipelineStage(CFG, 0, 1, checkpoint_activations=False)
        ckpt = PipelineStage(CFG, 0, 1, checkpoint_activations=True)
        plain.forward([0], [x], targets=[y], loss_divisor=1.0)
        ckpt.forward([0], [x], targets=[y], loss_divisor=1.0)
        assert plain.microbatch_losses[0] == pytest.approx(
            ckpt.microbatch_losses[0], rel=1e-5)
        plain.backward([0])
        ckpt.backward([0])
        for p1, p2 in zip(plain.parameters(), ckpt.parameters()):
            np.testing.assert_allclose(p1.grad, p2.grad, rtol=1e-4,
                                       atol=1e-6)


class TestTrainerMechanics:
    def test_batch_divisibility_checked(self):
        tr = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2)
        x = np.zeros((6, CFG.seq_len), dtype=np.int64)
        with pytest.raises(ValueError, match="not divisible"):
            tr.train_batch(x, x)

    def test_microbatch_divisibility_checked(self):
        tr = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=3)
        x = np.zeros((8, CFG.seq_len), dtype=np.int64)
        with pytest.raises(ValueError, match="microbatch"):
            tr.train_batch(x, x)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AxoNNTrainer(CFG, 2, 2, microbatch_size=0)
        with pytest.raises(ValueError):
            AxoNNTrainer(CFG, 2, 2, microbatch_size=1, pipeline_limit=0)

    def test_message_count_matches_algorithm(self):
        """Each of the m microbatches crosses each of the G_inter - 1 stage
        boundaries twice (activation down, gradient up), per pipeline."""
        g_inter, g_data, mbs = 3, 2, 2
        tr = AxoNNTrainer(CFG, g_inter, g_data, microbatch_size=mbs)
        x, y = make_batch(8).batch(0)
        report = tr.train_batch(x, y)
        m_per_group = 8 // g_data // mbs
        expected = g_data * m_per_group * (g_inter - 1) * 2
        assert report.messages == expected

    def test_report_microbatch_count(self):
        tr = AxoNNTrainer(CFG, 2, 2, microbatch_size=2)
        x, y = make_batch(8).batch(0)
        assert tr.train_batch(x, y).microbatches == 4

    def test_data_parallel_replicas_stay_identical(self):
        tr = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2)
        batches = make_batch(8)
        for i in range(3):
            x, y = batches.batch(i)
            tr.train_batch(x, y)
        s0 = tr.gather_state(j=0)
        s1 = tr.gather_state(j=1)
        for k in s0:
            np.testing.assert_array_equal(s0[k], s1[k])

    def test_training_reduces_loss(self):
        tr = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2,
                          lr=5e-3)
        batches = make_batch(8)
        losses = [tr.train_batch(*batches.batch(i)).loss for i in range(20)]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_pipeline_limit_respected(self):
        """With pipeline_limit=1, at most one microbatch may ever be in
        flight per stage."""
        max_seen = {"v": 0}
        orig_forward = PipelineStage.forward

        def spy(self, *args, **kwargs):
            out = orig_forward(self, *args, **kwargs)
            max_seen["v"] = max(max_seen["v"], self.inflight_microbatches)
            return out

        PipelineStage.forward = spy
        try:
            tr = AxoNNTrainer(CFG, g_inter=3, g_data=1, microbatch_size=1,
                              pipeline_limit=1)
            x, y = make_batch(6).batch(0)
            tr.train_batch(x, y)
        finally:
            PipelineStage.forward = orig_forward
        assert max_seen["v"] == 1

    def test_inflight_bounded_by_pipeline_limit(self):
        max_seen = {"v": 0}
        orig_forward = PipelineStage.forward

        def spy(self, *args, **kwargs):
            out = orig_forward(self, *args, **kwargs)
            max_seen["v"] = max(max_seen["v"], self.inflight_microbatches)
            return out

        PipelineStage.forward = spy
        try:
            tr = AxoNNTrainer(CFG, g_inter=3, g_data=1, microbatch_size=1)
            x, y = make_batch(12).batch(0)
            tr.train_batch(x, y)
        finally:
            PipelineStage.forward = orig_forward
        assert max_seen["v"] <= tr.pipeline_limit


class TestSerialEquivalence:
    """The Fig. 10 reproduction: AxoNN's parallel training must match the
    serial PyTorch-style reference numerically."""

    def _run_pair(self, g_inter, g_data, microbatch_size, n_batches=4,
                  batch_size=8, cfg=CFG):
        serial = SerialTrainer(cfg, lr=1e-3)
        parallel = AxoNNTrainer(cfg, g_inter=g_inter, g_data=g_data,
                                microbatch_size=microbatch_size, lr=1e-3)
        batches = make_batch(batch_size, cfg=cfg)
        serial_losses, parallel_losses = [], []
        for i in range(n_batches):
            x, y = batches.batch(i)
            serial_losses.append(serial.train_batch(x, y))
            parallel_losses.append(parallel.train_batch(x, y).loss)
        return serial, parallel, serial_losses, parallel_losses

    @pytest.mark.parametrize("g_inter,g_data,mbs", [
        (1, 1, 8),   # degenerate: single rank
        (2, 1, 2),   # pure pipeline
        (1, 2, 2),   # pure data parallel
        (2, 2, 2),   # hybrid (the paper's Fig. 2 shape)
        (3, 1, 1),   # deeper pipeline, smallest microbatch
        (2, 4, 1),   # wide data parallelism
    ])
    def test_loss_curves_coincide(self, g_inter, g_data, mbs):
        _, _, serial_losses, parallel_losses = self._run_pair(
            g_inter, g_data, mbs)
        np.testing.assert_allclose(parallel_losses, serial_losses,
                                   rtol=2e-4, atol=2e-5)

    def test_final_weights_coincide(self):
        serial, parallel, _, _ = self._run_pair(2, 2, 2, n_batches=3)
        expected = state_dict_as_slots(serial.model)
        actual = parallel.gather_state(j=0)
        assert set(expected) == set(actual)
        for k in expected:
            np.testing.assert_allclose(actual[k], expected[k],
                                       rtol=1e-3, atol=1e-5,
                                       err_msg=k)

    def test_checkpointed_parallel_matches_serial(self):
        cfg = CFG
        serial = SerialTrainer(cfg, lr=1e-3)
        parallel = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2,
                                lr=1e-3, checkpoint_activations=True)
        batches = make_batch(8)
        for i in range(3):
            x, y = batches.batch(i)
            sl = serial.train_batch(x, y)
            pl = parallel.train_batch(x, y).loss
            assert pl == pytest.approx(sl, rel=2e-4)

    def test_equivalence_with_uneven_layer_split(self):
        """n_slots=6 over g_inter=4: shard sizes 2,2,1,1."""
        _, _, serial_losses, parallel_losses = self._run_pair(
            4, 1, 2, n_batches=3)
        np.testing.assert_allclose(parallel_losses, serial_losses,
                                   rtol=2e-4, atol=2e-5)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_equivalence_property_random_data(self, seed):
        """Property: for random data streams, one hybrid-parallel batch step
        matches the serial step."""
        cfg = GPTConfig(vocab_size=13, seq_len=6, n_layer=2, n_head=2,
                        hidden=8, init_seed=5)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))
        y = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))
        serial = SerialTrainer(cfg, lr=1e-3)
        parallel = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=1,
                                lr=1e-3)
        sl = serial.train_batch(x, y)
        pl = parallel.train_batch(x, y).loss
        assert pl == pytest.approx(sl, rel=2e-4)
