"""Tests for mixed-precision and CPU-offload training in the parallel
runtime (the paper's production configuration, Sections II-A/IV-B/V-B)."""

import numpy as np
import pytest

from repro.nn import GPT, GPTConfig, LMBatches, LossScaler, \
    MixedPrecisionAdamW, SyntheticCorpus
from repro.runtime import AxoNNTrainer

CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=21)


def make_batches(batch_size=8, seed=4, cfg=CFG):
    corpus = SyntheticCorpus(cfg.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=batch_size, seq_len=cfg.seq_len)


def serial_mixed_reference(cfg, batches, n_batches, lr=1e-3,
                           init_scale=128.0):
    """Serial mixed-precision loop mirroring the parallel semantics:
    scaled loss, fp16 gradients, fp32 master update."""
    model = GPT(cfg)
    scaler = LossScaler(init_scale=init_scale, dynamic=False)
    opt = MixedPrecisionAdamW(model.parameters(), lr=lr, scaler=scaler)
    losses = []
    for i in range(n_batches):
        x, y = batches.batch(i)
        model.zero_grad()
        _, loss = model(x, targets=y)
        (loss * scaler.scale).backward()
        opt.step([p.grad.astype(np.float16) for p in model.parameters()])
        losses.append(loss.item())
    return losses, model


class TestConstruction:
    def test_precision_validated(self):
        with pytest.raises(ValueError, match="precision"):
            AxoNNTrainer(CFG, 2, 1, microbatch_size=2, precision="fp8")

    def test_offload_requires_mixed(self):
        with pytest.raises(ValueError, match="offload"):
            AxoNNTrainer(CFG, 2, 1, microbatch_size=2, precision="fp32",
                         offload=True)

    def test_invalid_coarsening(self):
        with pytest.raises(ValueError):
            AxoNNTrainer(CFG, 2, 1, microbatch_size=2, coarsening_k=0)


class TestMixedPrecisionParallel:
    def test_matches_serial_mixed_reference(self):
        """Parallel mixed-precision losses track the serial mixed loop."""
        batches = make_batches()
        serial_losses, _ = serial_mixed_reference(CFG, batches, 4)
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=2, microbatch_size=2, lr=1e-3,
            precision="mixed",
            loss_scaler=LossScaler(init_scale=128.0, dynamic=False))
        parallel_losses = [trainer.train_batch(*batches.batch(i)).loss
                           for i in range(4)]
        # fp16 gradient quantization makes this approximate, not bitwise.
        np.testing.assert_allclose(parallel_losses, serial_losses,
                                   rtol=5e-3, atol=5e-3)

    def test_report_carries_scale_and_chunks(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=2, microbatch_size=2, precision="mixed",
            bucket_size=64, coarsening_k=2,
            loss_scaler=LossScaler(init_scale=64.0, dynamic=False))
        batches = make_batches()
        report = trainer.train_batch(*batches.batch(0))
        assert report.applied
        assert report.loss_scale == 64.0
        assert report.allreduce_chunks > 1  # tiny chunks on this model

    def test_chunking_does_not_change_numerics(self):
        """The coarsening factor only changes issue granularity; the summed
        gradient (and hence the weights) are identical."""
        batches = make_batches()

        def run(k, bucket):
            tr = AxoNNTrainer(
                CFG, g_inter=2, g_data=2, microbatch_size=2,
                precision="mixed", bucket_size=bucket, coarsening_k=k,
                loss_scaler=LossScaler(init_scale=64.0, dynamic=False))
            for i in range(3):
                tr.train_batch(*batches.batch(i))
            return tr.gather_state()

        a = run(k=1, bucket=32)
        b = run(k=8, bucket=256)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], rtol=1e-6, atol=1e-7,
                                       err_msg=key)

    def test_training_converges(self):
        trainer = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2,
                               lr=5e-3, precision="mixed")
        batches = make_batches()
        losses = [trainer.train_batch(*batches.batch(i)).loss
                  for i in range(20)]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_dynamic_scale_grows_on_good_streak(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=1, microbatch_size=2, precision="mixed",
            loss_scaler=LossScaler(init_scale=8.0, dynamic=True,
                                   growth_interval=3))
        batches = make_batches()
        for i in range(3):
            trainer.train_batch(*batches.batch(i))
        assert trainer.scaler.scale == 16.0

    def test_overflow_skips_all_ranks_in_lockstep(self):
        """An absurd loss scale overflows fp16; every replica must skip the
        step and the weights must stay identical across the grid."""
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=2, microbatch_size=2, precision="mixed",
            loss_scaler=LossScaler(init_scale=2.0 ** 24, dynamic=True))
        batches = make_batches()
        before = trainer.gather_state()
        report = trainer.train_batch(*batches.batch(0))
        assert not report.applied
        assert trainer.skipped_batches == 1
        assert trainer.scaler.scale == 2.0 ** 23  # backed off
        after = trainer.gather_state()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        # Replicas still in sync.
        s0, s1 = trainer.gather_state(0), trainer.gather_state(1)
        for k in s0:
            np.testing.assert_array_equal(s0[k], s1[k])

    def test_recovers_after_overflow(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=1, microbatch_size=2, precision="mixed",
            loss_scaler=LossScaler(init_scale=2.0 ** 24, dynamic=True))
        batches = make_batches()
        applied = []
        for i in range(14):
            applied.append(trainer.train_batch(*batches.batch(i)).applied)
        assert not applied[0]
        assert applied[-1]  # scale backed off far enough to train


class TestOffloadParallel:
    def test_offload_matches_plain_mixed(self):
        """The bucketed CPU-offload optimizer must produce the same weights
        as the monolithic mixed-precision optimizer (Adam is elementwise)."""
        batches = make_batches()

        def run(offload):
            tr = AxoNNTrainer(
                CFG, g_inter=2, g_data=2, microbatch_size=2,
                precision="mixed", offload=offload, bucket_size=128,
                loss_scaler=LossScaler(init_scale=64.0, dynamic=False))
            for i in range(3):
                tr.train_batch(*batches.batch(i))
            return tr.gather_state()

        plain = run(False)
        offloaded = run(True)
        for key in plain:
            np.testing.assert_allclose(offloaded[key], plain[key],
                                       rtol=1e-5, atol=1e-6, err_msg=key)

    def test_offload_traffic_accounted(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=1, microbatch_size=2, precision="mixed",
            offload=True, bucket_size=100,
            loss_scaler=LossScaler(init_scale=64.0, dynamic=False))
        batches = make_batches()
        trainer.train_batch(*batches.batch(0))
        opt = trainer.optimizers[0]
        assert opt.h2d_bytes == 12 * opt.numel
        assert opt.d2h_bytes == 12 * opt.numel

    def test_offload_converges(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=2, microbatch_size=2, lr=5e-3,
            precision="mixed", offload=True, bucket_size=256)
        batches = make_batches()
        losses = [trainer.train_batch(*batches.batch(i)).loss
                  for i in range(20)]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_offload_device_bytes_bounded(self):
        trainer = AxoNNTrainer(
            CFG, g_inter=2, g_data=1, microbatch_size=2, precision="mixed",
            offload=True, bucket_size=64)
        for opt in trainer.optimizers.values():
            assert opt.device_optimizer_bytes() == 16 * 64


def reference_fp16_allreduce(stacked, chunk):
    """Sequential reference for the vectorized chunked fp16 all-reduce:
    same chunk boundaries, replicas accumulated one at a time in rank
    order, everything in half precision."""
    replicas, numel = stacked.shape
    total = np.empty(numel, dtype=np.float16)
    n_chunks = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, numel, chunk):
            end = min(start + chunk, numel)
            acc = stacked[0, start:end].copy()
            for r in range(1, replicas):
                acc += stacked[r, start:end]
            total[start:end] = acc
            n_chunks += 1
    return total, n_chunks


class TestVectorizedAllreduce:
    """The buffer-reuse + vectorized fp16 reduction must be a pure
    refactoring: bit-identical to the sequential replica-order loop it
    replaced, including when gradients overflow to inf."""

    def _trainer(self, init_scale=64.0, g_data=2, bucket_size=64):
        return AxoNNTrainer(
            CFG, g_inter=2, g_data=g_data, microbatch_size=2,
            precision="mixed", bucket_size=bucket_size, coarsening_k=2,
            loss_scaler=LossScaler(init_scale=init_scale, dynamic=False))

    @staticmethod
    def _columns(trainer):
        """Per column: (the replicas' fp16 rows stacked in replica order,
        each replica's reduced total) as the last batch left them."""
        steps = trainer._column_steps
        for i in range(trainer.grid.g_inter):
            column = trainer.grid.data_parallel_ranks(i)
            stacked = np.stack([steps[r].row for r in column])
            yield stacked, [steps[r] for r in column]

    def test_bit_identical_to_sequential_loop(self):
        trainer = self._trainer()
        batches = make_batches()
        trainer.train_batch(*batches.batch(0))  # leaves the buffers filled
        chunk = max(1, trainer.coarsening_k * trainer.bucket_size)
        for stacked, steps in self._columns(trainer):
            ref, ref_chunks = reference_fp16_allreduce(stacked, chunk)
            for step in steps:
                assert step.n_chunks == ref_chunks
                assert step.n_chunks > 1  # the small bucket really chunks
                assert step.total.dtype == np.float16
                np.testing.assert_array_equal(step.total, ref)

    def test_bit_identical_under_overflow(self):
        """Overflowed fp16 gradients (inf) reduce identically in both
        implementations, and the step is skipped."""
        trainer = self._trainer(init_scale=2.0 ** 24)
        batches = make_batches()
        report = trainer.train_batch(*batches.batch(0))
        assert not report.applied  # overflow path still trips
        chunk = max(1, trainer.coarsening_k * trainer.bucket_size)
        saw_nonfinite = False
        for stacked, steps in self._columns(trainer):
            ref, _ = reference_fp16_allreduce(stacked, chunk)
            for step in steps:
                np.testing.assert_array_equal(step.total, ref)
                saw_nonfinite |= not np.isfinite(step.total).all()
        assert saw_nonfinite

    def test_buffers_are_reused_across_batches(self):
        """The DP phase must not allocate per batch: each rank's row,
        total and stacking buffers are created once and reused."""
        trainer = self._trainer()
        batches = make_batches()
        trainer.train_batch(*batches.batch(0))
        steps = dict(trainer._column_steps)
        arrays = {r: (s.row, s.total, dict(s.stacks))
                  for r, s in steps.items()}
        trainer.train_batch(*batches.batch(1))
        assert trainer._column_steps == steps
        for r, step in trainer._column_steps.items():
            row, total, stacks = arrays[r]
            assert step.row is row and step.total is total
            assert all(step.stacks[c] is a for c, a in stacks.items())
