"""Tests for trainer checkpointing and pipeline-parallel evaluation."""

import numpy as np
import pytest

from repro.nn import GPT, GPTConfig, LMBatches, LossScaler, SyntheticCorpus
from repro.runtime import (
    AxoNNTrainer,
    SerialTrainer,
    evaluate_parallel,
    evaluate_serial,
    load_trainer,
    load_trainer_state,
    perplexity,
    save_trainer,
    trainer_state_dict,
)

CFG = GPTConfig(vocab_size=17, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=33)


def make_batches(batch_size=8, seed=6):
    corpus = SyntheticCorpus(CFG.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=batch_size, seq_len=CFG.seq_len)


def make_trainer(**kw):
    base = dict(g_inter=2, g_data=2, microbatch_size=2, lr=1e-3)
    base.update(kw)
    return AxoNNTrainer(CFG, **base)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("mode", ["fp32", "mixed", "offload"])
    def test_resume_is_bit_identical(self, mode):
        """Save at batch 3, restore into a fresh trainer, train 3 more on
        both — the weights must match exactly."""
        kwargs = {}
        if mode in ("mixed", "offload"):
            kwargs.update(precision="mixed",
                          loss_scaler=LossScaler(init_scale=64,
                                                 dynamic=False))
        if mode == "offload":
            kwargs.update(offload=True, bucket_size=128)
        batches = make_batches()
        original = make_trainer(**kwargs)
        for i in range(3):
            original.train_batch(*batches.batch(i))
        snapshot = trainer_state_dict(original)

        if mode in ("mixed", "offload"):
            kwargs["loss_scaler"] = LossScaler(init_scale=64, dynamic=False)
        resumed = make_trainer(**kwargs)
        load_trainer_state(resumed, snapshot)
        assert resumed.batches_trained == 3

        for i in range(3, 6):
            original.train_batch(*batches.batch(i))
            resumed.train_batch(*batches.batch(i))
        a = original.gather_state()
        b = resumed.gather_state()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    def test_npz_file_round_trip(self, tmp_path):
        batches = make_batches()
        trainer = make_trainer()
        for i in range(2):
            trainer.train_batch(*batches.batch(i))
        path = str(tmp_path / "ckpt.npz")
        save_trainer(trainer, path)

        fresh = make_trainer()
        load_trainer(fresh, path)
        a = trainer.gather_state()
        b = fresh.gather_state()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        assert fresh.batches_trained == 2

    def test_grid_mismatch_rejected(self):
        trainer = make_trainer()
        state = trainer_state_dict(trainer)
        other = make_trainer(g_inter=1, g_data=4)
        with pytest.raises(ValueError, match="grid"):
            load_trainer_state(other, state)

    def test_precision_mismatch_rejected(self):
        trainer = make_trainer()
        state = trainer_state_dict(trainer)
        other = make_trainer(precision="mixed")
        with pytest.raises(ValueError, match="precision"):
            load_trainer_state(other, state)

    def test_mixed_with_gradient_checkpointing_and_dropout(self):
        """Round-trip under the full feature stack: mixed precision,
        activation (gradient) checkpointing, and active dropout.  Resume
        mid-run and continue; weights and losses must match exactly —
        which requires the checkpoint to carry every dropout RNG
        bit-generator state and the loss scaler's good-step counter."""
        cfg = GPTConfig(vocab_size=17, seq_len=8, n_layer=4, n_head=2,
                        hidden=12, dropout=0.1, init_seed=33)

        def mk():
            return AxoNNTrainer(
                cfg, g_inter=2, g_data=2, microbatch_size=2, lr=1e-3,
                precision="mixed", checkpoint_activations=True,
                loss_scaler=LossScaler(init_scale=64, dynamic=True,
                                       growth_interval=2))

        corpus = SyntheticCorpus(cfg.vocab_size, 4000, seed=6)
        batches = LMBatches(corpus, batch_size=8, seq_len=cfg.seq_len)
        original = mk()
        for i in range(3):
            original.train_batch(*batches.batch(i))
        snapshot = trainer_state_dict(original)

        resumed = mk()
        load_trainer_state(resumed, snapshot)
        assert resumed.scaler.scale == original.scaler.scale
        assert resumed.scaler.good_steps == original.scaler.good_steps

        for i in range(3, 6):
            a = original.train_batch(*batches.batch(i)).loss
            b = resumed.train_batch(*batches.batch(i)).loss
            assert a == b  # bit-identical, batch by batch
        sa, sb = original.gather_state(), resumed.gather_state()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)

    def test_pre_step_snapshot_restores_empty_moments(self):
        """A checkpoint taken before the first optimizer step must roll a
        trained optimizer all the way back to pristine (lazily empty)
        moment state — the rollback-and-replay path of the resilience
        layer depends on this."""
        batches = make_batches()
        trainer = make_trainer()
        virgin = trainer_state_dict(trainer)
        ref = make_trainer()

        for i in range(2):
            trainer.train_batch(*batches.batch(i))
        load_trainer_state(trainer, virgin)
        for i in range(2):
            a = trainer.train_batch(*batches.batch(i)).loss
            b = ref.train_batch(*batches.batch(i)).loss
            assert a == b
        sa, sb = trainer.gather_state(), ref.gather_state()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)

    def test_loss_scale_restored(self):
        trainer = make_trainer(precision="mixed",
                               loss_scaler=LossScaler(init_scale=4096,
                                                      dynamic=False))
        state = trainer_state_dict(trainer)
        other = make_trainer(precision="mixed",
                             loss_scaler=LossScaler(init_scale=2,
                                                    dynamic=False))
        load_trainer_state(other, state)
        assert other.scaler.scale == 4096


class TestEvaluation:
    def test_perplexity(self):
        assert perplexity(0.0) == 1.0
        assert perplexity(np.log(17)) == pytest.approx(17.0)
        with pytest.raises(ValueError):
            perplexity(float("nan"))

    def test_serial_eval_of_untrained_model(self):
        model = GPT(CFG)
        result = evaluate_serial(model, make_batches(), n_batches=3)
        assert result["loss"] == pytest.approx(np.log(CFG.vocab_size),
                                               abs=0.5)
        assert result["perplexity"] == pytest.approx(
            np.exp(result["loss"]))

    def test_parallel_eval_matches_serial(self):
        """A sharded model evaluated through the pipeline must report the
        same held-out loss as the equivalent serial model."""
        batches = make_batches()
        serial = SerialTrainer(CFG, lr=1e-3)
        parallel = make_trainer()
        for i in range(4):
            x, y = batches.batch(i)
            serial.train_batch(x, y)
            parallel.train_batch(x, y)
        s = evaluate_serial(serial.model, batches, n_batches=3)
        p = evaluate_parallel(parallel, batches, n_batches=3)
        assert p["loss"] == pytest.approx(s["loss"], rel=1e-4)

    def test_parallel_eval_walks_interleaved_chunks(self):
        """A rank holding several virtual stages is evaluated chunk by
        chunk in network order, not rank by rank."""
        batches = make_batches()
        plain = make_trainer()
        chunked = make_trainer(schedule="interleaved")
        for i in range(2):
            plain.train_batch(*batches.batch(i))
            chunked.train_batch(*batches.batch(i))
        assert evaluate_parallel(chunked, batches, n_batches=2)["loss"] == \
            pytest.approx(evaluate_parallel(plain, batches,
                                            n_batches=2)["loss"], rel=1e-5)

    def test_eval_does_not_disturb_training_state(self):
        batches = make_batches()
        trainer = make_trainer()
        trainer.train_batch(*batches.batch(0))
        before = trainer.gather_state()
        evaluate_parallel(trainer, batches, n_batches=2)
        after = trainer.gather_state()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_eval_improves_with_training(self):
        batches = make_batches()
        trainer = make_trainer(lr=5e-3)
        before = evaluate_parallel(trainer, batches, n_batches=3)
        for i in range(20):
            trainer.train_batch(*batches.batch(i))
        after = evaluate_parallel(trainer, batches, n_batches=3)
        assert after["loss"] < before["loss"]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            evaluate_serial(GPT(CFG), make_batches(), n_batches=0)
        with pytest.raises(ValueError):
            evaluate_parallel(make_trainer(), make_batches(), n_batches=0)
