"""Every shipped schedule on the functional substrate: the baselines'
flushing pipeline (and its newer relatives) with real numerics, the one
trainer running all five, ``SerialTrainer`` as their reference."""

import numpy as np
import pytest

from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.runtime import AxoNNTrainer, SerialTrainer
from repro.sched import SCHEDULE_NAMES, build_schedule

CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=11)
BATCH = 8


def make_batches(seed=0):
    corpus = SyntheticCorpus(CFG.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=BATCH, seq_len=CFG.seq_len)


def make_trainer(schedule, g_inter, g_data, mbs, **kw):
    """The trainer under a static schedule; a skip only where the
    schedule's builder (or the model's depth) rejects the grid."""
    try:
        build_schedule(schedule, g_inter, BATCH // g_data // mbs)
        return AxoNNTrainer(CFG, g_inter, g_data, mbs, schedule=schedule,
                            **kw)
    except ValueError as e:
        pytest.skip(f"{schedule} rejects {g_inter}x{g_data}, mbs {mbs}: {e}")


class TestFlushingTrainer:
    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            AxoNNTrainer(CFG, 2, 1, 2, schedule="wave")
        with pytest.raises(ValueError):
            AxoNNTrainer(CFG, 2, 1, 0, schedule="1f1b")

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    @pytest.mark.parametrize("g_inter,g_data,mbs", [
        (2, 1, 2), (3, 1, 1), (2, 2, 2), (4, 2, 1),
    ])
    def test_matches_serial(self, schedule, g_inter, g_data, mbs):
        """Flushing preserves exact optimizer semantics: same losses as
        the serial reference at every grid shape, under every schedule."""
        batches = make_batches()
        serial = SerialTrainer(CFG, lr=1e-3)
        flush = make_trainer(schedule, g_inter, g_data, mbs, lr=1e-3)
        for i in range(3):
            x, y = batches.batch(i)
            s = serial.train_batch(x, y)
            f = flush.train_batch(x, y).loss
            assert f == pytest.approx(s, rel=2e-4)

    def test_matches_message_driven_axonn(self):
        """The three schedulers (serial, message-driven, static flush)
        compute the identical update — the paper's comparison is purely
        about time."""
        batches = make_batches()
        axonn = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2,
                             lr=1e-3)
        a_losses = [axonn.train_batch(*batches.batch(i)).loss
                    for i in range(3)]
        a_state = axonn.gather_state()
        for schedule in SCHEDULE_NAMES:
            flush = make_trainer(schedule, 2, 2, 2, lr=1e-3)
            for i, a in enumerate(a_losses):
                f = flush.train_batch(*batches.batch(i)).loss
                assert f == pytest.approx(a, rel=1e-5), schedule
            f_state = flush.gather_state()
            for k in a_state:
                np.testing.assert_allclose(f_state[k], a_state[k], rtol=1e-5,
                                           atol=1e-7,
                                           err_msg=f"{schedule}: {k}")

    def test_gpipe_equals_1f1b_numerically(self):
        batches = make_batches()
        a = make_trainer("1f1b", 3, 1, 1)
        b = make_trainer("gpipe", 3, 1, 1)
        for i in range(2):
            x, y = batches.batch(i)
            la = a.train_batch(x, y).loss
            lb = b.train_batch(x, y).loss
            assert la == pytest.approx(lb, rel=1e-6)

    def test_batch_divisibility_checked(self):
        """One ``split_batch``: under either walk the trainer refuses a
        batch that does not divide across G_data, or a shard across
        microbatches."""
        x = np.zeros((6, CFG.seq_len), dtype=np.int64)
        for trainer in (AxoNNTrainer(CFG, 2, 2, 2, schedule="1f1b"),
                        AxoNNTrainer(CFG, g_inter=2, g_data=2,
                                     microbatch_size=2)):
            with pytest.raises(ValueError, match="not divisible"):
                trainer.train_batch(x[:5], x[:5])
            with pytest.raises(ValueError, match="not divisible"):
                trainer.train_batch(x, x)

    def test_checkpointed_flush_matches(self):
        x, y = make_batches().batch(0)
        for schedule in SCHEDULE_NAMES:
            plain = make_trainer(schedule, 2, 1, 2)
            ckpt = make_trainer(schedule, 2, 1, 2,
                                checkpoint_activations=True)
            assert ckpt.train_batch(x, y).loss == pytest.approx(
                plain.train_batch(x, y).loss, rel=1e-5), schedule

    def test_training_converges(self):
        batches = make_batches()
        t = make_trainer("1f1b", 2, 2, 2, lr=5e-3)
        losses = [t.train_batch(*batches.batch(i)).loss for i in range(15)]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])
