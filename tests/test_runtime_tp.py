"""4D runtime tests: the tensor-parallel axis on the rank transport.

The gather-whole-weights protocol makes ``g_intra > 1`` compute exactly
the same floating-point operations in the same order as the dense
``g_intra = 1`` stage, so every comparison here is exact equality, not
approx.  The TP collectives must also be booked exactly once per group
member in the shared ``tp.*`` counter namespace, and checkpoints must
round-trip under a TP grid (and be rejected across grid shapes).
"""

import numpy as np
import pytest

from repro.nn import GPTConfig, LossScaler
from repro.perf import counters, counting
from repro.runtime import (
    AxoNNTrainer,
    load_trainer_state,
    trainer_state_dict,
)
from repro.sched import SCHEDULE_NAMES, schedule_chunks

# Three heads: a 2-way TP split shards them unevenly ([2, 1]), which is
# exactly the case the split_sizes fix covers on the runtime path.
CFG = GPTConfig(vocab_size=19, seq_len=6, n_layer=2, n_head=3, hidden=12,
                dropout=0.1, init_seed=21)


def make_batches(n, batch=4, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len)),
             rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len)))
            for _ in range(n)]


def run(g_inter, g_data, g_intra, steps=3, backend="cooperative", **kw):
    trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                           microbatch_size=2, g_intra=g_intra, lr=1e-3,
                           backend=backend, **kw)
    try:
        losses = [trainer.train_batch(x, y).loss
                  for x, y in make_batches(steps)]
        return losses, trainer.gather_state()
    finally:
        trainer.close()


class TestBitIdentityToDense:
    def test_tp2_uneven_heads_fp32(self):
        dense_losses, dense_state = run(2, 1, 1)
        tp_losses, tp_state = run(2, 1, 2)
        assert tp_losses == dense_losses
        assert set(tp_state) == set(dense_state)
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)

    def test_tp3_with_data_parallelism(self):
        dense_losses, dense_state = run(1, 2, 1)
        tp_losses, tp_state = run(1, 2, 3)
        assert tp_losses == dense_losses
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)

    def test_tp2_mixed_precision(self):
        kw = dict(precision="mixed",
                  loss_scaler=LossScaler(init_scale=64, dynamic=False))
        dense_losses, dense_state = run(2, 1, 1, **kw)
        kw["loss_scaler"] = LossScaler(init_scale=64, dynamic=False)
        tp_losses, tp_state = run(2, 1, 2, **kw)
        assert tp_losses == dense_losses
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)


    @pytest.mark.parametrize("precision", ["fp32", "mixed"])
    @pytest.mark.parametrize("backend", ["cooperative", "process"])
    @pytest.mark.parametrize(
        "schedule", [s for s in SCHEDULE_NAMES if schedule_chunks(s) == 1])
    def test_tp2_under_a_static_schedule(self, schedule, backend, precision):
        """The 4D paper's own configuration: a static order's lead
        emits the same collectives around the same passes, so sharding
        stays invisible to the numbers under every single-chunk order."""
        dense_losses, dense_state = run(2, 1, 1, steps=2, schedule=schedule,
                                        precision=precision)
        tp_losses, tp_state = run(2, 1, 2, steps=2, schedule=schedule,
                                  precision=precision, backend=backend)
        assert tp_losses == dense_losses
        assert set(tp_state) == set(dense_state)
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)


class TestCollectiveAccounting:
    def test_tp_counters_booked_once_per_member(self):
        """One allgather and one reduce-scatter record per group member
        per microbatch — no double-booking between the trace sink, the
        perf counters and the obs stream."""
        g_inter, g_data, g_intra = 2, 1, 2
        trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                               microbatch_size=2, g_intra=g_intra, lr=1e-3)
        (x, y), = make_batches(1)
        with counting():
            trainer.train_batch(x, y)
            snap = counters.snapshot()
        m = x.shape[0] // g_data // 2  # microbatches per shard
        expected = g_inter * g_data * g_intra * m
        assert snap["tp.allgather"] == expected
        assert snap["tp.reduce_scatter"] == expected
        assert snap["tp.allgather_bytes"] > 0
        assert snap["tp.reduce_scatter_bytes"] > 0

    def test_dense_run_books_no_tp_collectives(self):
        trainer = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                               lr=1e-3)
        (x, y), = make_batches(1)
        with counting():
            trainer.train_batch(x, y)
            snap = counters.snapshot()
        assert not any(k.startswith("tp.") for k in snap)


class TestCheckpointing:
    def test_round_trip_under_tp_grid(self):
        batches = make_batches(4)
        original = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                                g_intra=2, lr=1e-3)
        for x, y in batches[:2]:
            original.train_batch(x, y)
        snapshot = trainer_state_dict(original)

        resumed = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                               g_intra=2, lr=1e-3)
        load_trainer_state(resumed, snapshot)
        assert resumed.batches_trained == 2

        for x, y in batches[2:]:
            original.train_batch(x, y)
            resumed.train_batch(x, y)
        a = original.gather_state()
        b = resumed.gather_state()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    def test_g_intra_mismatch_rejected(self):
        tp = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                          g_intra=2, lr=1e-3)
        snapshot = trainer_state_dict(tp)
        dense = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                             lr=1e-3)
        with pytest.raises(ValueError, match="grid mismatch"):
            load_trainer_state(dense, snapshot)


def test_process_backend_tp_matches_cooperative_dense():
    """Real OS-process ranks under a TP grid reproduce the cooperative
    dense losses and weights bit-for-bit (2 stages x 2-way TP = 4
    workers)."""
    dense_losses, dense_state = run(2, 1, 1, steps=2)
    proc_losses, proc_state = run(2, 1, 2, steps=2, backend="process")
    assert proc_losses == dense_losses
    assert set(proc_state) == set(dense_state)
    for key in dense_state:
        np.testing.assert_array_equal(proc_state[key], dense_state[key],
                                      err_msg=key)
