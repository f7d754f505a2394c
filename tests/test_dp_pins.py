"""Exact pins of Algorithm 1's data-parallel phase and optimizer step.

Recorded on the tree where the parent process still reduced every
column's gradients and stepped every optimizer itself, so moving that
work into the rank workers is held to the last bit: every loss is the
``repr`` of the float that tree returned, compared with ``==``, and
``gather_state()`` is pinned by one sha256 over every array's name,
dtype, shape and bytes.

Each case trains ``AxoNNTrainer`` for three steps on both backends, and
both backends share one pin.  The grids are ``(g_inter, g_data,
g_intra)``: an fp32 pipeline with nothing to reduce, a mixed-precision
2x2 grid with dropout (fp16 chunked reduce, overflow skip), and a
data-parallel pair under the bucketed CPU-offload optimizer.  Nothing
here may be re-recorded by a refactor.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import GPTConfig, LMBatches, LossScaler, SyntheticCorpus
from repro.runtime import AxoNNTrainer

DRY_CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=2, n_head=2,
                    hidden=12, init_seed=5)
WET_CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=2, n_head=2,
                    hidden=12, dropout=0.1, init_seed=5)

#: name -> (config, trainer keyword arguments); a mixed-precision case
#: starts its loss scale at 2**17 so one of its three steps overflows and
#: is skipped (the first under plain mixed precision, the second under
#: offload, after a step has already moved the optimizer state)
CASES = {
    "2x1x1_fp32": (DRY_CFG, dict(g_inter=2, g_data=1, microbatch_size=2)),
    "2x2x1_mixed_dropout": (WET_CFG, dict(
        g_inter=2, g_data=2, microbatch_size=1, precision="mixed",
        bucket_size=64, coarsening_k=2)),
    "1x2x1_offload": (DRY_CFG, dict(
        g_inter=1, g_data=2, microbatch_size=2, precision="mixed",
        offload=True, bucket_size=64, coarsening_k=2)),
}


def state_digest(state):
    h = hashlib.sha256()
    for name in sorted(state):
        arr = state[name]
        h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_case(name, backend):
    """(three step losses, sha256 of ``gather_state()``)."""
    cfg, kwargs = CASES[name]
    batches = LMBatches(SyntheticCorpus(cfg.vocab_size, 4000, seed=1),
                        batch_size=8, seq_len=cfg.seq_len)
    if kwargs.get("precision") == "mixed":
        kwargs = dict(kwargs, loss_scaler=LossScaler(init_scale=2.0 ** 17))
    trainer = AxoNNTrainer(cfg, backend=backend, **kwargs)
    try:
        losses = [trainer.train_batch(*batches.batch(i)).loss
                  for i in range(3)]
        return losses, state_digest(trainer.gather_state())
    finally:
        trainer.close()


PINS = {
    "2x1x1_fp32": (
        [2.957761287689209, 2.9425623416900635, 2.947910487651825],
        "40233c29afdfb655368953c1034518a3a4c76ca84264f75a13da40b399ff8700"),
    "2x2x1_mixed_dropout": (
        [2.9612208902835846, 2.9531331956386566, 2.9576699435710907],
        "0cefdb6b453779af4ee5a0f1a30a84235fa4c63ebcd50b425f30a5ee9586f26a"),
    "1x2x1_offload": (
        [2.957761287689209, 2.9425623416900635, 2.9560516476631165],
        "639ae4dfdf19175eb23f4666c5c85d0e1ba3fffbb07c4c3ff1cbeb924dd33d4d"),
}


@pytest.mark.parametrize("backend", ["cooperative", "process"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name, backend):
    assert run_case(name, backend) == PINS[name]
