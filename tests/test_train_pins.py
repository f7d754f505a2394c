"""Exact pins of the message-driven trainer's numerics.

Recorded on the tree *before* Algorithm 2 started running the
microbatches that have arrived as one stacked pass (parent 51ba2fa),
so that change is held to the last bit: every loss is the ``repr`` of
the float the parent returned, compared with ``==``, and every array of
``gather_state()`` is pinned by a digest of its bytes, shape and dtype —
equal digests are ``np.array_equal`` against the parent's arrays.

Each case trains ``AxoNNTrainer`` (message-driven walk, cooperative
backend) for three steps.  The dropout cases are the ones that catch a
wrong dropout draw order; the checkpointed ones a replay that draws
different masks.  Nothing here may be re-recorded by a refactor.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.runtime import AxoNNTrainer

#: the spine's ``train_hybrid_coop`` model
SPINE_CFG = GPTConfig(vocab_size=64, seq_len=32, n_layer=4, n_head=4,
                      hidden=64)
#: a small model with two blocks per stage at g_inter=4
WET_CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=6, n_head=2,
                    hidden=12, dropout=0.1, init_seed=5)

#: name -> (config, trainer keyword arguments, batch size)
CASES = {
    "hybrid_coop": (SPINE_CFG, dict(g_inter=2, g_data=2,
                                    microbatch_size=1), 16),
    **{f"g{g}_dropout{'_ckpt' if ckpt else ''}":
       (WET_CFG, dict(g_inter=g, g_data=2, microbatch_size=1,
                      checkpoint_activations=ckpt), 16)
       for g in (2, 4) for ckpt in (False, True)},
    "mixed": (WET_CFG, dict(g_inter=2, g_data=2, microbatch_size=1,
                            precision="mixed"), 12),
}


def slot_digests(state):
    """Layer slot -> digest of its parameters' names, shapes, dtypes and
    bytes (a changed digest names the slot whose arrays moved)."""
    digests = {}
    for name in sorted(state):
        arr = state[name]
        h = digests.setdefault(name.split(".")[0], hashlib.sha256())
        h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return {slot: h.hexdigest()[:16] for slot, h in digests.items()}


def run_case(name):
    """(three step losses, slot digests of ``gather_state()``)."""
    cfg, kwargs, batch_size = CASES[name]
    batches = LMBatches(SyntheticCorpus(cfg.vocab_size, 4000, seed=1),
                        batch_size=batch_size, seq_len=cfg.seq_len)
    trainer = AxoNNTrainer(cfg, **kwargs)
    losses = [trainer.train_batch(*batches.batch(i)).loss for i in range(3)]
    return losses, slot_digests(trainer.gather_state())


#: the parent's numerics depend neither on g_inter nor on checkpointing,
#: so the four dropout cases share one pin
DROPOUT_PIN = (
    [2.9555099457502365, 2.9239237010478973, 2.927588403224945],
    {"slot0": "f178d4dd7380fce2", "slot1": "707a38441197edeb",
     "slot2": "a04e0810140ef150", "slot3": "b677621dce6b4a7a",
     "slot4": "833607d3a9679f8a", "slot5": "ef54fe7b7e4f0f0d",
     "slot6": "3787eab1c02c6aa9", "slot7": "11885c95f8df5fe6"})

PINS = {
    "hybrid_coop": (
        [4.170209765434265, 4.051596283912659, 3.9790101498365402],
        {"slot0": "2996b55d777f63a2", "slot1": "c2f69d8e49565f22",
         "slot2": "c1baaa2ea0da820e", "slot3": "e3bb9b97a8366adb",
         "slot4": "822765b440e2367f", "slot5": "601861d80dcd0a7b"}),
    "mixed": (
        [2.9521792382001877, 2.9178199768066406, 2.9278737008571625],
        {"slot0": "991657fef3660d04", "slot1": "5daafa073a8bf7fe",
         "slot2": "f57db956c8185146", "slot3": "396c253c6d560edc",
         "slot4": "cdf867981d534c5b", "slot5": "eb6e3087d465650e",
         "slot6": "92de63aac7cc4c68", "slot7": "c82bbbe1ea02022a"}),
    **{name: DROPOUT_PIN for name in CASES if "dropout" in name},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trainer_matches_parent_bit_for_bit(name):
    losses, state = run_case(name)
    want_losses, want_state = PINS[name]
    assert losses == want_losses
    assert state == want_state


def test_mixed_case_is_loss_scaled():
    """The mixed row runs the loss-scaled fp16 path, not fp32 twice."""
    cfg, kwargs, _ = CASES["mixed"]
    assert AxoNNTrainer(cfg, **kwargs).scaler.scale > 1.0
