"""Experiment: Fig. 10 — training-validation loss curves.

The paper trains GPT-2 small on wikitext-103 to completion with serial
PyTorch and with AxoNN on 12 GPUs (G_inter = 2) and shows the loss curves
coincide — validating that the parallelization preserves optimizer
semantics.

Our functional substitution: a scaled-down GPT (the numerics are
architecture-size independent) on the seeded synthetic Zipf-Markov corpus,
trained with the serial reference trainer and with the message-driven
:class:`~repro.runtime.AxoNNTrainer` in the paper's hybrid shape
(G_inter = 2, data parallelism for the rest).

The same serial reference is the acceptance oracle of the schedule
search (:mod:`repro.sched.search`): :func:`replay_winner` trains the
searched winner and compares its losses with serial training."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..nn import GPTConfig, LMBatches, SyntheticCorpus
from ..runtime import AxoNNTrainer, SerialTrainer
from ..sched import Schedule
from ..sched.metrics import peak_resident_activations

__all__ = ["fig10_curves", "fig10_claims", "replay_winner",
           "VALIDATION_CONFIG"]

#: Scaled-down GPT-2-style model for the validation run.
VALIDATION_CONFIG = GPTConfig(vocab_size=64, seq_len=16, n_layer=4,
                              n_head=4, hidden=32, dropout=0.0,
                              init_seed=2022)


def fig10_curves(n_batches: int = 30, batch_size: int = 12,
                 g_inter: int = 2, g_data: int = 2,
                 microbatch_size: int = 2,
                 cfg: GPTConfig = VALIDATION_CONFIG,
                 lr: float = 1e-3, seed: int = 0) -> Dict[str, List[float]]:
    """Train serially and with AxoNN on identical data; return both loss
    curves."""
    corpus = SyntheticCorpus(cfg.vocab_size, 20_000, seed=seed)
    batches = LMBatches(corpus, batch_size=batch_size, seq_len=cfg.seq_len)
    serial = SerialTrainer(cfg, lr=lr)
    parallel = AxoNNTrainer(cfg, g_inter=g_inter, g_data=g_data,
                            microbatch_size=microbatch_size, lr=lr)
    serial_losses, parallel_losses = [], []
    for i in range(n_batches):
        x, y = batches.batch(i)
        serial_losses.append(serial.train_batch(x, y))
        parallel_losses.append(parallel.train_batch(x, y).loss)
    return {"serial": serial_losses, "axonn": parallel_losses}


def fig10_claims(curves: Dict[str, List[float]]) -> Dict[str, bool]:
    serial = np.asarray(curves["serial"])
    axonn = np.asarray(curves["axonn"])
    n = len(serial)
    return {
        "curves_coincide": bool(
            np.allclose(serial, axonn, rtol=5e-4, atol=5e-4)),
        "training_converges": bool(
            np.mean(serial[-max(1, n // 5):])
            < np.mean(serial[:max(1, n // 5)])),
    }


def replay_winner(winner: Schedule, cfg=None, n_batches: int = 2,
                  batch_size: int = 8, rel_tol: float = 2e-4
                  ) -> Dict[str, object]:
    """Acceptance oracle: train the winner, compare to serial training.

    Any valid schedule computes the same update (the schedule only
    reorders work), so the winner's per-batch losses must match the
    serial full-batch reference — which shares no pipeline code with
    the candidate — to numerical tolerance.  Raises RuntimeError on
    divergence; returns a replay report otherwise.
    """
    if cfg is None:
        n_layer = max(winner.n_virtual, 4)
        cfg = GPTConfig(vocab_size=19, seq_len=8, n_layer=n_layer,
                        n_head=2, hidden=12, dropout=0.0, init_seed=11)
    m = winner.n_microbatches
    if batch_size % m != 0:
        batch_size = m
    mbs = batch_size // m
    corpus = SyntheticCorpus(cfg.vocab_size, 4000, seed=0)
    batches = LMBatches(corpus, batch_size=batch_size, seq_len=cfg.seq_len)
    ref = SerialTrainer(cfg)
    cand = AxoNNTrainer(cfg, g_inter=winner.n_stages, g_data=1,
                        microbatch_size=mbs, schedule=winner)
    ref_losses, cand_losses = [], []
    for i in range(n_batches):
        x, y = batches.batch(i)
        ref_losses.append(ref.train_batch(x, y))
        cand_losses.append(cand.train_batch(x, y).loss)
    for a, b in zip(ref_losses, cand_losses):
        if not np.isfinite(b) or abs(a - b) > rel_tol * abs(a):
            raise RuntimeError(
                f"replay diverged: {winner.name} loss {b} vs serial {a}")
    return {
        "schedule": winner.name,
        "n_stages": winner.n_stages,
        "n_microbatches": m,
        "losses": cand_losses,
        "reference_losses": ref_losses,
        "peak_resident_activations": list(
            peak_resident_activations(winner)),
        "accepted": True,
    }
