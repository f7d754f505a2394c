"""Evaluation: held-out loss and perplexity for serial and parallel models.

The pipeline-parallel evaluation reuses the inference path of the stages —
a forward-only sweep with no gradient bookkeeping — so a sharded model can
be validated without reassembling it on one device.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..nn import GPT, F, no_grad
from ..nn.data import LMBatches
from .engine import AxoNNTrainer

__all__ = ["evaluate_serial", "evaluate_parallel", "perplexity"]


def perplexity(mean_loss: float) -> float:
    """exp(cross entropy) — the conventional LM quality metric."""
    if not np.isfinite(mean_loss):
        raise ValueError("loss must be finite")
    return math.exp(mean_loss)


def evaluate_serial(model: GPT, batches: LMBatches, n_batches: int,
                    start_index: int = 10_000) -> Dict[str, float]:
    """Mean loss / perplexity of ``model`` over held-out batches.

    ``start_index`` offsets the batch stream so evaluation windows never
    coincide with the training batches (index-disjoint by construction).
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    was_training = model.training
    model.eval()
    losses = []
    try:
        for i in range(n_batches):
            x, y = batches.batch(start_index + i)
            with no_grad():
                logits, _ = model(x)
                losses.append(F.cross_entropy(logits, y).item())
    finally:
        model.train(was_training)
    mean = float(np.mean(losses))
    return {"loss": mean, "perplexity": perplexity(mean),
            "n_batches": n_batches}


def evaluate_parallel(trainer: AxoNNTrainer, batches: LMBatches,
                      n_batches: int,
                      start_index: int = 10_000) -> Dict[str, float]:
    """Pipeline-parallel evaluation: forward-only sweep through pipeline 0.

    Each evaluation batch flows through the stage shards sequentially (no
    microbatching or overlap is needed for a correctness metric); losses
    come out of the last stage exactly as in training.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    grid = trainer.grid
    chunks = {}  # virtual stage -> chunk; a rank may hold several
    for i in range(grid.g_inter):
        chunks.update(trainer.stages[grid.rank_of(i, 0)].chunks)
    stages = [chunks[v] for v in sorted(chunks)]
    head = stages[-1].layers[-1]
    losses = []
    for b in range(n_batches):
        x, y = batches.batch(start_index + b)
        data = np.asarray(x)[None]  # a group of one
        for stage in stages:
            for layer in stage.layers:
                if layer is not head:
                    data, _ = layer.group_forward(data, save=False)
        loss, _ = head.group_loss(data, np.asarray(y)[None], 1.0)
        losses.append(float(loss[0]))
    mean = float(np.mean(losses))
    return {"loss": mean, "perplexity": perplexity(mean),
            "n_batches": n_batches}
