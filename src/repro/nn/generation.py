"""Autoregressive generation from a trained GPT.

Causal language models are trained to predict the next token; this module
closes the loop with greedy / temperature / top-k sampling so examples can
demonstrate that a model trained by the parallel runtime actually learned
the corpus statistics (the Markov structure of the synthetic data shows up
directly in the samples).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .tensor import no_grad
from .transformer import GPT, KVCache

__all__ = ["generate", "sample_token", "sequence_log_prob"]


def sample_token(logits_row: np.ndarray, temperature: float = 1.0,
                 top_k: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 greedy: bool = False) -> int:
    """Draw the next token id from one vocab-sized logits row.

    All math runs in float64 from an explicit cast of the raw logits, so
    any producer of bit-identical logits draws bit-identical tokens from
    the same RNG stream.  Shared by :func:`generate` and the serving engine
    (`repro.serve`) — token-for-token equivalence between the two paths is
    by construction, not by accident.
    """
    last = np.asarray(logits_row).astype(np.float64)
    if greedy:
        return int(np.argmax(last))
    if rng is None:
        raise ValueError("sampling requires an explicit rng (or greedy=True)")
    last = last / temperature
    if top_k is not None and top_k < last.size:
        cutoff = np.partition(last, -top_k)[-top_k]
        last = np.where(last < cutoff, -np.inf, last)
    last -= last.max()
    probs = np.exp(last)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def generate(model: GPT, prompt: np.ndarray, max_new_tokens: int,
             temperature: float = 1.0, top_k: Optional[int] = None,
             rng: Optional[np.random.Generator] = None,
             greedy: bool = False, use_cache: bool = True) -> np.ndarray:
    """Continue ``prompt`` (1-D int array) by ``max_new_tokens`` tokens.

    ``greedy=True`` takes the argmax; otherwise samples from the softmax at
    the given ``temperature``, optionally truncated to the ``top_k`` most
    likely tokens.  The context is cropped to the model's ``seq_len``.

    With ``use_cache=True`` (the default) decode is incremental: the prompt
    is prefetched in one batched forward that fills per-layer KV caches and
    each subsequent step feeds only the newest token — O(n) attention per
    token instead of re-running the full O(n^2) forward.  Once the sequence
    outgrows ``seq_len`` the loop falls back to the sliding-window full
    recompute, matching the uncached path exactly.
    """
    prompt = np.asarray(prompt)
    if prompt.ndim != 1 or prompt.size == 0:
        raise ValueError("prompt must be a non-empty 1-D token array")
    if prompt.max() >= model.cfg.vocab_size or prompt.min() < 0:
        raise ValueError("prompt token outside vocabulary")
    if max_new_tokens < 0:
        raise ValueError("max_new_tokens must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    rng = rng or np.random.default_rng(0)
    was_training = model.training
    model.eval()
    tokens = prompt.astype(np.int64).tolist()
    cache: Optional[KVCache] = None
    try:
        for _ in range(max_new_tokens):
            with no_grad():
                if use_cache and len(tokens) <= model.cfg.seq_len:
                    if cache is None:
                        cache = KVCache(model.cfg, batch_size=1)
                        context = np.asarray(tokens)[None, :]
                    else:
                        context = np.asarray(tokens[-1:])[None, :]
                    logits, _ = model(context, cache=cache)
                else:
                    context = np.asarray(tokens[-model.cfg.seq_len:])[None, :]
                    logits, _ = model(context)
            tokens.append(sample_token(logits.data[0, -1], temperature,
                                       top_k, rng, greedy))
    finally:
        model.train(was_training)
    return np.asarray(tokens, dtype=np.int64)


def sequence_log_prob(model: GPT, tokens: np.ndarray) -> float:
    """Mean per-token log probability the model assigns to ``tokens``
    (negated cross entropy) — the quantity behind perplexity."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size < 2:
        raise ValueError("need a 1-D sequence of at least two tokens")
    if tokens.size > model.cfg.seq_len + 1:
        raise ValueError("sequence longer than the model context")
    x = tokens[None, :-1]
    y = tokens[None, 1:]
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            logits, _ = model(x)
            loss = F.cross_entropy(logits, y)
    finally:
        model.train(was_training)
    return -loss.item()
