"""Partition arithmetic shared by both substrates (standard library only).

One convention splits every sharded dimension in the package: ``n``
items over ``k`` shards, sizes differing by at most one, larger shards
first.  :func:`split_sizes` is that convention; the functional runtime
splits layer slots (:func:`~repro.runtime.stage.partition_layers`) and
attention heads / MLP columns (:mod:`repro.runtime.tp`) with it, and
the performance model splits transformer layers over pipeline stages
with it.

The paper's activation-checkpointing rule lives here too:
:func:`optimal_checkpoint_interval` computes ``ac = sqrt(N)`` (Eq. 1) as
the factor of ``layers_per_gpu`` closest to ``sqrt(N)``, which minimizes
the per-GPU activation memory

    M_activation  ∝  G_inter * N / (G_inter * ac) + 1 + ac .
"""

from __future__ import annotations

import math
from typing import List

__all__ = ["split_sizes", "factors", "optimal_checkpoint_interval",
           "activation_memory_factor"]


def split_sizes(n: int, k: int) -> List[int]:
    """Split ``n`` into ``k`` near-equal shard sizes, larger shards first.

    Uneven dimensions are legal: ``split_sizes(10, 4) == [3, 3, 2, 2]``.
    Only ``k > n`` is rejected — an empty shard would hold no layer and
    send empty collectives."""
    if k < 1:
        raise ValueError(f"cannot split {n} into {k} < 1 shards")
    if k > n:
        raise ValueError(f"cannot split {n} across {k} shards")
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


def factors(n: int) -> List[int]:
    """Sorted positive factors of ``n``."""
    if n < 1:
        raise ValueError(f"factors of non-positive {n}")
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def optimal_checkpoint_interval(n_layers_total: int,
                                layers_per_gpu: int) -> int:
    """The paper's rule: the factor of ``layers_per_gpu`` closest to
    ``sqrt(N)`` (Section V-A), N being the total layer count."""
    if layers_per_gpu < 1 or n_layers_total < 1:
        raise ValueError("layer counts must be positive")
    target = math.sqrt(n_layers_total)
    return min(factors(layers_per_gpu), key=lambda f: (abs(f - target), f))


def activation_memory_factor(n_layers_total: int, g_inter: int,
                             ac: int) -> float:
    """The paper's Eq. (1) activation-memory proportionality:

        M ∝ G_inter * (N / (G_inter * ac)) + 1 + ac
    """
    if ac < 1:
        raise ValueError("ac must be >= 1")
    return g_inter * (n_layers_total / (g_inter * ac)) + 1 + ac
