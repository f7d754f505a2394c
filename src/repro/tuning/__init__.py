"""Hyperparameter tuning (the Table II search).

Public surface: :func:`tune` (one search for every framework),
:func:`grid_candidates` (the one enumerator, which
:func:`repro.experiments.sweep_4d` also walks) over a framework's
:func:`search_space`, :func:`divisors`, :class:`TuningResult`.
"""

from .search import (TuningResult, divisors, grid_candidates, search_space,
                     tune)

__all__ = [
    "TuningResult",
    "divisors",
    "grid_candidates",
    "search_space",
    "tune",
]
