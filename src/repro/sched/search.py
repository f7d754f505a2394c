"""Schedule search: perturb in the cheap twin, accept on the real one.

The search space is program orderings of the IR: a *perturbation*
swaps two adjacent tasks in one rank's order and keeps the move only
if the validator still accepts the schedule (the dataflow rule, FIFO
discipline and activation limits all survive), so every candidate is
executable by construction.  Candidates — the shipped builders plus
perturbations of the best of them — are scored in the DES under compute
jitter
(makespan first, peak activation residency as tiebreak), and the
winner is *replayed on the functional substrate* against the
independent, unpipelined :class:`~repro.runtime.SerialTrainer`
(:func:`repro.experiments.replay_winner`, which trains models and so
lives above this package): identical losses there are the acceptance
oracle, the same reference every shipped schedule answers to.  A
schedule that searches well but trains differently is a bug, not a win.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from .builders import SCHEDULE_NAMES, build_schedule
from .des import SchedSimResult, simulate_schedule
from .ir import Schedule, ScheduleError, validate

__all__ = ["perturb", "candidate_schedules", "search_schedules",
           "SearchResult"]


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """One scored candidate, ranked by (makespan, peak memory)."""

    schedule: Schedule
    sim: SchedSimResult

    @property
    def name(self) -> str:
        return self.schedule.name

    @property
    def key(self) -> Tuple[float, int]:
        return (self.sim.makespan, self.sim.peak_memory)


def perturb(schedule: Schedule, rng: np.random.Generator,
            n_swaps: int = 4, label: Optional[str] = None) -> Schedule:
    """Random validator-gated adjacent swaps of one rank's order.

    Each attempted swap is kept only if the perturbed schedule still
    validates; invalid moves are reverted, so the result is always a
    runnable schedule (possibly identical to the input when every move
    was rejected).
    """
    orders = [list(order) for order in schedule.rank_order]
    made = 0
    for _ in range(n_swaps * 4):  # budget: invalid moves don't count
        if made >= n_swaps:
            break
        r = int(rng.integers(0, schedule.n_stages))
        if len(orders[r]) < 2:
            continue
        k = int(rng.integers(0, len(orders[r]) - 1))
        orders[r][k], orders[r][k + 1] = orders[r][k + 1], orders[r][k]
        candidate = dataclasses.replace(
            schedule,
            name=label or f"{schedule.name}~perturbed",
            rank_order=tuple(tuple(o) for o in orders))
        try:
            validate(candidate)
        except ScheduleError:
            orders[r][k], orders[r][k + 1] = orders[r][k + 1], orders[r][k]
            continue
        made += 1
    return dataclasses.replace(
        schedule, name=label or f"{schedule.name}~perturbed",
        rank_order=tuple(tuple(o) for o in orders))


def candidate_schedules(n_stages: int, n_microbatches: int) -> List[Schedule]:
    """Every shipped builder that accepts this grid (interleaved needs
    ``m % S == 0`` and at least two stages)."""
    out = []
    for name in SCHEDULE_NAMES:
        try:
            out.append(build_schedule(name, n_stages, n_microbatches))
        except ValueError:
            continue
    return out


def search_schedules(n_stages: int, n_microbatches: int, *,
                     n_perturbations: int = 8, sigma: float = 0.1,
                     seed: int = 0, spec=None,
                     microbatch_size: int = 1) -> List[SearchResult]:
    """Score shipped schedules + perturbations of the best; rank all.

    Returns every scored candidate sorted best-first.  Deterministic
    for a given seed: the jitter stream and the perturbation RNG are
    both seeded.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    rng = np.random.default_rng(seed)
    pool = candidate_schedules(n_stages, n_microbatches)
    if not pool:
        raise ValueError(f"no shipped schedule accepts "
                         f"{n_stages}x{n_microbatches}")

    def score(s: Schedule) -> SearchResult:
        return SearchResult(s, simulate_schedule(
            s, spec=spec, microbatch_size=microbatch_size,
            sigma=sigma, seed=seed))

    scored = sorted((score(s) for s in pool), key=lambda r: r.key)
    base = scored[0].schedule
    for k in range(n_perturbations):
        cand = perturb(base, rng, label=f"{base.name}~p{k}")
        scored.append(score(cand))
    scored.sort(key=lambda r: r.key)
    return scored
