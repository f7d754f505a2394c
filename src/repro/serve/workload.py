"""Synthetic serving workloads: seeded request mixes and arrival processes.

Two independent seeded streams, so the same request mix can be replayed
under different arrival intensities:

* :func:`make_requests` — deterministic request parameters (prompt tokens,
  generation budgets, sampling settings) for the functional engine and the
  DES twin alike;
* :class:`ArrivalSpec` — an arrival-process description consumed by
  :func:`repro.sim.poisson_process`: constant-rate Poisson, a bursty
  on/off modulated Poisson (rate multiplied by ``burst_factor`` during the
  "on" fraction of each period — a square-wave intensity), a *diurnal*
  sinusoidally modulated Poisson (multi-hour period, the fleet
  autoscaling workload), or a *flash crowd* (a sudden rate spike that
  decays exponentially back to the base rate).

Every kind is a seeded inhomogeneous Poisson process driven by the same
sequential-exponential sampler, so :meth:`ArrivalSpec.sample_times`
reproduces — draw for draw — the arrival instants the DES's
:func:`repro.sim.poisson_process` generates from the same spec.  That is
what lets a functional-substrate fleet run replay the exact trace a DES
sweep was scored on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..nn import GPTConfig
from .engine import Request

__all__ = ["ARRIVAL_KINDS", "ArrivalSpec", "RequestSpec", "make_requests",
           "request_sizes"]


@dataclass(frozen=True)
class RequestSpec:
    """Size/sampling distribution of the synthetic request mix."""

    mean_prompt: int = 8         #: mean prompt length (geometric-ish)
    mean_new_tokens: int = 8     #: mean generation budget
    greedy_fraction: float = 0.5  #: fraction of requests decoded greedily
    seed: int = 0

    def __post_init__(self):
        if self.mean_prompt < 1 or self.mean_new_tokens < 1:
            raise ValueError("mean prompt/new-token lengths must be >= 1")
        if not 0.0 <= self.greedy_fraction <= 1.0:
            raise ValueError("greedy_fraction must be in [0, 1]")


def request_sizes(seq_len: int, spec: RequestSpec,
                  rng: np.random.Generator) -> Tuple[int, int]:
    """One request's ``(prompt_len, max_new_tokens)`` from ``spec``'s
    geometric distributions, clipped so their sum fits ``seq_len`` (the
    engine's admission contract).  Two draws, prompt first — the order
    every seeded trace, functional or DES, depends on."""
    p = int(min(1 + rng.geometric(1.0 / spec.mean_prompt), seq_len - 1))
    m = int(min(1 + rng.geometric(1.0 / spec.mean_new_tokens),
                seq_len - p))
    return p, m


def make_requests(cfg: GPTConfig, n: int,
                  spec: Optional[RequestSpec] = None) -> List[Request]:
    """``n`` deterministic requests drawn from ``spec``'s distributions.

    Lengths come from :func:`request_sizes`; each request gets its own
    sampling seed derived from the spec seed and its id.
    """
    spec = spec or RequestSpec()
    rng = np.random.default_rng(spec.seed)
    requests = []
    for rid in range(n):
        p, m = request_sizes(cfg.seq_len, spec, rng)
        prompt = rng.integers(0, cfg.vocab_size, size=p)
        greedy = bool(rng.random() < spec.greedy_fraction)
        requests.append(Request(
            rid=rid, prompt=prompt, max_new_tokens=m,
            temperature=float(rng.uniform(0.7, 1.3)),
            top_k=int(rng.integers(2, max(3, cfg.vocab_size // 2)))
            if rng.random() < 0.5 else None,
            greedy=greedy, seed=spec.seed * 1_000_003 + rid))
    return requests


#: arrival-process shapes understood by :class:`ArrivalSpec`
ARRIVAL_KINDS = ("poisson", "diurnal", "flash")


@dataclass(frozen=True)
class ArrivalSpec:
    """Seeded (possibly modulated) Poisson arrival process.

    ``rate_per_s`` is the *base* arrival rate; ``kind`` selects how the
    instantaneous rate moves around it:

    ``poisson``
        constant rate, or — with ``burst_factor > 1`` — a square wave of
        period ``burst_period_s``: ``burst_factor`` times the base rate
        during the first ``burst_fraction`` of each period and
        proportionally less in the remainder, so the long-run mean stays
        ``rate_per_s``.
    ``diurnal``
        sinusoidal modulation ``rate * (1 + amplitude *
        sin(2*pi*t/period))`` with a multi-hour ``diurnal_period_s`` —
        the canonical day/night demand curve the fleet autoscaler is
        sized against.  ``diurnal_phase`` shifts where in the cycle the
        run starts (0 starts at the mean on the way up).
    ``flash``
        flash crowd: base rate until ``flash_at_s``, then an instantaneous
        jump to ``flash_factor`` times the base that decays back
        exponentially with time constant ``flash_decay_s`` — a spike with
        a heavy shoulder, the anti-diurnal stress case.
    """

    rate_per_s: float
    seed: int = 0
    burst_factor: float = 1.0
    burst_period_s: float = 10.0
    burst_fraction: float = 0.3
    kind: str = "poisson"
    # diurnal parameters
    diurnal_period_s: float = 4 * 3600.0
    diurnal_amplitude: float = 0.8
    diurnal_phase: float = 0.0
    # flash-crowd parameters
    flash_at_s: float = 60.0
    flash_factor: float = 5.0
    flash_decay_s: float = 30.0

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r}; "
                             f"expected one of {ARRIVAL_KINDS}")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.burst_period_s <= 0:
            raise ValueError("burst_period_s must be positive")
        if self.burst_factor * self.burst_fraction >= 1.0 and \
                self.burst_factor > 1.0:
            raise ValueError(
                "burst_factor * burst_fraction must stay < 1 so the "
                "off-phase rate remains positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1) so the "
                             "overnight rate stays positive")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if self.flash_factor < 1.0:
            raise ValueError("flash_factor must be >= 1")
        if self.flash_at_s < 0 or self.flash_decay_s <= 0:
            raise ValueError("flash_at_s must be >= 0 and flash_decay_s "
                             "positive")

    def rate_at(self, now: float) -> float:
        """Instantaneous arrival rate at simulated time ``now``."""
        base = self.rate_per_s
        if self.kind == "diurnal":
            phase = 2.0 * np.pi * (now / self.diurnal_period_s) \
                + self.diurnal_phase
            return base * (1.0 + self.diurnal_amplitude * np.sin(phase))
        if self.kind == "flash":
            if now < self.flash_at_s:
                return base
            decay = np.exp(-(now - self.flash_at_s) / self.flash_decay_s)
            return base * (1.0 + (self.flash_factor - 1.0) * decay)
        if self.burst_factor == 1.0:
            return base
        hi = base * self.burst_factor
        lo = base * (1.0 - self.burst_factor * self.burst_fraction) / \
            (1.0 - self.burst_fraction)
        phase = (now % self.burst_period_s) / self.burst_period_s
        return hi if phase < self.burst_fraction else lo

    def mean_interarrival(self) -> Callable[[float], float]:
        """The ``mean_interval_s(now)`` callable for
        :func:`repro.sim.poisson_process`."""
        if self.kind == "poisson" and self.burst_factor == 1.0:
            base = self.rate_per_s
            return lambda _now: 1.0 / base
        return lambda now: 1.0 / self.rate_at(now)

    def sample_times(self, horizon_s: float) -> List[float]:
        """The arrival instants in ``[0, horizon_s)`` — exactly the times
        :func:`repro.sim.poisson_process` fires for this spec.

        Replays the DES's draw order (one exponential per arrival, mean
        re-evaluated at the current time) from a fresh
        ``default_rng(seed)``, so a functional-substrate run consuming
        this list sees the identical trace a DES run was scored on.
        """
        rng = np.random.default_rng(self.seed)
        mean = self.mean_interarrival()
        now, times = 0.0, []
        while True:
            now += float(rng.exponential(mean(now)))
            if now >= horizon_s:
                return times
            times.append(now)
