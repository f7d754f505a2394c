"""Failure/checkpoint modeling on the discrete-event substrate.

The performance twin of :mod:`repro.resilience.recovery`: instead of
really crashing rank programs, it models the *throughput* consequences of
faults at paper scale — checkpoint-write cost, Poisson failure arrivals,
and rework-after-rollback — as a discrete-event simulation on
:class:`repro.sim.Environment`.

The training process advances in *segments* of ``interval_steps`` steps
followed by a checkpoint write; a failure process draws exponential
inter-arrival times (seeded, deterministic) and interrupts the trainer,
which loses all work since the last durable checkpoint, pays a restart
cost, and resumes.  Efficiency is useful compute time over total wall
time; the classic first-order optimum for the checkpoint interval is
Young/Daly's :math:`\\sqrt{2 C M}` (checkpoint cost *C*, MTBF *M*), which
the MTBF x interval experiment (:mod:`repro.experiments.resilience`)
compares against the simulated optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..obs import ObsSpan
from ..sim import Environment, Interrupt, poisson_process

__all__ = ["FailureModel", "RunStats", "young_daly_interval_s",
           "young_daly_interval_steps", "simulate_resilient_run",
           "sweep_intervals", "fit_optimal_interval"]


@dataclass(frozen=True)
class FailureModel:
    """Parameters of one resilient training run."""

    step_time_s: float        #: one training step (from the batch model)
    checkpoint_write_s: float  #: durable checkpoint write cost
    restart_s: float          #: node replacement + restore + respawn cost
    mtbf_s: float             #: system mean time between failures
    interval_steps: int       #: steps between checkpoints
    total_steps: int          #: useful steps the run must complete
    seed: int = 0             #: failure-arrival stream seed

    def __post_init__(self):
        if min(self.step_time_s, self.checkpoint_write_s,
               self.restart_s, self.mtbf_s) <= 0:
            raise ValueError("all durations must be positive")
        if self.interval_steps < 1 or self.total_steps < 1:
            raise ValueError("interval/total steps must be >= 1")


@dataclass(frozen=True)
class RunStats:
    """Outcome of one simulated run."""

    total_time_s: float
    useful_time_s: float
    n_failures: int
    n_checkpoints: int
    lost_work_s: float        #: compute thrown away by rollbacks
    checkpoint_time_s: float  #: time spent writing checkpoints
    restart_time_s: float     #: downtime paid to restarts

    @property
    def efficiency(self) -> float:
        return self.useful_time_s / self.total_time_s

    @property
    def overhead(self) -> float:
        """Fractional time lost to faults: total/useful - 1."""
        return self.total_time_s / self.useful_time_s - 1.0


def young_daly_interval_s(mtbf_s: float, checkpoint_write_s: float) -> float:
    """Young's first-order optimal checkpoint interval, in seconds."""
    return math.sqrt(2.0 * checkpoint_write_s * mtbf_s)


def young_daly_interval_steps(mtbf_s: float, checkpoint_write_s: float,
                              step_time_s: float) -> float:
    """The Young/Daly interval expressed in training steps."""
    return young_daly_interval_s(mtbf_s, checkpoint_write_s) / step_time_s


def _trainer_proc(env: Environment, p: FailureModel, st: Dict[str, float],
                  spans: Optional[List[ObsSpan]]):
    done = 0
    while done < p.total_steps:
        seg = min(p.interval_steps, p.total_steps - done)
        work = seg * p.step_time_s + p.checkpoint_write_s
        t0 = env.now
        try:
            yield env.timeout(work)
            done += seg
            st["n_checkpoints"] += 1
            st["checkpoint_time_s"] += p.checkpoint_write_s
            if spans is not None:
                spans.append(ObsSpan(0, "compute", f"steps->{done}", t0,
                                     env.now - p.checkpoint_write_s,
                                     category="compute"))
                spans.append(ObsSpan(0, "compute", f"ckpt@{done}",
                                     env.now - p.checkpoint_write_s,
                                     env.now, category="checkpoint"))
        except Interrupt:
            # All work since the last durable checkpoint is gone
            # (including a partially written checkpoint).
            st["lost_work_s"] += env.now - t0
            if spans is not None:
                spans.append(ObsSpan(0, "compute", f"fault@{done}", t0,
                                     env.now, category="fault"))
            while True:
                r0 = env.now
                try:
                    yield env.timeout(p.restart_s)
                    st["restart_time_s"] += env.now - r0
                    break
                except Interrupt:
                    # A failure during recovery restarts the recovery.
                    st["restart_time_s"] += env.now - r0
            if spans is not None:
                spans.append(ObsSpan(0, "compute", f"restart@{done}", r0,
                                     env.now, category="recovery"))
    st["finish_s"] = env.now


def _failure_proc(env: Environment, p: FailureModel, trainer,
                  st: Dict[str, float]):
    def fail(_now: float) -> None:
        st["n_failures"] += 1
        trainer.interrupt("gpu-failure")

    # Same draw/check order as the historical inline loop, so existing
    # seeded results are bit-identical.
    yield from poisson_process(env, p.mtbf_s, p.seed, fail,
                               alive=lambda: trainer.is_alive)


def simulate_resilient_run(p: FailureModel,
                           spans: Optional[List[ObsSpan]] = None
                           ) -> RunStats:
    """Run the DES; returns the throughput accounting.

    Pass ``spans=[]`` to additionally collect an :class:`ObsSpan` timeline
    (segments, checkpoint writes, faults, restarts) for the trace CLI.
    """
    env = Environment()
    st: Dict[str, float] = {"n_failures": 0, "n_checkpoints": 0,
                            "lost_work_s": 0.0, "checkpoint_time_s": 0.0,
                            "restart_time_s": 0.0, "finish_s": 0.0}
    trainer = env.process(_trainer_proc(env, p, st, spans),
                          name="resilient-trainer")
    env.process(_failure_proc(env, p, trainer, st), name="failure-injector")
    env.run()
    return RunStats(
        total_time_s=st["finish_s"],
        useful_time_s=p.total_steps * p.step_time_s,
        n_failures=int(st["n_failures"]),
        n_checkpoints=int(st["n_checkpoints"]),
        lost_work_s=st["lost_work_s"],
        checkpoint_time_s=st["checkpoint_time_s"],
        restart_time_s=st["restart_time_s"],
    )


def sweep_intervals(base: FailureModel, intervals: List[int],
                    seeds: List[int]) -> List[Dict[str, float]]:
    """Mean efficiency/overhead per candidate interval, across seeds."""
    rows = []
    for interval in intervals:
        stats = [simulate_resilient_run(
            replace(base, interval_steps=interval, seed=seed))
            for seed in seeds]
        rows.append({
            "interval_steps": interval,
            "interval_s": interval * base.step_time_s,
            "efficiency": float(np.mean([s.efficiency for s in stats])),
            "overhead": float(np.mean([s.overhead for s in stats])),
            "n_failures": float(np.mean([s.n_failures for s in stats])),
        })
    return rows


def fit_optimal_interval(rows: List[Dict[str, float]]) -> float:
    """Least-squares fit of the overhead model ``a/x + b*x + c`` over the
    swept interval lengths (seconds); returns ``x* = sqrt(a/b)``.

    The expected overhead of periodic checkpointing is ``C/x`` (write
    cost amortized per interval) plus ``~x/(2M)`` (expected rework per
    failure) plus a constant — so the fitted minimum is the simulation's
    empirical optimum, read off far more stably than an argmin over noisy
    point estimates.
    """
    if len(rows) < 3:
        raise ValueError("need at least 3 swept intervals to fit")
    x = np.array([r["interval_s"] for r in rows], dtype=float)
    y = np.array([r["overhead"] for r in rows], dtype=float)
    design = np.stack([1.0 / x, x, np.ones_like(x)], axis=1)
    (a, b, _c), *_ = np.linalg.lstsq(design, y, rcond=None)
    if a <= 0 or b <= 0:
        # Degenerate fit (e.g. no failures in the horizon): fall back to
        # the best measured point.
        return float(x[int(np.argmin(y))])
    return float(math.sqrt(a / b))
