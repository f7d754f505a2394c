"""Checkpoint-based recovery for the functional runtime.

:class:`ResilientTrainer` wraps an :class:`~repro.runtime.AxoNNTrainer`
and makes it survivable under an injected :class:`~repro.resilience.FaultPlan`:

1. before every ``snapshot_interval``-th batch it captures an in-memory
   snapshot of the *complete* training state — parameters, optimizer
   moments, loss scale **and its good-step counter**, and every dropout
   RNG bit-generator state (:func:`repro.runtime.trainer_state_dict`);
2. each batch runs on a fault-injecting
   :class:`~repro.runtime.RankTransport` whose heartbeat detector turns a
   crashed rank into a :class:`~repro.runtime.RankFailure`;
3. on detection, the coordinator pauses the grid, **respawns** the dead
   ranks (fresh :class:`~repro.runtime.PipelineStage` + optimizer),
   restores all ranks from the latest snapshot, silently replays any
   batches trained since that snapshot, and re-attempts the failed batch.

Because the snapshot is bit-complete, the post-recovery loss trajectory is
**bit-identical** to an uninterrupted run from the same seed — the paper's
Fig. 10 serial-vs-parallel equivalence argument extended to rank crashes.
The tests pin this with exact float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime import (AxoNNTrainer, RankTransport, TrainReport,
                       load_trainer_state, trainer_state_dict)
from ..runtime.transport import RankFailure
from .faults import FaultInjector, FaultPlan, RetryPolicy

__all__ = ["RecoveryEvent", "ResilientTrainer"]


@dataclass(frozen=True)
class RecoveryEvent:
    """One detected failure and the rollback that answered it."""

    step: int                    #: batch index the failure interrupted
    dead: Tuple[int, ...]        #: ranks declared failed
    detected_at: int             #: transport tick of the declaration
    restored_from: int           #: batch index of the snapshot restored
    replayed: int                #: batches silently replayed after restore
    attempt: int                 #: which retry of the batch this was


class ResilientTrainer:
    """Fault-injecting, self-recovering wrapper around a trainer.

    ``snapshot_interval`` trades checkpoint cost for rework, exactly like
    the Young/Daly interval of the performance model: a snapshot is taken
    before batch ``k`` whenever ``k % snapshot_interval == 0``, and a
    failure at batch ``t`` rolls back to the latest snapshot and replays
    the ``t - s`` intermediate batches.
    """

    def __init__(self, trainer: AxoNNTrainer, plan: FaultPlan, *,
                 retry: Optional[RetryPolicy] = None,
                 snapshot_interval: int = 1,
                 detect_timeout: int = 25,
                 max_recoveries_per_batch: int = 8):
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.trainer = trainer
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.snapshot_interval = snapshot_interval
        self.detect_timeout = detect_timeout
        self.max_recoveries_per_batch = max_recoveries_per_batch
        #: batches successfully trained through this wrapper
        self.step = 0
        #: every rollback performed, in order
        self.recoveries: List[RecoveryEvent] = []
        #: fault identities already injected (shared across retries so a
        #: crash fires once, not on every attempt of the same batch)
        self._spent: set = set()
        self._snapshot_step: int = -1
        self._snapshot: Optional[Dict[str, np.ndarray]] = None
        #: (x, y) of batches trained since the snapshot, for replay
        self._replay: List[Tuple[np.ndarray, np.ndarray]] = []

    # -- snapshots ---------------------------------------------------------
    def _take_snapshot(self) -> None:
        tracer = self.trainer.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(0, "fault", f"snapshot@{self.step}",
                             category="checkpoint", step=self.step):
                self._snapshot = trainer_state_dict(self.trainer)
        else:
            self._snapshot = trainer_state_dict(self.trainer)
        self._snapshot_step = self.step
        self._replay = []

    # -- the fault-injecting transport -------------------------------------
    def _factory(self, injector: FaultInjector) -> Callable[[], RankTransport]:
        trainer = self.trainer

        def make() -> RankTransport:
            return RankTransport(
                trainer.grid.world_size, recorder=trainer.recorder,
                tracer=trainer.tracer, injector=injector, retry=self.retry,
                detect_timeout=self.detect_timeout)

        return make

    # -- recovery protocol -------------------------------------------------
    def _recover(self, failure: RankFailure, attempt: int) -> None:
        trainer = self.trainer
        tracer = trainer.tracer
        start = tracer.now() if tracer is not None and tracer.enabled else 0.0
        # 1. Pause: the failed transport already closed every rank program;
        #    void the partial batch (in-flight activations, partial losses).
        for stage in trainer.stages.values():
            stage.reset()
        # 2. Respawn the dead ranks with fresh stages and optimizers, and
        #    drop cached data-parallel buffers that alias the old tensors.
        for rank in failure.dead:
            trainer._build_rank(rank)
        trainer.invalidate_buffers()
        # 3. Restore every rank from the latest snapshot (parameters,
        #    optimizer moments, loss scale + counter, dropout RNG state).
        assert self._snapshot is not None
        load_trainer_state(trainer, self._snapshot)
        # 4. Replay the batches trained since the snapshot, fault-free.
        trainer.transport_factory = None
        if trainer.backend == "process":
            trainer.process_backend.injector = None
        for x, y in self._replay:
            trainer.train_batch(x, y)
        self.recoveries.append(RecoveryEvent(
            step=self.step, dead=tuple(failure.dead),
            detected_at=failure.detected_at,
            restored_from=self._snapshot_step,
            replayed=len(self._replay), attempt=attempt))
        if tracer is not None and tracer.enabled:
            tracer.record(0, "fault", f"recovery@{self.step}", start,
                          tracer.now(), category="recovery",
                          step=self.step, dead=tuple(failure.dead),
                          restored_from=self._snapshot_step,
                          replayed=len(self._replay))

    # -- public API --------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> TrainReport:
        """One batch under the fault plan, recovering as needed.

        Returns the :class:`~repro.runtime.TrainReport` of the successful
        attempt; raises ``RuntimeError`` if the batch cannot complete
        within ``max_recoveries_per_batch`` rollbacks.
        """
        if self._snapshot is None or \
                self.step - self._snapshot_step >= self.snapshot_interval:
            self._take_snapshot()
        attempt = 0
        while True:
            injector = FaultInjector(self.plan, step=self.step,
                                     spent=self._spent)
            if self.trainer.backend == "process":
                # Crash faults become real SIGKILLs inside the worker
                # processes; the channel-fault kinds raise
                # NotImplementedError there (they model a lossy NIC the
                # shared-memory transport does not have).
                self.trainer.process_backend.injector = injector
            else:
                self.trainer.transport_factory = self._factory(injector)
            try:
                report = self.trainer.train_batch(x, y)
            except RankFailure as failure:
                attempt += 1
                if attempt > self.max_recoveries_per_batch:
                    raise RuntimeError(
                        f"batch {self.step} failed {attempt} times; giving "
                        f"up (dead ranks {failure.dead})") from failure
                self._recover(failure, attempt)
                continue
            finally:
                self.trainer.transport_factory = None
                if self.trainer.backend == "process":
                    self.trainer.process_backend.injector = None
            self._replay.append((x, y))
            self.step += 1
            return report

    @property
    def total_recoveries(self) -> int:
        return len(self.recoveries)
