"""AxoNN's hybrid training algorithm with real numerics.

This module is a line-by-line functional implementation of the paper's
Algorithm 1 (``TRAIN`` / ``DATA_PARALLEL_STEP``) and Algorithm 2
(``INTER_LAYER_PARALLEL_STEP``) on the cooperative rank transport:

* each rank ``g^{i,j}`` of the ``G_inter x G_data`` grid runs the program
  :func:`~repro.runtime.rankprog.rank_program` binds — by default the
  message-driven scheduler that starts a forward or backward pass
  depending on *which neighbour a message arrived from* (Algorithm 2
  lines 13/21);
* the warm-up phase injects ``pipeline_limit`` microbatches (lines 3-9;
  ``pipeline_limit = G_inter`` as fixed in Section IV-A);
* the first stage injects a fresh microbatch after each completed backward
  pass, keeping the in-flight count constant in the steady state
  (lines 23-26);
* after the inter-layer phase, gradients are all-reduced across each
  data-parallel column (Algorithm 1 line 13) and the optimizer runs.

The loss is pre-divided by the total number of microbatches in the *batch*
(Section IV-B), so the summed all-reduce yields exactly the full-batch mean
gradient — the property the serial-equivalence tests (paper Fig. 10)
verify.

``schedule=`` swaps Algorithm 2 for a *static* order (a :mod:`repro.sched`
name or validated :class:`~repro.sched.ir.Schedule`, walked by
:func:`repro.runtime.rankprog.lower_rank`) and nothing else — both are
``send`` + ``yield RECV`` rank programs that ``rank_program`` returns and
one :meth:`RankTransport.run <repro.runtime.transport.RankTransport.run>`
(or one process worker) drives, with or without a fault injector and a
tensor-parallel axis — so two schedulers differ only in *when* work runs:
the paper's comparison with the flushing schedules of Megatron-LM and
DeepSpeed (Sections IV-A, VIII).

Training modes
--------------
``precision="fp32"`` (default) — fp32 gradients, AdamW per rank; bitwise
comparable to the serial reference.

``precision="mixed"`` — the paper's production configuration
(Sections II-A, IV-B, V-B):

* the loss is multiplied by the loss scale before backward;
* gradients are cast to fp16 and the data-parallel all-reduce *sums in
  half precision* (why the paper pre-divides the loss);
* overflow is detected per rank and OR-reduced globally so every rank
  skips (and backs the scale off) in lockstep;
* with ``offload=True`` the optimizer is the bucketed CPU-offload AdamW of
  Section V-B, streamed in ``bucket_size`` buckets with the all-reduce
  logically chunked by the coarsening factor ``k`` (Section V-C).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..nn import GPTConfig, LossScaler, num_layer_slots
from ..obs import Tracer
from ..obs.protocol import TraceRecorder
from ..sched.builders import SCHEDULE_NAMES, build_schedule, schedule_chunks
from ..sched.ir import Schedule, validate
from .column import ColumnStep, make_optimizer
from .grid import RankGrid, split_batch
from .parallel import ProcessBackend
from .rankprog import rank_program
from .stage import PipelineStage, build_shard
from .tp import book_tp_counters, record_tp_span
from .transport import RankTransport

__all__ = ["AxoNNTrainer", "TrainReport"]

BACKENDS = ("cooperative", "process")


class TrainReport:
    """Per-batch outcome: mean loss and traffic statistics."""

    def __init__(self, loss: float, messages: int, microbatches: int,
                 applied: bool = True, loss_scale: float = 1.0,
                 allreduce_chunks: int = 1):
        self.loss = loss
        #: point-to-point messages exchanged in the inter-layer phase
        self.messages = messages
        self.microbatches = microbatches
        #: False when a mixed-precision overflow skipped the optimizer step
        self.applied = applied
        #: loss scale in effect during the batch
        self.loss_scale = loss_scale
        #: number of chunks the gradient all-reduce was issued in
        self.allreduce_chunks = allreduce_chunks

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TrainReport loss={self.loss:.4f} msgs={self.messages} "
                f"applied={self.applied}>")


class AxoNNTrainer:
    """Hybrid (inter-layer x data) parallel trainer on the rank transport."""

    def __init__(self, cfg: GPTConfig, g_inter: int, g_data: int,
                 microbatch_size: int, g_intra: int = 1, lr: float = 1e-3,
                 betas: Tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.01,
                 pipeline_limit: Optional[int] = None,
                 checkpoint_activations: bool = False,
                 precision: str = "fp32",
                 offload: bool = False,
                 bucket_size: int = 4096,
                 coarsening_k: int = 4,
                 loss_scaler: Optional[LossScaler] = None,
                 recorder: Optional[TraceRecorder] = None,
                 tracer: Optional[Tracer] = None,
                 backend: str = "cooperative",
                 backend_options: Optional[Dict[str, object]] = None,
                 schedule: Union[None, str, Schedule] = None):
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {backend!r}")
        if precision not in ("fp32", "mixed"):
            raise ValueError(f"precision must be 'fp32' or 'mixed', "
                             f"got {precision!r}")
        if offload and precision != "mixed":
            raise ValueError("the CPU-offload optimizer requires "
                             "precision='mixed' (fp16 device gradients)")
        if coarsening_k < 1:
            raise ValueError("coarsening_k must be >= 1")
        if g_intra > cfg.n_head:
            raise ValueError(
                f"g_intra={g_intra} exceeds the model's {cfg.n_head} heads: "
                f"each tensor-parallel member owns at least one")
        self.cfg = cfg
        self.grid = RankGrid(g_inter, g_data, g_intra)
        self.microbatch_size = microbatch_size
        self.precision = precision
        self.offload = offload
        self.bucket_size = bucket_size
        self.coarsening_k = coarsening_k
        self.checkpoint_activations = checkpoint_activations
        self._opt_hparams = dict(lr=lr, betas=betas,
                                 weight_decay=weight_decay)
        #: name of the static order replacing Algorithm 2 (None: order
        #: resolved at run time, by message arrival)
        self.schedule_name: Optional[str] = None
        #: virtual stages across the pipeline (> g_inter: interleaved)
        self.n_virtual = g_inter
        if schedule is not None:
            self._adopt_schedule(schedule, pipeline_limit)
        # Section IV-A: pipeline_limit is fixed to G_inter.
        self.pipeline_limit = g_inter if pipeline_limit is None \
            else pipeline_limit
        if self.pipeline_limit < 1:
            raise ValueError("pipeline_limit must be >= 1")
        #: shared, globally-synchronized loss scale (mixed precision only)
        self.scaler = loss_scaler or (
            LossScaler() if precision == "mixed"
            else LossScaler(init_scale=1.0, dynamic=False))

        #: rank -> its network shard (stage replicas share weights by
        #: construction: build_layer is deterministic per slot).
        self.stages: Dict[int, PipelineStage] = {}
        #: rank -> its optimizer (:func:`~repro.runtime.column.make_optimizer`)
        self.optimizers: Dict[int, object] = {}
        for rank in range(self.grid.world_size):
            self._build_rank(rank)
        self.batches_trained = 0
        self.skipped_batches = 0
        #: optional communication trace for the protocol verifier; the
        #: point-to-point phase and the data-parallel collectives of every
        #: batch are appended to the same trace
        self.recorder = recorder
        #: optional observability tracer (:mod:`repro.obs`); span names
        #: mirror the performance model's event names (``fwd{mb}``,
        #: ``bwd{mb}``, ``allreduce``, ``allreduce-chunk{c}``,
        #: ``optimizer``) so traces from both substrates line up
        self.tracer = tracer
        #: per-rank column reduce + optimizer step of the cooperative
        #: placement, built on first use (the parameter layout is fixed at
        #: construction; the cache is only invalidated when a rank is
        #: respawned after a fault)
        self._column_steps: Dict[int, ColumnStep] = {}
        #: optional factory for the per-batch transport; the resilience
        #: layer installs one that injects faults (see repro.resilience)
        self.transport_factory: Optional[Callable[[], RankTransport]] = None
        #: which execution backend runs the rank programs (the walk, the
        #: column reduce and the optimizer step): ``"cooperative"`` —
        #: every rank program swept in this process (deterministic, single
        #: core); ``"process"`` — one OS process per rank over
        #: shared-memory rings (:mod:`repro.runtime.parallel`),
        #: numerically bit-identical, actually parallel on multi-core.
        self.backend = backend
        self._backend_options = dict(backend_options or {})
        self._process_backend = None

    @property
    def process_backend(self):
        """The lazily-constructed process pool bridge (process backend)."""
        if self._process_backend is None:
            self._process_backend = ProcessBackend(
                self, **self._backend_options)
        return self._process_backend

    def close(self) -> None:
        """Shut down backend resources (worker processes, shared memory).
        A no-op for the cooperative backend; safe to call repeatedly."""
        if self._process_backend is not None:
            self._process_backend.close()
            self._process_backend = None

    def _build_rank(self, rank: int) -> None:
        """(Re)construct one rank's stage and optimizer from scratch.

        Used at construction for every rank, and by the recovery
        coordinator to respawn a crashed rank before restoring its state
        from the latest snapshot.  Any cached data-parallel buffers
        referencing the old parameter objects must be invalidated by the
        caller (:meth:`invalidate_buffers`).
        """
        i, _j, t = self.grid.coord3_of(rank)
        if t != 0:
            # Tensor-parallel followers hold no stage or optimizer: the
            # group lead runs the dense stage (see runtime.tp); followers
            # are pure protocol participants.
            return
        stage = build_shard(self.cfg, i, self.grid.g_inter, self.n_virtual,
                            self.checkpoint_activations)
        self.stages[rank] = stage
        # Per-rank scaler objects would desync on dynamic updates; every
        # optimizer reads the trainer's one scale.
        self.optimizers[rank] = make_optimizer(
            stage.parameters(), self.precision, self.offload,
            self.bucket_size, _FrozenScaleView(self), **self._opt_hparams)

    def invalidate_buffers(self) -> None:
        """Drop the cached column steps (call after respawning a rank: they
        hold the *old* stage's parameter objects)."""
        self._column_steps.clear()

    # -- static schedules -----------------------------------------------------
    def _adopt_schedule(self, schedule: Union[str, Schedule],
                        pipeline_limit: Optional[int]) -> None:
        """Validate ``schedule`` against this grid and model; refuse by
        type what a static order cannot honour."""
        g_inter = self.grid.g_inter
        if pipeline_limit is not None:
            raise ValueError(
                "pipeline_limit bounds the message-driven scheduler's "
                "in-flight microbatches; a static schedule fixes its own")
        self._fixed_schedule: Optional[Schedule] = None
        if isinstance(schedule, Schedule):
            validate(schedule)
            if schedule.n_stages != g_inter:
                raise ValueError(
                    f"schedule {schedule.name!r} is built for "
                    f"{schedule.n_stages} stages, trainer has {g_inter}")
            self.schedule_name = schedule.name
            self._fixed_schedule = schedule
            self.n_virtual = schedule.n_virtual
        else:
            if schedule not in SCHEDULE_NAMES:
                raise ValueError(
                    f"unknown schedule {schedule!r}; shipped: "
                    f"{', '.join(SCHEDULE_NAMES)}")
            self.schedule_name = schedule
            self.n_virtual = schedule_chunks(schedule) * g_inter
        if self.n_virtual > num_layer_slots(self.cfg):
            raise ValueError(
                f"{self.n_virtual} virtual stages exceed the model's "
                f"{num_layer_slots(self.cfg)} layer slots")

    def _schedule_for(self, m: int) -> Optional[Schedule]:
        """The static order for ``m`` microbatches per shard (None:
        Algorithm 2 decides at run time)."""
        if self.schedule_name is None:
            return None
        if self._fixed_schedule is not None:
            if self._fixed_schedule.n_microbatches != m:
                raise ValueError(
                    f"schedule {self.schedule_name!r} is built for "
                    f"{self._fixed_schedule.n_microbatches} microbatches "
                    f"per shard, this batch has {m}")
            return self._fixed_schedule
        return build_schedule(self.schedule_name, self.grid.g_inter, m)

    # -- the inter-layer phase ----------------------------------------------
    def _tp_record(self, rank: int, op: str, key: tuple,
                   nbytes: int) -> None:
        """Collective sink for the ``tp`` stream: protocol trace, perf
        counters (``tp.*`` namespace) and obs spans."""
        if self.recorder is not None:
            self.recorder.record_collective(rank, op, key=key)
        book_tp_counters(op, nbytes)
        record_tp_span(self.tracer, rank, op, key, nbytes)

    # -- Algorithm 1, data-parallel phase --------------------------------------
    def _data_parallel_step(self) -> Tuple[bool, int]:
        """Algorithm 1's column reduce and every rank's optimizer step,
        placed in this process: each lead rank's
        :meth:`ColumnStep.run <repro.runtime.column.ColumnStep.run>` on one
        cooperative transport — the program a process worker runs on its
        own rings.  Returns (stepped, the last stage's all-reduce
        chunks)."""
        transport = RankTransport(self.grid.world_size)
        record = None if self.recorder is None else \
            (lambda rank, op, key: self.recorder.record_collective(
                rank, op, key=key))
        steps = {}
        for rank in sorted(self.stages):
            step = self._column_steps.get(rank)
            if step is None:
                step = self._column_steps[rank] = ColumnStep(
                    self.grid, rank, self.stages[rank].parameters(),
                    self.optimizers[rank],
                    self.coarsening_k * self.bucket_size)
            send = (lambda dst, tag, mb, data, _r=rank:
                    transport.send(_r, dst, tag, mb, data))
            steps[rank] = step.run(send, self.tracer, record)
        transport.run(steps)
        last = self._column_steps[self.grid.rank_of(self.grid.g_inter - 1,
                                                    0)]
        return last.applied, last.n_chunks

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> TrainReport:
        """One full DATA_PARALLEL_STEP + optimizer step; returns the mean
        batch loss (exactly comparable to a serial full-batch loss)."""
        groups, total_mb = split_batch(x, y, self.grid.g_data,
                                       self.microbatch_size)
        for stage in self.stages.values():
            stage.microbatch_losses.clear()
        for opt in self.optimizers.values():
            opt.zero_grad()

        sched = self._schedule_for(len(groups[0]))
        if self.backend == "process":
            messages, applied, chunks = self.process_backend.run_batch(
                groups, total_mb, sched)
        else:
            if self.transport_factory is not None:
                transport = self.transport_factory()
            else:
                transport = RankTransport(self.grid.world_size,
                                          recorder=self.recorder,
                                          tracer=self.tracer)
            loss_scale = self.scaler.scale \
                if self.precision == "mixed" else 1.0
            # No rank runs until the sender yields (RankTransport._sweep),
            # so no send starts its receiver's work early.
            programs = {}
            for rank in range(self.grid.world_size):
                send = (lambda dst, tag, mb, data, _r=rank:
                        transport.send(_r, dst, tag, mb, data))
                programs[rank] = rank_program(
                    rank, self.grid, self.stages.get(rank), send,
                    groups[self.grid.coord_of(rank)[1]], total_mb,
                    self.pipeline_limit, sched, loss_scale, self.tracer,
                    self._tp_record, concurrent_peers=False)
            transport.run(programs)
            messages = transport.messages_sent
            # Sanity: no microbatch left in flight anywhere.  (The process
            # backend checks the same on the workers, where its stages
            # run.)
            for rank, stage in self.stages.items():
                if stage.inflight_microbatches:
                    raise RuntimeError(
                        f"rank {rank} finished with "
                        f"{stage.inflight_microbatches} microbatches in "
                        f"flight")
            applied, chunks = self._data_parallel_step()

        scale = self.scaler.scale
        if self.precision == "mixed":
            # The grid agreed on one verdict; the scale moves once.
            self.scaler.update(found_overflow=not applied)
        else:
            chunks = 1
        self.batches_trained += 1
        if not applied:
            self.skipped_batches += 1

        losses = [
            loss
            for rank, stage in self.stages.items()
            if self.grid.is_last_stage(rank)
            for loss in stage.microbatch_losses.values()
        ]
        mean_loss = float(np.mean(losses))
        return TrainReport(mean_loss, messages, total_mb,
                           applied=applied, loss_scale=scale,
                           allreduce_chunks=chunks)

    # -- diagnostics ---------------------------------------------------------
    def parameters_of(self, i: int, j: int = 0):
        """Parameters of stage ``i`` in data group ``j``."""
        return self.stages[self.grid.rank_of(i, j)].parameters()

    def gather_state(self, j: int = 0) -> Dict[str, np.ndarray]:
        """Full-model state dict reassembled from pipeline ``j``'s shards.

        A tensor-parallel lead holds the dense stage, so states gathered
        at different ``g_intra`` are directly comparable (the
        bit-identity acceptance check)."""
        state: Dict[str, np.ndarray] = {}
        for i in range(self.grid.g_inter):
            stage = self.stages[self.grid.rank_of(i, j)]
            for name, p in stage.named_parameters():
                state[name] = p.data.copy()
        return state


class _FrozenScaleView(LossScaler):
    """A per-optimizer view of the trainer's shared scaler whose ``update``
    is a no-op — scale transitions are driven once per batch by the trainer
    (after the global overflow OR-reduce), never by individual ranks."""

    def __init__(self, trainer: AxoNNTrainer):
        super().__init__(init_scale=1.0, dynamic=False)
        self._trainer = trainer

    @property
    def scale(self) -> float:  # type: ignore[override]
        return self._trainer.scaler.scale

    @scale.setter
    def scale(self, value: float) -> None:  # pragma: no cover
        pass

    def update(self, found_overflow: bool) -> None:
        pass
