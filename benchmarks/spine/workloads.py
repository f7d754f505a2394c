"""The six spine workloads.

Each workload is one closed loop driven by a single thread: build the
program objects, then call one public entry point again and again, one
operation at a time.  ``--seed`` decides the *contents* of the inputs
(corpus, prompt tokens, sampling streams, arrival traces); the *shapes*
(batch, sequence and request lengths) are fixed per workload, so every
seed does the same amount of work and the spread across seeds measures
the machine, not the input mix.

Why these six, and which layer each isolates, is in README.md.  This
module imports ``repro``: the worker imports it inside the set-up timer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import core, perf
from repro.experiments import make_axonn_config
from repro.fleet import FleetModel, ReactivePolicy, service_rate_per_replica
from repro.fleet import sim as fleet_sim
from repro.nn import (GPT, AdamW, GPTConfig, LMBatches, SyntheticCorpus,
                      generate)
from repro.runtime import (AxoNNTrainer, InferenceStage, PipelineStage,
                           ProcessBackend, RankTransport, SerialTrainer,
                           ShmRing, ring_allreduce)
from repro.sched import SCHEDULE_NAMES, build_schedule
from repro.sched import des as sched_des
from repro.serve import (ArrivalSpec, PipelineServer, RequestSpec,
                         ServingModel, make_requests)
from repro.serve import sim as serve_sim
from repro.serve.engine import TAG_ACT
from repro.sim import Environment

from calibrate import op_cu, timed_blocks
from spans import SpanRecorder

__all__ = ["WORKLOADS", "Workload", "REFERENCE_PATH", "record_reference"]

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: distinct training batches a workload cycles through
_BATCH_POOL = 32

#: how a per-layer time metric is read off the traced spans:
#: ``(kind, span names)`` with kind ``self`` / ``total`` (cu per op) or
#: ``calls`` (calls per op)
Layer = Tuple[str, Sequence[str]]


def _payload_bytes(data) -> int:
    """Bytes of the NumPy arrays in a message payload (computed from
    tensor sizes, not measured on a wire)."""
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (list, tuple)):
        return sum(_payload_bytes(item) for item in data)
    return 0


def _median_wall(fn: Callable[[], object], repeats: int) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls (probes)."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _wrap_transport(rec: SpanRecorder) -> None:
    def on_send(_transport, src, _dst, tag, _microbatch, data=None):
        rec.count("msgs")
        rec.count("bytes", _payload_bytes(data))
        if src == 0 and tag == TAG_ACT:
            rec.count("passes")

    rec.wrap_programs(RankTransport, "program", "transport.run")
    rec.wrap(RankTransport, "send", "transport.send", on_call=on_send)


_TRANSPORT_LAYERS: Dict[str, Layer] = {
    "runtime.transport.send_cu": ("self", ["transport.send"]),
    "runtime.transport.run_self_cu": ("self", ["transport.run"]),
}
_TRANSPORT_COUNTS = {
    "runtime.transport.msgs_per_op": "msgs",
    "runtime.transport.bytes_per_op": "bytes",
}


class Workload:
    """One closed-loop workload; subclasses fill in the hooks."""

    name = ""
    work_unit = ""
    #: operations in the traced pass (and in the untraced pass beside it)
    traced_ops = 20
    #: per-layer time metrics read off the traced spans
    layers: Dict[str, Layer] = {}
    #: per-layer count metrics: metric name -> recorder count name
    counts: Dict[str, str] = {}

    def __init__(self, seed: int):
        self.seed = seed
        #: units of work one operation completes (set by :meth:`build`)
        self.work_per_op = 0.0

    def build(self) -> None:
        """Construct the program objects and inputs (part of set-up)."""
        raise NotImplementedError

    def op(self) -> bool:
        """Run one operation; return whether its output was correct."""
        raise NotImplementedError

    def verify(self) -> List[bool]:
        """Deep output checks against the serial reference, one entry per
        checked operation.  Runs once, right after the set-up op."""
        raise NotImplementedError

    def close(self) -> List[bool]:
        """Release resources; returns leak checks (one entry each)."""
        return []

    def instrument(self, rec: SpanRecorder) -> None:
        """Wrap this workload's layer boundaries for the traced pass."""
        raise NotImplementedError

    def count_op(self, rec: SpanRecorder) -> Dict[str, float]:
        """One extra, untimed operation with the expensive counters on.
        Returns per-op count metrics."""
        with perf.counting() as tally:
            self.op()
        snap = tally.snapshot()
        nodes = snap.pop("graph_nodes", 0)
        return {"nn.graph_nodes_per_op": nodes,
                "nn.kernel_calls_per_op": sum(
                    n for key, n in snap.items() if not key.startswith("tp."))}

    def probes(self, op_wall_s: float, cu: float, first_op_wall_s: float,
               n_ops: int) -> Dict[str, float]:
        """Isolated probes and same-input reference runs (traced run
        only).  ``op_wall_s``/``cu`` are this workload's steady untraced
        op wall and op cost in cu."""
        return {}


# -- training --------------------------------------------------------------

class _Train(Workload):
    work_unit = "trained tokens"
    cfg: GPTConfig
    batch_size = 16

    def make_trainer(self):
        raise NotImplementedError

    def build(self) -> None:
        corpus = SyntheticCorpus(self.cfg.vocab_size, 20_000, seed=self.seed)
        batches = LMBatches(corpus, self.batch_size, self.cfg.seq_len,
                            seed=self.seed)
        self.pool = [batches.batch(k) for k in range(_BATCH_POOL)]
        self.work_per_op = float(self.batch_size * self.cfg.seq_len)
        self.step = 0
        self.losses: List[float] = []
        self.trainer = self.make_trainer()

    def _train(self, trainer, step: int) -> float:
        x, y = self.pool[step % _BATCH_POOL]
        return trainer.train_batch(x, y).loss

    def op(self) -> bool:
        loss = self._train(self.trainer, self.step)
        self.step += 1
        if len(self.losses) < 5:
            self.losses.append(loss)
        return math.isfinite(loss)

    def verify(self) -> List[bool]:
        # The measured trainer's first five steps from fresh init (step 0
        # was the set-up op) against a serial run on the same batches.
        serial = SerialTrainer(self.cfg)
        want = [serial.train_batch(*self.pool[k]) for k in range(5)]
        while self.step < 5:
            self.op()
        return [bool(np.isclose(got, ref, rtol=1e-4, atol=0.0))
                for got, ref in zip(self.losses, want)]


class TrainSerial(_Train):
    """Plain single-worker baseline: ``nn`` does all the work."""

    name = "train_serial"
    cfg = GPTConfig(vocab_size=64, seq_len=32, n_layer=4, n_head=4,
                    hidden=64)
    layers = {
        "nn.fwd_bwd_cu": ("self", ["serial"]),
        "nn.optim_step_cu": ("total", ["optim"]),
    }

    def make_trainer(self):
        return SerialTrainer(self.cfg)

    def _train(self, trainer, step: int) -> float:
        return trainer.train_batch(*self.pool[step % _BATCH_POOL])

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(SerialTrainer, "train_batch", "serial")
        rec.wrap(AdamW, "step", "optim")


class TrainHybridCoop(_Train):
    """2x2 hybrid on the cooperative backend, microbatch 1: the same
    ``nn`` work as the baseline under the most runtime bookkeeping."""

    name = "train_hybrid_coop"
    cfg = TrainSerial.cfg
    layers = {
        "runtime.stage.fwd_cu": ("self", ["stage.fwd"]),
        "runtime.stage.bwd_cu": ("self", ["stage.bwd"]),
        "runtime.stage.calls_per_op": ("calls", ["stage.fwd", "stage.bwd"]),
        "nn.optim_step_cu": ("total", ["optim"]),
        "runtime.engine.self_cu": ("self", ["engine", "program"]),
        **_TRANSPORT_LAYERS,
    }
    counts = _TRANSPORT_COUNTS

    def make_trainer(self):
        return AxoNNTrainer(self.cfg, g_inter=2, g_data=2,
                            microbatch_size=1)

    def close(self) -> List[bool]:
        self.trainer.close()
        return []

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(AxoNNTrainer, "train_batch", "engine")
        rec.wrap(PipelineStage, "forward", "stage.fwd")
        rec.wrap(PipelineStage, "backward", "stage.bwd")
        rec.wrap(AdamW, "step", "optim")
        _wrap_transport(rec)

    def probes(self, op_wall_s, cu, first_op_wall_s, n_ops):
        serial = SerialTrainer(self.cfg)
        steps = itertools.count()

        def serial_op() -> bool:
            serial.train_batch(*self.pool[next(steps) % _BATCH_POOL])
            return True

        serial_op()
        serial_cu = op_cu(list(timed_blocks(serial_op, n_ops=n_ops)))

        # The data-parallel reduce of one step, as the public ring
        # all-reduce would run it: one p=2 ring per pipeline column over
        # that column's flattened fp32 gradients.
        grid = self.trainer.grid
        col_numel = [self.trainer.stages[grid.rank_of(i, 0)].num_parameters()
                     for i in range(grid.g_inter)]
        rng = np.random.default_rng(self.seed)
        columns = [{j: rng.standard_normal(numel).astype(np.float32)
                    for j in range(grid.g_data)} for numel in col_numel]

        def reduce_step() -> None:
            for grads in columns:
                ring_allreduce(grads)

        return {
            "runtime.engine.vs_serial": cu / serial_cu,
            "runtime.collectives.ring_allreduce_us":
                _median_wall(reduce_step, 15) * 1e6,
            "runtime.collectives.bytes_per_op":
                float(4 * grid.g_data * sum(col_numel)),
        }


class TrainPipeProc(_Train):
    """2-stage pipeline on the process backend: the only workload where
    ``runtime.parallel`` and ``runtime.shm`` run."""

    name = "train_pipe_proc"
    cfg = GPTConfig(vocab_size=256, seq_len=64, n_layer=4, n_head=4,
                    hidden=128)
    microbatch_size = 2
    layers = {
        "runtime.parallel.run_batch_cu": ("total", ["parallel.run_batch"]),
        "runtime.parallel.parent_self_cu": ("self", ["engine"]),
        "nn.optim_step_cu": ("total", ["optim"]),
    }

    def make_trainer(self, backend: str = "process"):
        return AxoNNTrainer(self.cfg, g_inter=2, g_data=1,
                            microbatch_size=self.microbatch_size,
                            backend=backend)

    def build(self) -> None:
        super().build()
        # messages of one step: each microbatch crosses the one stage
        # boundary once forward and once backward
        self.msgs_per_op = 2 * self.batch_size // self.microbatch_size
        self.frame = np.zeros((self.microbatch_size, self.cfg.seq_len,
                               self.cfg.hidden), dtype=np.float32)

    def verify(self) -> List[bool]:
        checks = super().verify()
        # Same config on the cooperative backend: must agree bit for bit.
        self.twin = self.make_trainer("cooperative")
        twin = [self._train(self.twin, k) for k in range(5)]
        return checks + [got == ref for got, ref in zip(self.losses, twin)]

    def close(self) -> List[bool]:
        self.trainer.close()
        return [not multiprocessing.active_children()]

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(AxoNNTrainer, "train_batch", "engine")
        rec.wrap(ProcessBackend, "run_batch", "parallel.run_batch")
        rec.wrap(AdamW, "step", "optim")

    def count_op(self, rec: SpanRecorder) -> Dict[str, float]:
        # The workers' nn calls are out of this process's sight; the
        # cooperative twin does the same nn work by construction.
        measured, self.trainer = self.trainer, self.twin
        try:
            out = super().count_op(rec)
        finally:
            self.trainer = measured
        out["runtime.transport.msgs_per_op"] = float(self.msgs_per_op)
        out["runtime.transport.bytes_per_op"] = \
            float(self.msgs_per_op * self.frame.nbytes)
        return out

    def probes(self, op_wall_s, cu, first_op_wall_s, n_ops):
        steps = itertools.count(5)

        def twin_op() -> bool:
            self._train(self.twin, next(steps))
            return True

        coop_cu = op_cu(list(timed_blocks(twin_op, n_ops=n_ops)))

        # One activation packet through a ring, against a plain copy of
        # the same bytes.
        message = (0, "forward", 0, 0.0, self.frame)
        ring = ShmRing.create(4 * (self.frame.nbytes + 4096))
        try:
            frame_bytes = ring.push(message)
            ring.pop()
            trip = _median_wall(lambda: (ring.push(message), ring.pop()), 200)
        finally:
            ring.close()
            ring.unlink()
        dst = np.empty_like(self.frame)
        copy = _median_wall(lambda: np.copyto(dst, self.frame), 200)
        return {
            "runtime.parallel.vs_coop": cu / coop_cu,
            "runtime.parallel.spawn_s": first_op_wall_s - op_wall_s,
            "runtime.shm.roundtrip_us": trip * 1e6,
            "runtime.shm.frame_bytes": float(frame_bytes),
            "runtime.shm.over_memcpy": trip / copy,
            "runtime.shm.est_share": trip * self.msgs_per_op / op_wall_s,
        }


# -- serving ---------------------------------------------------------------

class _Serve(Workload):
    work_unit = "prompt + generated tokens"
    cfg = GPTConfig(vocab_size=256, seq_len=96, n_layer=4, n_head=4,
                    hidden=128)
    n_requests = 0
    spec = RequestSpec()
    layers = {
        "runtime.stage.infer_fwd_cu": ("self", ["stage.infer"]),
        "runtime.stage.infer_calls_per_op": ("calls", ["stage.infer"]),
        "serve.engine.self_cu": ("self", ["serve", "program"]),
        **_TRANSPORT_LAYERS,
    }
    counts = {**_TRANSPORT_COUNTS,
              "serve.engine.passes_per_op": "passes"}

    def build(self) -> None:
        # Lengths and sampling settings come from the spec at a fixed
        # shape seed; --seed draws the prompt tokens and sampling streams.
        shapes = make_requests(self.cfg, self.n_requests, self.spec)
        rng = np.random.default_rng(self.seed)
        self.requests = [
            dataclasses.replace(
                req, seed=self.seed * 1_000_003 + req.rid,
                prompt=rng.integers(0, self.cfg.vocab_size,
                                    size=req.prompt.size))
            for req in shapes]
        self.work_per_op = float(sum(r.prompt.size + r.max_new_tokens
                                     for r in self.requests))
        self.server = PipelineServer(self.cfg, g_inter=2, max_batch=4)
        self.expected: Dict[int, np.ndarray] = {}
        self.first_out: Dict[int, np.ndarray] = {}

    def op(self) -> bool:
        out = self.server.serve(self.requests)
        if not self.expected:
            self.first_out = out
            return len(out) == len(self.requests)
        return all(np.array_equal(out[rid], want)
                   for rid, want in self.expected.items())

    def _serial_generate(self) -> Dict[int, np.ndarray]:
        return {
            r.rid: generate(self.model, r.prompt, r.max_new_tokens,
                            temperature=r.temperature, top_k=r.top_k,
                            rng=np.random.default_rng(r.seed),
                            greedy=r.greedy)
            for r in self.requests}

    def verify(self) -> List[bool]:
        self.model = GPT(self.cfg)
        self.expected = self._serial_generate()
        return [np.array_equal(self.first_out[rid], want)
                for rid, want in self.expected.items()]

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(PipelineServer, "serve", "serve")
        rec.wrap(InferenceStage, "forward", "stage.infer")
        _wrap_transport(rec)

    def count_op(self, rec: SpanRecorder) -> Dict[str, float]:
        peak = [0]
        stage0_calls = [0]

        def sample(stage, *_args):
            # KV buffers are allocated at admission, so the footprint at
            # each forward entry covers every resident request.
            peak[0] = max(peak[0],
                          sum(s.kv_bytes() for s in self.server.stages))
            stage0_calls[0] += stage.stage_index == 0

        rec.wrap(InferenceStage, "forward", "stage.infer", on_call=sample)
        _wrap_transport(rec)
        try:
            out = super().count_op(rec)
        finally:
            rec.restore()
        _totals, counts = rec.drain()
        out["runtime.stage.kv_bytes_peak"] = float(peak[0])
        out["serve.engine.mean_group_width"] = \
            stage0_calls[0] / counts["passes"]
        return out

    def probes(self, op_wall_s, cu, first_op_wall_s, n_ops):
        def serial_op() -> bool:
            self._serial_generate()
            return True

        serial_cu = op_cu(list(timed_blocks(serial_op,
                                            n_ops=max(3, n_ops // 4))))
        return {"serve.engine.vs_serial_generate": cu / serial_cu}


class ServeDecode(_Serve):
    """Hundreds of one-token passes: scheduling, KV append and
    per-message cost dominate."""

    name = "serve_decode"
    n_requests = 8
    spec = RequestSpec(mean_prompt=4, mean_new_tokens=48)


class ServePrefill(_Serve):
    """The same layers used the other way: few wide passes."""

    name = "serve_prefill"
    n_requests = 16
    spec = RequestSpec(mean_prompt=64, mean_new_tokens=1)


# -- discrete-event simulators --------------------------------------------

def _fig5_point(batch_size: int) -> core.AxoNNConfig:
    """The paper's Fig. 5 ``g_inter=6`` point at a reduced batch."""
    return core.AxoNNConfig(
        spec=core.WEAK_SCALING_MODELS["12B"], num_gpus=48, g_inter=6,
        g_data=8, microbatch_size=1, batch_size=batch_size,
        include_optimizer=False, memopt=False)


class DesSuite(Workload):
    """Host speed of ``sim`` and the four DES models; no functional layer
    runs.  One op is a fixed pass of nine simulator invocations."""

    name = "des_suite"
    work_unit = "simulator invocations"
    traced_ops = 3
    layers = {
        "core.simulate_batch_cu": ("total", ["core"]),
        "sched.des.simulate_schedule_cu": ("total", ["sched"]),
        "serve.sim.simulate_serving_cu": ("total", ["serve.sim"]),
        "fleet.sim.simulate_fleet_cu": ("total", ["fleet.sim"]),
    }

    def build(self) -> None:
        self.batch_cfgs = {"core.12B": make_axonn_config("12B", 2048),
                           "core.fig5": _fig5_point(768)}
        self.schedules = {name: build_schedule(name, 4, 48)
                          for name in SCHEDULE_NAMES}
        # The arrival traces are pinned: their length is the amount of
        # work.  --seed draws the stage-time jitter of the schedule
        # simulations, which moves every simulated time but no event count.
        self.request_spec = RequestSpec(mean_prompt=8, mean_new_tokens=8)
        self.serving = ServingModel()
        load = 0.6 * self.serving.token_roofline_tok_s(8, 8) / 8
        self.arrivals = ArrivalSpec(rate_per_s=load)
        fleet_serving = ServingModel(
            n_replicas=5, g_inter=4, stage_alpha_s=8e-3,
            decode_s_per_item=4e-3, prefill_s_per_token=8e-4, max_batch=8)
        self.fleet = FleetModel(serving=fleet_serving, cold_start_s=5.0,
                                control_interval_s=1.0, drain_timeout_s=10.0)
        self.policy = ReactivePolicy(min_replicas=1, max_replicas=5,
                                     cooldown_s=5.0)
        mu = service_rate_per_replica(fleet_serving, self.request_spec)
        self.diurnal = ArrivalSpec(rate_per_s=1.7 * mu, kind="diurnal",
                                   diurnal_period_s=40.0,
                                   diurnal_amplitude=0.8)
        self.work_per_op = float(len(self.batch_cfgs) + len(self.schedules)
                                 + 2)
        self.expected: Dict[str, Dict[str, float]] = {}
        self.first_out: Dict[str, Dict[str, float]] = {}

    def simulate(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for key, cfg in self.batch_cfgs.items():
            res = core.simulate_batch(cfg)
            out[key] = {"pipeline_s": res.pipeline_s,
                        "allreduce_s": res.allreduce_s,
                        "batch_time_s": res.batch_time_s}
        for name, schedule in self.schedules.items():
            res = sched_des.simulate_schedule(schedule, sigma=0.05,
                                              seed=self.seed)
            out[f"sched.{name}"] = {"makespan": res.makespan,
                                    "bubble_fraction": res.bubble_fraction,
                                    "peak_memory": res.peak_memory}
        stats = serve_sim.simulate_serving(
            self.serving, self.arrivals, 10.0, self.request_spec)
        out["serve"] = {"n_arrived": stats.n_arrived,
                        "n_completed": stats.n_completed,
                        "tokens_out": stats.tokens_out,
                        "ttft_p99_s": stats.ttft_percentile(99)}
        stats = fleet_sim.simulate_fleet(
            self.fleet, self.policy, self.diurnal, 40.0, self.request_spec)
        out["fleet"] = {"n_arrived": stats.n_arrived,
                        "n_completed": stats.n_completed,
                        "replica_seconds": stats.replica_seconds,
                        "ttft_p99_s": stats.ttft_percentile(99)}
        return out

    def op(self) -> bool:
        out = self.simulate()
        if not self.expected:
            self.first_out = out
            return True
        return out == self.expected

    def verify(self) -> List[bool]:
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
        # Outside the recorded seeds only the seed-free outputs are
        # pinned; the jittered ones must then repeat exactly from op to op.
        pinned = {**reference["fixed"],
                  **reference["seeded"].get(str(self.seed), {})}
        self.expected = {**self.first_out, **pinned}
        return [self.first_out[key] == want for key, want in pinned.items()]

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(core, "simulate_batch", "core")
        rec.wrap(sched_des, "simulate_schedule", "sched")
        rec.wrap(serve_sim, "simulate_serving", "serve.sim")
        rec.wrap(fleet_sim, "simulate_fleet", "fleet.sim")

    def count_op(self, rec: SpanRecorder) -> Dict[str, float]:
        rec.count_calls(Environment, "step", "env_steps")
        try:
            self.op()
        finally:
            rec.restore()
        _totals, counts = rec.drain()
        self.env_steps = counts["env_steps"]
        return {"sim.env_steps_per_op": float(self.env_steps)}

    def probes(self, op_wall_s, cu, first_op_wall_s, n_ops):
        return {"sim.us_per_event": op_wall_s * 1e6 / self.env_steps}


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (TrainSerial, TrainHybridCoop, TrainPipeProc,
                              ServeDecode, ServePrefill, DesSuite)}


def record_reference(seeds: Sequence[int]) -> None:
    """Re-record ``reference.json`` (only when a DES change is meant to
    move simulated outputs)."""
    fixed: Dict[str, Dict[str, float]] = {}
    seeded: Dict[str, Dict[str, Dict[str, float]]] = {}
    for seed in seeds:
        suite = DesSuite(seed)
        suite.build()
        out = suite.simulate()
        seeded[str(seed)] = {key: out.pop(key) for key in list(out)
                             if key.startswith("sched.")}
        fixed = out
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"fixed": fixed, "seeded": seeded}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
