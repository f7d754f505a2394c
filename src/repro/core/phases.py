"""Discrete-event programs for AxoNN's three execution phases.

The performance twin of :mod:`repro.runtime`: the same algorithms, but the
payloads are byte counts and the work items are kernel durations on the
simulated cluster.

Phase 1 — *inter-layer* (Algorithm 2): one data-parallel pipeline row is
simulated in full (rows are statistically identical; tests validate the
symmetry).  Stage processes are message-driven — they receive from either
neighbour and start the corresponding forward/backward pass, with the
paper's ``pipeline_limit`` in-flight bound.

Phase 2 — *data-parallel* (Algorithm 1, line 13): a gradient all-reduce
over each column.

Phase 3 — *optimizer*: resident on the GPU (bound by HBM bandwidth over
the ``20 phi`` state), sharded by ZeRO-1 (DeepSpeed), or bucketed through
the CPU (Section V-B), optionally overlapped with the chunked all-reduce
via the coarsening factor ``k`` (Section V-C).  Phases 2 and 3 are one
tail for every framework; the static walks of the baselines
(:mod:`repro.baselines`) end their batch with it too.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from ..cluster import GridPlacement, Machine
from ..comm import Message, Messenger, TAG_BACKWARD, TAG_FORWARD
from ..obs.protocol import TraceRecorder
from ..partition import optimal_checkpoint_interval, split_sizes
from ..sim import Store
from .config import AxoNNConfig

__all__ = ["StageCost", "stage_costs", "stage_pass", "run_pipeline_phase",
           "run_pipeline_phase_all_rows", "ColumnLink", "column_link",
           "column_allreduce_time", "step_time",
           "run_data_parallel_and_optimizer", "optimizer_time_on_gpu",
           "offload_bucket_time", "jitter_factor",
           "MEGATRON_FWD_ALLREDUCES_PER_LAYER",
           "MEGATRON_BWD_ALLREDUCES_PER_LAYER"]

#: Megatron-LM's activation all-reduces per transformer layer and
#: microbatch on its tensor-parallel group (Shoeybi et al., arXiv
#: 1909.08053, Section 3): the ``g`` after the attention's and after the
#: MLP's row-parallel linear in forward; in backward their conjugate
#: ``f``s, plus the two ``g``s again when activation recompute replays
#: the forward.
MEGATRON_FWD_ALLREDUCES_PER_LAYER = 2
MEGATRON_BWD_ALLREDUCES_PER_LAYER = 4


def jitter_factor(sigma: float, seed: int, stage: int, microbatch: int,
                  kind: int) -> float:
    """Deterministic lognormal compute-time perturbation.

    Models real-machine variability (clock throttling, stragglers, OS
    noise).  Keyed by (seed, stage, microbatch, fwd/bwd) so both the
    message-driven and the static schedulers see the *same* perturbed
    kernel durations — only their reaction differs.
    """
    if sigma <= 0:
        return 1.0
    return float(np.exp(sigma * _standard_normal(seed, stage, microbatch,
                                                 kind)))


@functools.lru_cache(maxsize=4096)
def _standard_normal(seed: int, stage: int, microbatch: int,
                     kind: int) -> float:
    """The standard-normal deviate under one :func:`jitter_factor` key.

    A pure function of its key, so drawing it once per key per process
    returns the same float a fresh generator would: every walk over the
    same perturbations (and every sigma of a sweep) shares one draw.
    The memo holds at most 4096 deviates — about 300 bytes each with
    word-sized keys, so 1.2 MB at worst.
    """
    return np.random.default_rng(
        (seed, stage, microbatch, kind)).standard_normal()


@dataclass(frozen=True)
class StageCost:
    """Per-microbatch execution costs of one pipeline stage: everything a
    pipeline walk reads, whichever framework the table was built for."""

    stage: int
    n_block_layers: int
    params: int           # per GPU, after any intra-layer sharding
    fwd_flops: float
    bwd_flops: float      # backward proper (2x forward) + head backward
    recompute_flops: float  # checkpoint recompute during backward
    work_granularity: float  # per-kernel work for the efficiency model
    activation_bytes: int   # boundary message size
    #: fixed serial seconds on top of each forward / backward pass: the
    #: p2p handling overhead plus whatever intra-layer collectives the
    #: framework pays, priced by whoever builds the table (walks never
    #: compute a collective time)
    fwd_extra_s: float = 0.0
    bwd_extra_s: float = 0.0

    def slot_time(self, machine: Machine) -> float:
        """Closed-form duration of one forward + one backward pass — the
        sum of the two :func:`stage_pass` spans at zero jitter."""
        cal = machine.cal
        compute = cal.compute.time(
            self.fwd_flops + self.recompute_flops + self.bwd_flops,
            machine.spec.node.gpu.peak_half_flops,
            work=self.work_granularity)
        return compute + (2 * cal.kernel_launch_overhead
                          + (self.fwd_extra_s + self.bwd_extra_s))


def stage_costs(cfg: AxoNNConfig,
                machine: Optional[Machine] = None) -> List[StageCost]:
    """Cost table for every stage of the pipeline.

    With ``g_intra > 1`` each stage's transformer blocks are sharded
    across the tensor-parallel group: per-rank block flops, parameters and
    kernel granularity all divide by ``g_intra`` (smaller kernels run less
    efficiently — the Megatron-LM penalty the ComputeModel encodes).  How
    the group pays is the framework's ``tp`` policy:

    * ``"gather"`` (AxoNN): the head and embeddings stay whole on the
      group lead, and every forward / backward pass additionally pays the
      group's weight all-gather / gradient reduce-scatter of the fp32
      shards each peer lacks — exactly the collectives the runtime's
      :class:`~repro.runtime.tp.TPComm` emits, so the DES twin prices what
      the transport actually carries.  TP groups are packed innermost on
      the node (ranks t of one stage are consecutive), so the group is
      intra-node whenever it fits on one;
    * ``"split"`` (Megatron-LM, DeepSpeed): the head and embeddings split
      too, and each pass pays NCCL all-reduces of the activation on
      NVLink — :data:`MEGATRON_FWD_ALLREDUCES_PER_LAYER` per layer
      forward, :data:`MEGATRON_BWD_ALLREDUCES_PER_LAYER` in backward and
      recompute, plus 1 / 2 for the head.

    At ``g_intra == 1`` the two tables are equal.  The serial extras
    (p2p handling plus the group's collectives) need ``machine``'s
    calibration; without one they are zero and the table prices compute
    and wire only.
    """
    spec = cfg.spec
    mbs = cfg.microbatch_size
    g_intra = cfg.g_intra
    split = cfg.policy.tp == "split"
    layer_fwd = spec.layer_forward_flops(mbs)
    head_fwd = spec.head_forward_flops(mbs)
    if split:
        head_fwd /= g_intra
    act_bytes = spec.activation_message_bytes(mbs)
    costs = []
    for i, n_layers in enumerate(split_sizes(spec.n_layer, cfg.g_inter)):
        last = i == cfg.g_inter - 1
        fwd = n_layers * layer_fwd / g_intra if split \
            else n_layers * (layer_fwd / g_intra)
        bwd = 2 * fwd
        recompute = fwd  # full activation recompute of the stage's blocks
        if last:
            fwd += head_fwd
            bwd += 2 * head_fwd
        block_params = n_layers * spec.params_per_layer
        embedding = spec.embedding_params // 2 if i == 0 or last else 0
        if split:
            phi = block_params // g_intra + embedding // g_intra
        else:
            phi = -(-block_params // g_intra) + embedding
        fwd_extra = bwd_extra = 0.0
        if machine is not None:
            cal = machine.cal
            handling = cal.p2p_handling_overhead
            fwd_extra = bwd_extra = handling
            if g_intra > 1:
                coll = cal.backend(cfg.backend_coll)
                if split:
                    ar = coll.allreduce_time(act_bytes, g_intra,
                                             intra_node=True)
                    fwd_extra = (MEGATRON_FWD_ALLREDUCES_PER_LAYER
                                 * n_layers * ar
                                 + (ar if last else 0.0)) + handling
                    bwd_extra = (MEGATRON_BWD_ALLREDUCES_PER_LAYER
                                 * n_layers * ar
                                 + (2 * ar if last else 0.0)) + handling
                else:
                    # fp32 weights of the shards each peer lacks, per
                    # microbatch
                    tp_bytes = 4 * (block_params - block_params // g_intra)
                    tp_intra = g_intra <= machine.spec.node.gpus_per_node
                    fwd_extra += (coll.allgather_time(tp_bytes, g_intra,
                                                      tp_intra)
                                  + cal.coll_launch_overhead)
                    bwd_extra += (coll.reduce_scatter_time(tp_bytes,
                                                           g_intra, tp_intra)
                                  + cal.coll_launch_overhead)
        costs.append(StageCost(
            stage=i,
            n_block_layers=n_layers,
            params=phi,
            fwd_flops=fwd,
            bwd_flops=bwd,
            recompute_flops=recompute,
            work_granularity=layer_fwd / g_intra,
            activation_bytes=act_bytes,
            fwd_extra_s=fwd_extra,
            bwd_extra_s=bwd_extra,
        ))
    return costs


def stage_pass(gpu, cost: StageCost, kind: str, mb: int,
               sigma: float = 0.0, seed: int = 0,
               split: bool = False) -> Generator:
    """One pipeline pass of microbatch ``mb`` on ``gpu``, as the process
    to ``yield from`` — the one place either walk turns a
    :class:`StageCost` into a kernel.

    ``kind`` is the span label stem: ``"fwd"``, ``"bwd"`` or ``"wgrad"``.
    A backward pass is the checkpoint recompute plus the backward proper;
    when the schedule ``split`` the weight gradient out of it (ZB-H1),
    ``"bwd"`` and ``"wgrad"`` each carry half.
    """
    if kind == "fwd":
        flops, extra = cost.fwd_flops, cost.fwd_extra_s
    else:
        flops = cost.recompute_flops + cost.bwd_flops
        extra = cost.bwd_extra_s
        if split:
            flops, extra = flops / 2.0, extra / 2.0
    flops *= jitter_factor(sigma, seed, cost.stage, mb, int(kind != "fwd"))
    return gpu.compute(flops, label=f"{kind}{mb}", category="compute",
                       work=cost.work_granularity, extra_time=extra,
                       microbatch=mb, stage=cost.stage)


def run_pipeline_phase(machine: Machine, cfg: AxoNNConfig,
                       placement: Optional[GridPlacement] = None,
                       row: int = 0,
                       track_memory: bool = False,
                       recorder: Optional[TraceRecorder] = None,
                       strict: bool = True) -> Generator:
    """Process: Algorithm 2 on one pipeline row; returns the phase duration.

    Spawns one message-driven process per stage and waits for all of them.
    ``recorder`` logs every send/recv for post-hoc protocol verification;
    ``strict`` (default) raises :class:`~repro.analysis.ProtocolError` if
    any message is still undelivered when the phase completes.

    With ``track_memory`` every in-flight microbatch allocates its
    checkpointed activations on the owning GPU's memory pool (one
    ``layers/ac`` set of checkpoints per microbatch, plus the transient
    ``1 + ac`` recompute workspace during the backward pass).  The pool's
    peak then *emerges* from the schedule — the quantity Eq. (1) predicts —
    and an over-committed configuration raises
    :class:`~repro.cluster.memory.OutOfMemoryError` mid-flight, exactly
    like the real machine.
    """
    placement = placement or GridPlacement(machine.spec, cfg.g_inter,
                                           cfg.g_data,
                                           policy=cfg.placement_policy)
    gpus = placement.pipeline(row)
    costs = stage_costs(cfg, machine)
    model = machine.cal.backend(cfg.p2p)
    messenger = Messenger(machine, model, recorder=recorder)
    m = cfg.microbatches_per_shard
    limit = cfg.effective_pipeline_limit
    env = machine.env
    start = env.now
    # Activation accounting (Eq. 1 units).
    layers_per_stage = cfg.spec.layers_per_stage(cfg.g_inter)
    ac = optimal_checkpoint_interval(cfg.spec.n_layer, layers_per_stage)
    act_unit = cfg.spec.layer_activation_bytes(cfg.microbatch_size)
    checkpoint_bytes = (layers_per_stage // ac) * act_unit
    recompute_bytes = (1 + ac) * act_unit

    def stage_proc(i: int) -> Generator:
        gpu = machine.gpu(gpus[i])
        cost = costs[i]
        prev_gpu = gpus[i - 1] if i > 0 else None
        next_gpu = gpus[i + 1] if i < cfg.g_inter - 1 else None
        queue = deque(range(m))
        sigma, jseed = cfg.compute_jitter, cfg.jitter_seed

        def fwd(mb: int) -> Generator:
            if track_memory:
                gpu.memory.allocate(f"row{row}.ckpt{mb}", checkpoint_bytes)
            yield from stage_pass(gpu, cost, "fwd", mb, sigma, jseed)

        def bwd(mb: int) -> Generator:
            if track_memory:
                gpu.memory.allocate(f"row{row}.recompute", recompute_bytes)
            yield from stage_pass(gpu, cost, "bwd", mb, sigma, jseed)
            if track_memory:
                gpu.memory.free_label(f"row{row}.recompute")
                gpu.memory.free_label(f"row{row}.ckpt{mb}")

        if cfg.g_inter == 1:
            for mb in queue:
                yield from fwd(mb)
                yield from bwd(mb)
            return

        # Warm-up: first stage injects pipeline_limit microbatches.
        if i == 0:
            for _ in range(min(limit, m)):
                mb = queue.popleft()
                yield from fwd(mb)
                messenger.isend(Message(gpus[0], next_gpu,
                                        cost.activation_bytes,
                                        tag=TAG_FORWARD,
                                        meta={"mb": mb}))

        expected = (m if prev_gpu is not None else 0) + \
                   (m if next_gpu is not None else 0)
        received = 0
        while received < expected:
            msg = yield messenger.irecv(gpus[i])
            received += 1
            if msg.tag == TAG_FORWARD:
                mb = msg.meta["mb"]
                yield from fwd(mb)
                if i == cfg.g_inter - 1:
                    yield from bwd(mb)  # BACKWARD(1) on the last stage
                    messenger.isend(Message(gpus[i], prev_gpu,
                                            cost.activation_bytes,
                                            tag=TAG_BACKWARD,
                                            meta={"mb": mb}))
                else:
                    messenger.isend(Message(gpus[i], next_gpu,
                                            cost.activation_bytes,
                                            tag=TAG_FORWARD,
                                            meta={"mb": mb}))
            else:  # backward gradient from downstream
                mb = msg.meta["mb"]
                yield from bwd(mb)
                if i == 0:
                    if queue:
                        nxt = queue.popleft()
                        yield from fwd(nxt)
                        messenger.isend(Message(gpus[0], next_gpu,
                                                cost.activation_bytes,
                                                tag=TAG_FORWARD,
                                                meta={"mb": nxt}))
                else:
                    messenger.isend(Message(gpus[i], prev_gpu,
                                            cost.activation_bytes,
                                            tag=TAG_BACKWARD,
                                            meta={"mb": mb}))

    procs = [env.process(stage_proc(i), name=f"stage{i}")
             for i in range(cfg.g_inter)]
    yield env.all_of(procs)
    if strict:
        messenger.check_drained()
    return env.now - start


def run_pipeline_phase_all_rows(machine: Machine, cfg: AxoNNConfig,
                                placement: Optional[GridPlacement] = None,
                                recorder: Optional[TraceRecorder] = None,
                                strict: bool = True) -> Generator:
    """Process: Algorithm 2 on *every* data-parallel row concurrently.

    The default simulation exploits data-parallel symmetry and runs one
    row; this variant runs the whole grid, so rows that share nodes (small
    G_inter) contend for NVLink ports and NICs.  Used to validate the
    symmetry assumption and to quantify inter-row interference.
    Returns the makespan of the slowest row.
    """
    placement = placement or GridPlacement(machine.spec, cfg.g_inter,
                                           cfg.g_data,
                                           policy=cfg.placement_policy)
    env = machine.env
    start = env.now
    rows = [env.process(run_pipeline_phase(machine, cfg, placement, row=j,
                                           recorder=recorder, strict=strict),
                        name=f"row{j}")
            for j in range(cfg.g_data)]
    yield env.all_of(rows)
    return env.now - start


def optimizer_time_on_gpu(machine: Machine, params: int) -> float:
    """Resident (no-offload) optimizer step duration: an elementwise pass
    over the 20-bytes-per-parameter state, HBM-bandwidth bound."""
    cal = machine.cal
    bytes_touched = 20 * params
    return bytes_touched / cal.hbm_bandwidth + cal.kernel_launch_overhead


def offload_bucket_time(machine: Machine, gpu_id: int,
                        bucket_params: int) -> float:
    """Duration of one offloaded optimizer bucket: fetch master+state
    (12 B/param), CPU Adam math, write back (12 B/param)."""
    gpu = machine.gpu(gpu_id)
    cal = machine.cal
    dma = gpu.dma_time(12 * bucket_params)
    cpu = bucket_params * cal.adam_flops_per_param / cal.cpu_flops
    return dma + cpu + dma + cal.optimizer_bucket_overhead


@dataclass(frozen=True)
class ColumnLink:
    """Where stage 0's data-parallel column sits and how far a pipeline hop
    travels: the inputs the tail and the closed form price a column by."""

    #: the column's representative GPU
    gpu: int
    #: every replica of the column on one node
    intra: bool
    #: columns sharing each NIC while all stages reduce at once
    nic_sharing: int
    #: fraction of the pipeline's hops that stay inside a node
    hop_intra: float


def column_link(cfg: AxoNNConfig, machine: Machine,
                placement: Optional[GridPlacement] = None) -> ColumnLink:
    """The :class:`ColumnLink` of ``cfg``'s walk.

    Algorithm 2's walk (``schedule=None``) reads :class:`GridPlacement`.
    Every stage's column reduces *simultaneously*; columns whose members
    share a node share its NIC, dividing the effective ring bandwidth.
    With pipeline-contiguous placement, min(G_inter, gpus/node) columns
    land on each node — the contention that makes the data-parallel phase
    grow from 0.62 s to 4.32 s in the paper's Fig. 6 when G_inter drops
    from 24 to 6 (more data and more ranks per column).

    A static walk puts stage ``i``'s tensor-parallel group at GPU
    ``i * g_intra``, prices every column as inter-node with its NIC
    shared by ``min(g_inter * g_intra, gpus/node)`` columns, and a hop as
    intra-node while a group leaves room on its node.  Unifying the two
    rules is a modelling change (ROADMAP item 11: ``GridPlacement`` has no
    ``g_intra``).
    """
    per_node = machine.spec.node.gpus_per_node
    if cfg.schedule is not None:
        return ColumnLink(0, False, min(cfg.g_inter * cfg.g_intra, per_node),
                          float(cfg.g_intra < per_node))
    placement = placement or GridPlacement(machine.spec, cfg.g_inter,
                                           cfg.g_data,
                                           policy=cfg.placement_policy)
    intra = placement.data_group_nodes(0) == 1
    hops = placement.pipeline_edge_locality(0)["intra"]
    return ColumnLink(placement.data_group(0)[0], intra,
                      1 if intra else min(cfg.g_inter, per_node),
                      hops / max(1, cfg.g_inter - 1))


def column_allreduce_time(machine: Machine, cfg: AxoNNConfig,
                          link: ColumnLink, nbytes: int) -> float:
    """One all-reduce of ``nbytes`` over the column; a one-replica column
    has nothing to reduce."""
    if cfg.g_data == 1:
        return 0.0
    cal = machine.cal
    return (link.nic_sharing * cal.backend(cfg.backend_coll).allreduce_time(
        nbytes, cfg.g_data, link.intra) + cal.coll_launch_overhead)


def step_time(machine: Machine, cfg: AxoNNConfig, link: ColumnLink,
              params: int) -> float:
    """An on-GPU optimizer step over ``params``.  Under ZeRO-1 a replica
    steps its ``1 / g_data`` shard, then the column all-gathers the
    updated fp16 parameters, priced as half an all-reduce of ``params``
    bytes."""
    if cfg.optimizer_placement != "zero1" or cfg.g_data == 1:
        return optimizer_time_on_gpu(machine, params)
    cal = machine.cal
    gather = link.nic_sharing * cal.backend(cfg.backend_coll).allreduce_time(
        params, cfg.g_data, link.intra)
    return optimizer_time_on_gpu(machine, params // cfg.g_data) + (
        gather / 2 + cal.coll_launch_overhead)


def run_data_parallel_and_optimizer(machine: Machine, cfg: AxoNNConfig,
                                    link: ColumnLink) -> Generator:
    """Process: Algorithm 1 line 13 + optimizer for stage 0's column, on
    ``link.gpu``'s streams: the all-reduce on the aux stream, the
    optimizer on the compute stream.

    Returns ``(allreduce_seconds, optimizer_seconds, combined_seconds)``
    where *combined* is the makespan of the phase (with overlap it is less
    than the sum).
    """
    env = machine.env
    phi = stage_costs(cfg)[0].params
    gpu_id = link.gpu
    gpu = machine.gpu(gpu_id)
    grad_bytes = cfg.spec.gradient_bytes_half(phi)
    start = env.now
    ar_busy = 0.0
    opt_busy = 0.0

    def allreduce(nbytes: int, label: str = "allreduce",
                  **meta) -> Generator:
        dur = column_allreduce_time(machine, cfg, link, nbytes)
        yield from gpu.busy(dur, label=label, category="allreduce",
                            stream=gpu.aux_stream, nbytes=nbytes, **meta,
                            ranks=cfg.g_data)
        return dur

    if not cfg.include_optimizer:
        # Fig. 5 setting: optimizer states removed; only the all-reduce runs.
        dur = yield from allreduce(grad_bytes)
        return dur, 0.0, env.now - start

    if cfg.optimizer_placement != "offload":
        # Resident or ZeRO-1: monolithic all-reduce, then the step.
        ar = yield from allreduce(grad_bytes)
        opt = step_time(machine, cfg, link, phi)
        yield from gpu.busy(opt, label="optimizer", category="optimizer",
                            stream=gpu.compute_stream, params=phi)
        return ar, opt, env.now - start

    # Memory-optimized path: bucketed CPU offload, chunked all-reduce with
    # coarsening factor k, optimizer chunks enqueued as reductions finish.
    bsize = min(cfg.bucket_size, phi)
    n_buckets = -(-phi // bsize)
    k = cfg.coarsening_k
    n_chunks = -(-n_buckets // k)

    if not cfg.overlap:
        ar = yield from allreduce(grad_bytes)
        for b in range(n_buckets):
            params_here = min(bsize, phi - b * bsize)
            dur = offload_bucket_time(machine, gpu_id, params_here)
            yield from gpu.busy(dur, label=f"opt-bucket{b}",
                                category="optimizer",
                                stream=gpu.compute_stream,
                                params=params_here)
        return ar, env.now - start - ar, env.now - start

    # Overlapped: all-reduce chunks on the aux stream feed optimizer bucket
    # work on the compute stream through a ready-queue (Fig. 7's two rows).
    ready: Store = Store(env, name="chunk-ready")

    def allreduce_proc() -> Generator:
        nonlocal ar_busy
        remaining = phi
        for c in range(n_chunks):
            chunk_params = min(k * bsize, remaining)
            remaining -= chunk_params
            ar_busy += yield from allreduce(
                cfg.spec.gradient_bytes_half(chunk_params),
                f"allreduce-chunk{c}", chunk=c)
            ready.put(chunk_params)

    def optimizer_proc() -> Generator:
        nonlocal opt_busy
        for _ in range(n_chunks):
            chunk_params = yield ready.get()
            while chunk_params > 0:
                params_here = min(bsize, chunk_params)
                chunk_params -= params_here
                dur = offload_bucket_time(machine, gpu_id, params_here)
                yield from gpu.busy(dur, label="opt-bucket",
                                    category="optimizer",
                                    stream=gpu.compute_stream,
                                    params=params_here)
                opt_busy += dur

    procs = [env.process(allreduce_proc(), name="allreduce"),
             env.process(optimizer_proc(), name="optimizer")]
    yield env.all_of(procs)
    return ar_busy, opt_busy, env.now - start
