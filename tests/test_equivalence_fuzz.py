"""Cross-cutting equivalence fuzz: random grid shapes, schedules and data
streams must all compute the same training trajectory.

This is the capstone property of the reproduction: whatever the parallel
decomposition — pipeline depth, data-parallel width, microbatch size,
message-driven engine or any compiled static schedule — one optimizer
step over one batch is *the same function*.  Hypothesis explores the
configuration space; a violation anywhere would indicate a scheduling,
sharding or reduction bug.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.nn import GPT, GPTConfig, generate, num_layer_slots
from repro.obs.protocol import (TraceRecorder, check_match_order,
                                check_unmatched_sends, verify_trace)
from repro.resilience import Fault, FaultPlan, ResilientTrainer
from repro.runtime import AxoNNTrainer, SerialTrainer
from repro.sched import SCHEDULE_NAMES, build_schedule
from repro.serve import PipelineServer, RequestSpec, make_requests

CFG = GPTConfig(vocab_size=13, seq_len=6, n_layer=3, n_head=2, hidden=8,
                dropout=0.0, init_seed=77)

# Dropout on, so the cross-backend check also covers the RNG-state
# round-trip through the worker processes.
CFG_DROP = GPTConfig(vocab_size=13, seq_len=6, n_layer=3, n_head=2,
                     hidden=8, dropout=0.1, init_seed=77)

# valid (g_inter, g_data, microbatch, batch) combinations for a 5-slot model
GRIDS = [
    (1, 1, 4, 4), (1, 2, 2, 4), (1, 4, 1, 4),
    (2, 1, 2, 4), (2, 2, 1, 4), (2, 3, 2, 6),
    (3, 1, 1, 4), (3, 2, 1, 4), (4, 1, 2, 4), (5, 1, 1, 4),
]


@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 10_000),
    # None: AxoNN's message-driven engine; a name: that compiled schedule
    schedule=st.sampled_from((None,) + SCHEDULE_NAMES),
)
@settings(max_examples=25, deadline=None)
def test_any_decomposition_matches_serial(grid, seed, schedule):
    g_inter, g_data, mbs, batch = grid
    rng = np.random.default_rng(seed)
    x = rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len))
    y = rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len))
    serial = SerialTrainer(CFG, lr=1e-3)
    try:
        if schedule is not None:
            build_schedule(schedule, g_inter, batch // g_data // mbs)
        trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                               microbatch_size=mbs, lr=1e-3,
                               schedule=schedule)
    except ValueError:
        if schedule is None:
            raise  # every grid above is valid for the message-driven walk
        reject()  # the builder (or the model's depth) refuses the grid
    parallel_loss = trainer.train_batch(x, y).loss
    serial_loss = serial.train_batch(x, y)
    assert parallel_loss == pytest.approx(serial_loss, rel=3e-4, abs=3e-5)


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_two_decompositions_agree_over_multiple_batches(seed):
    """Two different decompositions stay in lockstep across several steps
    (errors would compound if any single step diverged)."""
    rng = np.random.default_rng(seed)
    a = AxoNNTrainer(CFG, g_inter=3, g_data=2, microbatch_size=1, lr=1e-3)
    b = AxoNNTrainer(CFG, g_inter=1, g_data=3, microbatch_size=2, lr=1e-3)
    for _ in range(3):
        x = rng.integers(0, CFG.vocab_size, (6, CFG.seq_len))
        y = rng.integers(0, CFG.vocab_size, (6, CFG.seq_len))
        la = a.train_batch(x, y).loss
        lb = b.train_batch(x, y).loss
        assert la == pytest.approx(lb, rel=3e-4, abs=3e-5)


# valid (g_inter, g_data, microbatch, batch) shapes for the cross-backend
# fuzz; kept small — every example spawns g_inter * g_data real processes.
PROCESS_GRIDS = [
    (1, 2, 2, 4), (2, 1, 2, 4), (2, 2, 1, 4), (3, 1, 1, 4), (1, 3, 1, 6),
]

#: precision -> trainer keywords; small buckets so the fp16 reduce runs
#: in several chunks and the offload optimizer steps several buckets each
PRECISIONS = {
    "fp32": {},
    "mixed": dict(precision="mixed", bucket_size=16, coarsening_k=2),
    "offload": dict(precision="mixed", offload=True, bucket_size=16,
                    coarsening_k=2),
}


@given(grid=st.sampled_from(PROCESS_GRIDS), seed=st.integers(0, 1000),
       precision=st.sampled_from(sorted(PRECISIONS)),
       schedule=st.sampled_from((None, "1f1b")))
@settings(max_examples=10, deadline=None)
def test_process_backend_bit_identical_to_cooperative(grid, seed, precision,
                                                      schedule):
    """The process backend is not allowed numerical latitude: losses,
    post-step weights and the recorded message trace must all match the
    cooperative backend exactly — same microbatch draw order, same
    dropout masks (RNG states ship both ways), same reduction order, in
    every precision (the workers reduce and step themselves), under
    Algorithm 2 and a static schedule."""
    g_inter, g_data, mbs, batch = grid
    rng = np.random.default_rng(seed)
    batches = [(rng.integers(0, CFG_DROP.vocab_size, (batch, CFG_DROP.seq_len)),
                rng.integers(0, CFG_DROP.vocab_size, (batch, CFG_DROP.seq_len)))
               for _ in range(2)]
    if schedule is not None and g_inter == 1:
        reject()  # a static order needs a pipeline

    def run(backend):
        recorder = TraceRecorder()
        trainer = AxoNNTrainer(CFG_DROP, g_inter=g_inter, g_data=g_data,
                               microbatch_size=mbs, lr=1e-3,
                               recorder=recorder, backend=backend,
                               schedule=schedule, **PRECISIONS[precision])
        try:
            losses = [trainer.train_batch(x, y).loss for x, y in batches]
            return losses, trainer.gather_state(), recorder
        finally:
            trainer.close()

    coop_losses, coop_state, coop_rec = run("cooperative")
    proc_losses, proc_state, proc_rec = run("process")

    assert proc_losses == coop_losses  # exact, not approx
    assert set(proc_state) == set(coop_state)
    for key in coop_state:
        assert np.array_equal(proc_state[key], coop_state[key]), key
    # Both recorded message traces must be verifier-clean on the p2p
    # checks (per-channel FIFO, every send consumed).  Collective order
    # across data-parallel *groups* legitimately differs, so that check
    # is not asserted here.
    for rec in (coop_rec, proc_rec):
        assert check_unmatched_sends(rec) == []
        assert check_match_order(rec) == []


@pytest.mark.parametrize("schedule", [None, "1f1b"])
@pytest.mark.parametrize("backend", ["cooperative", "process"])
def test_activation_checkpointing_replays_the_dropout_it_sent(backend,
                                                              schedule):
    """A checkpointed segment's backward recomputes the segment; with
    dropout on, the replay must draw the masks of the forward whose
    activations went downstream — also when other microbatches advanced
    the streams in between (microbatch 1, so they always have).  Then
    checkpointing changes memory, not one bit of the trajectory."""
    rng = np.random.default_rng(5)
    batches = [(rng.integers(0, CFG_DROP.vocab_size, (4, CFG_DROP.seq_len)),
                rng.integers(0, CFG_DROP.vocab_size, (4, CFG_DROP.seq_len)))
               for _ in range(3)]

    def run(checkpoint_activations):
        trainer = AxoNNTrainer(CFG_DROP, g_inter=2, g_data=1,
                               microbatch_size=1, lr=1e-3, backend=backend,
                               schedule=schedule,
                               checkpoint_activations=checkpoint_activations)
        try:
            losses = [trainer.train_batch(x, y).loss for x, y in batches]
            return losses, trainer.gather_state()
        finally:
            trainer.close()

    plain_losses, plain_state = run(False)
    ckpt_losses, ckpt_state = run(True)
    assert ckpt_losses == plain_losses  # exact, not approx
    for key in plain_state:
        assert np.array_equal(ckpt_state[key], plain_state[key]), key


@given(
    schedule=st.sampled_from((None,) + SCHEDULE_NAMES),
    rank=st.integers(0, 3),
    tick=st.integers(0, 30),  # past the batch's last sweep: dies at the barrier
    seed=st.integers(0, 1000),
)
@settings(max_examples=12, deadline=None)
def test_a_crash_at_any_tick_recovers_exactly_under_any_walk(
        schedule, rank, tick, seed):
    """The cooperative sweep clock is one clock: wherever on it a rank
    dies, and whichever rank program it was running, rollback-and-replay
    lands on the fault-free trajectory bit for bit."""
    rng = np.random.default_rng(seed)
    batches = [(rng.integers(0, CFG_DROP.vocab_size, (4, CFG_DROP.seq_len)),
                rng.integers(0, CFG_DROP.vocab_size, (4, CFG_DROP.seq_len)))
               for _ in range(3)]

    def trainer():
        return AxoNNTrainer(CFG_DROP, g_inter=2, g_data=2,
                            microbatch_size=1, lr=1e-3, schedule=schedule)

    reference = trainer()
    want = [reference.train_batch(x, y).loss for x, y in batches]
    resilient = ResilientTrainer(
        trainer(), FaultPlan.of(Fault("crash", rank=rank, step=1, tick=tick)))
    got = [resilient.train_batch(x, y).loss for x, y in batches]
    assert resilient.total_recoveries == 1
    assert got == want  # exact, not approx
    a, b = reference.gather_state(), resilient.trainer.gather_state()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


# valid (g_inter, g_data, g_intra, microbatch, batch) 4D shapes; n_head=2
# caps g_intra at 2 for the fuzz configs.
TP_GRIDS = [
    (1, 1, 2, 2, 4), (2, 1, 2, 2, 4), (1, 2, 2, 2, 4), (3, 1, 2, 1, 4),
]

TP_SCHEDULES = (None,) + SCHEDULE_NAMES


@given(
    grid=st.sampled_from(TP_GRIDS),
    seed=st.integers(0, 1000),
    precision=st.sampled_from(["fp32", "mixed"]),
    schedule=st.sampled_from(TP_SCHEDULES),
)
@settings(max_examples=12, deadline=None)
def test_tensor_parallel_axis_matches_dense(grid, seed, precision, schedule):
    """``g_intra > 1`` is bit-identical to the dense ``g_intra = 1`` run:
    dropout stays on (the TP lead owns the stage's RNG state, so sharding
    the parameters must not move any draw), mixed precision is fuzzed
    too (gathered weights round-trip through the same dtypes), and so is
    the walk — Algorithm 2 or any static order, interleaved chunks
    included."""
    g_inter, g_data, g_intra, mbs, batch = grid
    if schedule is not None:
        try:
            sched = build_schedule(schedule, g_inter, batch // g_data // mbs)
        except ValueError:
            reject()  # the builder refuses the grid
        if sched.n_virtual > num_layer_slots(CFG_DROP):
            reject()  # more chunks than the model has layer slots
    rng = np.random.default_rng(seed)
    batches = [(rng.integers(0, CFG_DROP.vocab_size,
                             (batch, CFG_DROP.seq_len)),
                rng.integers(0, CFG_DROP.vocab_size,
                             (batch, CFG_DROP.seq_len)))
               for _ in range(2)]

    def run(g_intra_):
        trainer = AxoNNTrainer(CFG_DROP, g_inter=g_inter, g_data=g_data,
                               microbatch_size=mbs, g_intra=g_intra_,
                               lr=1e-3, precision=precision,
                               schedule=schedule)
        try:
            losses = [trainer.train_batch(x, y).loss for x, y in batches]
            return losses, trainer.gather_state()
        finally:
            trainer.close()

    dense_losses, dense_state = run(1)
    tp_losses, tp_state = run(g_intra)
    assert tp_losses == dense_losses  # exact, not approx
    assert set(tp_state) == set(dense_state)
    for key in dense_state:
        assert np.array_equal(tp_state[key], dense_state[key]), key


# kept tiny: every example spawns g_inter * g_data * g_intra processes.
TP_PROCESS_GRIDS = [(2, 1, 2, 2, 4), (1, 2, 2, 2, 4), (2, 2, 2, 1, 4)]


@given(
    grid=st.sampled_from(TP_PROCESS_GRIDS),
    seed=st.integers(0, 1000),
    precision=st.sampled_from(["fp32", "mixed"]),
)
@settings(max_examples=4, deadline=None)
def test_process_backend_4d_bit_identical_to_cooperative(grid, seed,
                                                         precision):
    """The cross-substrate contract extends to the TP axis: real worker
    processes running sharded stages (dropout on, either precision) must
    reproduce the cooperative backend's losses and weights exactly."""
    g_inter, g_data, g_intra, mbs, batch = grid
    rng = np.random.default_rng(seed)
    batches = [(rng.integers(0, CFG_DROP.vocab_size,
                             (batch, CFG_DROP.seq_len)),
                rng.integers(0, CFG_DROP.vocab_size,
                             (batch, CFG_DROP.seq_len)))
               for _ in range(2)]

    def run(backend):
        trainer = AxoNNTrainer(CFG_DROP, g_inter=g_inter, g_data=g_data,
                               microbatch_size=mbs, g_intra=g_intra,
                               lr=1e-3, precision=precision,
                               backend=backend)
        try:
            losses = [trainer.train_batch(x, y).loss for x, y in batches]
            return losses, trainer.gather_state()
        finally:
            trainer.close()

    coop_losses, coop_state = run("cooperative")
    proc_losses, proc_state = run("process")
    assert proc_losses == coop_losses  # exact, not approx
    assert set(proc_state) == set(coop_state)
    for key in coop_state:
        assert np.array_equal(proc_state[key], coop_state[key]), key


# room for a prompt plus a few generated tokens; 5 layer slots, so every
# pool depth below gets at least one
SERVE_CFG = GPTConfig(vocab_size=13, seq_len=16, n_layer=3, n_head=2,
                      hidden=8, init_seed=77)
SERVE_MODEL = GPT(SERVE_CFG)
_LIMIT = st.one_of(st.none(), st.integers(1, 3))


@given(
    g_prefill=st.integers(0, 3),  # 0: the decode pool fills its own KV
    g_inter=st.integers(1, 4),
    max_batch=st.integers(1, 8),  # widths a stacked pass can reach
    pipeline_limit=_LIMIT,
    max_active=st.one_of(st.none(), st.integers(1, 8)),
    prefill_limit=_LIMIT,
    n_requests=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_any_serving_placement_matches_serial_generate(
        g_prefill, g_inter, max_batch, pipeline_limit, max_active,
        prefill_limit, n_requests, seed):
    """The serving analogue of the capstone property: wherever prompts
    run, however deep either pool is and however the scheduler's windows
    are set, a request's tokens are serial ``generate``'s — and the run
    leaves no KV resident and a verifier-clean message trace."""
    requests = make_requests(SERVE_CFG, n_requests, RequestSpec(
        mean_prompt=3, mean_new_tokens=3, seed=seed))
    recorder = TraceRecorder()
    server = PipelineServer(
        SERVE_CFG, g_inter=g_inter, max_batch=max_batch,
        pipeline_limit=pipeline_limit, max_active=max_active,
        recorder=recorder, g_prefill=g_prefill, prefill_limit=prefill_limit)
    got = server.serve(requests)
    for req in requests:
        want = generate(SERVE_MODEL, req.prompt, req.max_new_tokens,
                        temperature=req.temperature, top_k=req.top_k,
                        rng=np.random.default_rng(req.seed),
                        greedy=req.greedy)
        assert np.array_equal(got[req.rid], want), req.rid
    assert all(s.inflight_requests == 0
               for s in server.stages + server.prefill_stages)
    assert verify_trace(recorder) == []
