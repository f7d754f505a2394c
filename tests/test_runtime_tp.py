"""4D runtime tests: the tensor-parallel axis on the rank transport.

The gather-whole-weights protocol makes ``g_intra > 1`` compute exactly
the same floating-point operations in the same order as the dense
``g_intra = 1`` stage, so every comparison here is exact equality, not
approx.  The TP collectives must also be booked exactly once per group
member in the shared ``tp.*`` counter namespace, and checkpoints must
round-trip under a TP grid (and be rejected across grid shapes).
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import axonn_model, extract_skeleton
from repro.nn import Block, GPTConfig, LossScaler, num_layer_slots
from repro.perf import counters, counting
from repro.runtime import (
    AxoNNTrainer,
    RankTransport,
    load_trainer_state,
    trainer_state_dict,
)
from repro.runtime.grid import RankGrid
from repro.runtime.stage import PipelineStage
from repro.runtime.tp import TAG_TP_GRAD, TAG_TP_WGT, ShardMap, TPComm
from repro.sched import SCHEDULE_NAMES, schedule_chunks

# Three heads: a 2-way TP split shards them unevenly ([2, 1]), which is
# exactly the case the split_sizes fix covers on the runtime path.
CFG = GPTConfig(vocab_size=19, seq_len=6, n_layer=2, n_head=3, hidden=12,
                dropout=0.1, init_seed=21)


def make_batches(n, batch=4, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len)),
             rng.integers(0, CFG.vocab_size, (batch, CFG.seq_len)))
            for _ in range(n)]


def run(g_inter, g_data, g_intra, steps=3, backend="cooperative", **kw):
    trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                           microbatch_size=2, g_intra=g_intra, lr=1e-3,
                           backend=backend, **kw)
    try:
        losses = [trainer.train_batch(x, y).loss
                  for x, y in make_batches(steps)]
        return losses, trainer.gather_state()
    finally:
        trainer.close()


class TestBitIdentityToDense:
    @pytest.mark.parametrize("backend,checkpoint", [
        ("cooperative", False), ("cooperative", True), ("process", True)])
    def test_tp2_uneven_heads_fp32(self, backend, checkpoint):
        """Checkpointing is the lead's own business: its replay runs the
        dense stage, so the checkpointed TP run still equals the dense,
        uncheckpointed one."""
        dense_losses, dense_state = run(2, 1, 1)
        tp_losses, tp_state = run(2, 1, 2, backend=backend,
                                  checkpoint_activations=checkpoint)
        assert tp_losses == dense_losses
        assert set(tp_state) == set(dense_state)
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)

    def test_tp3_with_data_parallelism(self):
        dense_losses, dense_state = run(1, 2, 1)
        tp_losses, tp_state = run(1, 2, 3)
        assert tp_losses == dense_losses
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)

    def test_tp2_mixed_precision(self):
        kw = dict(precision="mixed",
                  loss_scaler=LossScaler(init_scale=64, dynamic=False))
        dense_losses, dense_state = run(2, 1, 1, **kw)
        kw["loss_scaler"] = LossScaler(init_scale=64, dynamic=False)
        tp_losses, tp_state = run(2, 1, 2, **kw)
        assert tp_losses == dense_losses
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)


    @pytest.mark.parametrize("precision", ["fp32", "mixed"])
    @pytest.mark.parametrize("backend", ["cooperative", "process"])
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_tp2_under_a_static_schedule(self, schedule, backend, precision):
        """The 4D paper's own configuration: a static order's lead
        emits the same collectives around the same passes, so sharding
        stays invisible to the numbers under every order, interleaved
        chunks included."""
        dense_losses, dense_state = run(2, 1, 1, steps=2, schedule=schedule,
                                        precision=precision)
        tp_losses, tp_state = run(2, 1, 2, steps=2, schedule=schedule,
                                  precision=precision, backend=backend)
        assert tp_losses == dense_losses
        assert set(tp_state) == set(dense_state)
        for key in dense_state:
            np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                          err_msg=key)


@given(n_head=st.integers(1, 4), head_dim=st.integers(1, 3),
       n_layer=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_shard_map_partitions_the_sharded_matrices(n_head, head_dim,
                                                   n_layer, data):
    """Across the members, the pieces of every sharded matrix are
    disjoint and cover it exactly, and no member lists a replicated
    parameter (a LayerNorm, a projection bias, the embedding or head)."""
    cfg = GPTConfig(vocab_size=7, seq_len=4, n_layer=n_layer, n_head=n_head,
                    hidden=n_head * head_dim)
    g_inter = data.draw(st.integers(1, num_layer_slots(cfg)))
    stage = PipelineStage(cfg, data.draw(st.integers(0, g_inter - 1)),
                          g_inter)
    shards = ShardMap(stage, data.draw(st.integers(1, n_head)))
    owners = {id(p): np.zeros(p.shape, dtype=int)
              for p in stage.parameters()}
    for pieces in shards.pieces:
        for p, index in pieces:
            owners[id(p)][index] += 1
    sharded = {id(p) for layer in stage.layers if isinstance(layer, Block)
               for p in (layer.attn.qkv.weight, layer.attn.qkv.bias,
                         layer.attn.proj.weight, layer.mlp.fc.weight,
                         layer.mlp.fc.bias, layer.mlp.proj.weight)}
    assert {id(p) for pieces in shards.pieces
            for p, _ in pieces} <= sharded
    for p in stage.parameters():
        assert (owners[id(p)] == (id(p) in sharded)).all()


class TestCollectiveAccounting:
    def test_tp_counters_booked_once_per_member(self):
        """One allgather and one reduce-scatter record per group member
        per microbatch — no double-booking between the trace sink, the
        perf counters and the obs stream."""
        g_inter, g_data, g_intra = 2, 1, 2
        trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                               microbatch_size=2, g_intra=g_intra, lr=1e-3)
        (x, y), = make_batches(1)
        with counting():
            trainer.train_batch(x, y)
            snap = counters.snapshot()
        m = x.shape[0] // g_data // 2  # microbatches per shard
        expected = g_inter * g_data * g_intra * m
        assert snap["tp.allgather"] == expected
        assert snap["tp.reduce_scatter"] == expected
        assert snap["tp.allgather_bytes"] > 0
        assert snap["tp.reduce_scatter_bytes"] > 0

    def test_dense_run_books_no_tp_collectives(self):
        trainer = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                               lr=1e-3)
        (x, y), = make_batches(1)
        with counting():
            trainer.train_batch(x, y)
            snap = counters.snapshot()
        assert not any(k.startswith("tp.") for k in snap)


class TestCheckpointing:
    def test_round_trip_under_tp_grid(self):
        batches = make_batches(4)
        original = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                                g_intra=2, lr=1e-3)
        for x, y in batches[:2]:
            original.train_batch(x, y)
        snapshot = trainer_state_dict(original)

        resumed = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                               g_intra=2, lr=1e-3)
        load_trainer_state(resumed, snapshot)
        assert resumed.batches_trained == 2

        for x, y in batches[2:]:
            original.train_batch(x, y)
            resumed.train_batch(x, y)
        a = original.gather_state()
        b = resumed.gather_state()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    def test_g_intra_mismatch_rejected(self):
        tp = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                          g_intra=2, lr=1e-3)
        snapshot = trainer_state_dict(tp)
        dense = AxoNNTrainer(CFG, g_inter=2, g_data=1, microbatch_size=2,
                             lr=1e-3)
        with pytest.raises(ValueError, match="grid mismatch"):
            load_trainer_state(dense, snapshot)


def test_process_backend_tp_matches_cooperative_dense():
    """Real OS-process ranks under a TP grid reproduce the cooperative
    dense losses and weights bit-for-bit (2 stages x 2-way TP = 4
    workers)."""
    dense_losses, dense_state = run(2, 1, 1, steps=2)
    proc_losses, proc_state = run(2, 1, 2, steps=2, backend="process")
    assert proc_losses == dense_losses
    assert set(proc_state) == set(dense_state)
    for key in dense_state:
        np.testing.assert_array_equal(proc_state[key], dense_state[key],
                                      err_msg=key)


@pytest.mark.parametrize("backend", ["cooperative", "process"])
@pytest.mark.parametrize("g_intra", [2, 3])
def test_followers_only_receive(backend, g_intra):
    """Nothing is acknowledged: a TP batch sends the dense batch's
    messages plus, per follower and microbatch, one weight and one
    gradient message — and no follower op the checker extracts is a
    send."""
    g_inter, g_data = 2, 1
    (x, y), = make_batches(1)

    def report(g):
        trainer = AxoNNTrainer(CFG, g_inter=g_inter, g_data=g_data,
                               microbatch_size=2, g_intra=g, lr=1e-3,
                               backend=backend)
        try:
            return trainer.train_batch(x, y)
        finally:
            trainer.close()

    dense = report(1)
    m = dense.microbatches // g_data
    assert report(g_intra).messages == \
        dense.messages + 2 * g_inter * g_data * m * (g_intra - 1)

    skeleton = extract_skeleton(axonn_model(2, 1, 2, g_intra=2))
    grid = RankGrid(2, 1, 2)
    followers = [r for r in skeleton.ops if not grid.is_tp_lead(r)]
    assert followers
    assert not [op for r in followers for op in skeleton.ops[r]
                if op.kind == "send"]


#: deep enough for interleaved's two chunks per rank at two stages
IL_CFG = dataclasses.replace(CFG, n_layer=4)


def run_interleaved(g_intra, backend="cooperative", transport=None):
    """(the reports and the gathered state of two interleaved steps)"""
    trainer = AxoNNTrainer(IL_CFG, g_inter=2, g_data=1, microbatch_size=2,
                           g_intra=g_intra, lr=1e-3, backend=backend,
                           schedule="interleaved")
    if transport is not None:
        trainer.transport_factory = lambda: transport(trainer.grid.world_size)
    try:
        reports = [trainer.train_batch(x, y) for x, y in make_batches(2)]
        return reports, trainer.gather_state()
    finally:
        trainer.close()


@pytest.mark.parametrize("backend", ["cooperative", "process"])
def test_interleaved_on_a_tensor_parallel_grid(backend):
    """A lead of two chunks serves its group per chunk: losses and
    weights are bit-identical to the g_intra = 1 interleaved run, and the
    batch sends the dense messages plus, per follower, chunk and
    microbatch, one weight and one gradient message."""
    g_inter, g_data, g_intra = 2, 1, 2
    dense, dense_state = run_interleaved(1)
    tp, tp_state = run_interleaved(g_intra, backend)
    assert [r.loss for r in tp] == [r.loss for r in dense]
    assert set(tp_state) == set(dense_state)
    for key in dense_state:
        np.testing.assert_array_equal(tp_state[key], dense_state[key],
                                      err_msg=key)
    n_chunks = schedule_chunks("interleaved")
    for d, t in zip(dense, tp):
        m = d.microbatches // g_data
        assert t.messages == d.messages + \
            2 * g_inter * g_data * m * n_chunks * (g_intra - 1)


def test_each_chunk_sends_its_own_pieces():
    """Every chunk has its own ShardMap and tags qualified with its
    virtual stage: a chunk's all-gather carries the pieces of that
    chunk's blocks only (none for the head's chunk), and its
    reduce-scatter the gradient of the follower's pieces of them."""
    sizes = {}

    class Tap(RankTransport):
        def send(self, src, dst, tag, microbatch, data=None):
            if tag.startswith("tp_"):
                sizes.setdefault(tag, set()).add(data.nbytes)
            super().send(src, dst, tag, microbatch, data)

    run_interleaved(2, transport=Tap)
    n_virtual = 2 * schedule_chunks("interleaved")
    want = {}
    for v in range(n_virtual):
        shards = ShardMap(PipelineStage(IL_CFG, v, n_virtual), 2)
        want[f"{TAG_TP_WGT}@{v}"] = {shards.wgt_payload(1).nbytes}
        want[f"{TAG_TP_GRAD}@{v}"] = {
            sum(p.data[index].nbytes for p, index in shards.pieces[1])}
    assert sizes == want


# -- exact pins of the lead-compute protocol --------------------------------
#
# Recorded on the tree where the lead still held a sharded copy of its
# stage (one Parameter per matrix part and member), so serving the
# protocol from the dense stage is held to the last bit: the losses are
# the ``repr`` of the floats that tree returned, the ``tp.*`` counters
# are exact, and every ``tp_wgt`` / ``tp_grad`` payload is folded, in
# send order, into one sha256 over (source, destination, tag,
# microbatch, dtype, shape, bytes).  Nothing here may be re-recorded by
# a refactor.
#
# Re-recorded once, when the cooperative first stage began to start its
# fresh microbatches as one pass: its backward then covers the pair, so
# the lead's reduce-scatter for microbatch 0 carries the pair's
# accumulated gradient (the bytes it sent for microbatch 1 before).
# Losses, counters, the order of every TP message and every other
# payload held.  The digests were, for 2x1x2_fp32 and 2x1x3_mixed:
#   14dabc37dc6565ea96ea7fe9f83b41845f84a5a2af15b77fe10e699e8b3282cc
#   3e23c356bcc8adc7201b7f841e5083e8b521e61adb6142e94d8cab24a8cf5542
#
# Re-recorded again, all three, when a ``tp_grad`` payload became its own
# microbatch's gradient instead of the accumulated ``.grad`` read after
# the pass.  Losses, counters, the order of every TP message and every
# ``tp_wgt`` payload held; the ``tp_grad`` payloads that moved are those
# that had carried more than one microbatch's gradient (under 1f1b,
# every microbatch but each step's first).  The digests were, for
# 2x1x2_fp32, 2x1x3_mixed and 2x1x2_fp32_1f1b:
#   f0aaf25ec69a48c07398245e34dd75d137a3450d3dce51c32c03ca092b38354f
#   509210171049423b69e52bb223252dc6f09aee8dc5d14400ebba241d97de48e2
#   f4cde64b3770a74a17f2ef5cba85537a21d2ef08e34601d50601670cf926f019


class PayloadTap(RankTransport):
    """The cooperative transport, hashing every TP payload it carries."""

    def __init__(self, n_ranks, digest):
        super().__init__(n_ranks)
        self.digest = digest

    def send(self, src, dst, tag, microbatch, data=None):
        if tag in (TAG_TP_WGT, TAG_TP_GRAD):
            self.digest.update(f"{src}>{dst}:{tag}:{microbatch}:"
                               f"{data.dtype.str}{data.shape}".encode())
            self.digest.update(np.ascontiguousarray(data).tobytes())
        super().send(src, dst, tag, microbatch, data)


#: name -> trainer keyword arguments; each case trains two steps
PIN_CASES = {
    "2x1x2_fp32": dict(g_inter=2, g_data=1, g_intra=2),
    "2x1x3_mixed": dict(g_inter=2, g_data=1, g_intra=3, precision="mixed"),
    "2x1x2_fp32_1f1b": dict(g_inter=2, g_data=1, g_intra=2,
                            schedule="1f1b"),
}


def run_pinned(name, backend="cooperative"):
    """(two step losses, the ``tp.*`` counters, the payload sha256 —
    None on the process backend, whose rings no tap sees)."""
    kwargs = dict(PIN_CASES[name])
    if kwargs.get("precision") == "mixed":
        kwargs["loss_scaler"] = LossScaler(init_scale=64, dynamic=False)
    trainer = AxoNNTrainer(CFG, microbatch_size=2, lr=1e-3,
                           backend=backend, **kwargs)
    digest = hashlib.sha256()
    if backend == "cooperative":
        trainer.transport_factory = lambda: PayloadTap(
            trainer.grid.world_size, digest)
    try:
        with counting():
            losses = [trainer.train_batch(x, y).loss
                      for x, y in make_batches(2)]
            snap = counters.snapshot()
    finally:
        trainer.close()
    tp = {k: v for k, v in snap.items() if k.startswith("tp.")}
    return (losses, tp,
            digest.hexdigest() if backend == "cooperative" else None)


PINS = {
    "2x1x2_fp32": (
        [2.937518000602722, 2.945221781730652],
        {"tp.allgather": 16, "tp.allgather_bytes": 64512,
         "tp.reduce_scatter": 16, "tp.reduce_scatter_bytes": 51456},
        "ad28fa16387af95aca859d868495107f282b09f6dab9af7d1fcead739a33c913"),
    "2x1x3_mixed": (
        [2.937518000602722, 2.945221781730652],
        {"tp.allgather": 24, "tp.allgather_bytes": 154624,
         "tp.reduce_scatter": 24, "tp.reduce_scatter_bytes": 77312},
        "7a090d14fc135b4ccfb8219046a3c226f426550a06c44d66d84d034f2403dee3"),
    "2x1x2_fp32_1f1b": (
        [2.937518000602722, 2.945221781730652],
        {"tp.allgather": 16, "tp.allgather_bytes": 64512,
         "tp.reduce_scatter": 16, "tp.reduce_scatter_bytes": 51456},
        "ed40a5a6224b78c8ce819b3f0ff81b55a56815c6fb20d19cfba2f9fd71e5f161"),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_protocol_pinned(name):
    assert run_pinned(name) == PINS[name]


def test_process_backend_protocol_pinned():
    losses, tp, _ = run_pinned("2x1x2_fp32", backend="process")
    assert (losses, tp) == PINS["2x1x2_fp32"][:2]


@pytest.mark.parametrize("name", ["2x1x2_fp32", "2x1x3_mixed"])
def test_payloads_do_not_depend_on_how_passes_group(name, monkeypatch,
                                                    tmp_path):
    """The cooperative first stage runs its fresh microbatches as one
    pass, a process worker one pass each; every TP message still carries
    the same bytes on both, because a ``tp_grad`` payload is its own
    microbatch's gradient, never the group's accumulated one — so no two
    of a channel's reduce-scatters are equal.  Each lead logs a sha256
    per message from inside ``TPComm`` (the process workers fork with
    the patch)."""
    init = TPComm.__init__

    def logged(path):
        def tapped(self, rank, grid, send, *args, **kwargs):
            def log_and_send(dst, tag, microbatch, data):
                digest = hashlib.sha256(
                    np.ascontiguousarray(data).tobytes()).hexdigest()
                with open(path, "a") as f:
                    f.write(f"{rank} {dst} {tag} {microbatch} "
                            f"{data.dtype.str}{data.shape} {digest}\n")
                send(dst, tag, microbatch, data)
            init(self, rank, grid, log_and_send, *args, **kwargs)
        return tapped

    payloads = {}
    for backend in ("cooperative", "process"):
        path = tmp_path / backend
        monkeypatch.setattr(TPComm, "__init__", logged(path))
        run_pinned(name, backend)
        per_message = {}
        for line in path.read_text().splitlines():
            src, dst, tag, mb, rest = line.split(" ", 4)
            per_message.setdefault((src, dst, tag, mb), []).append(rest)
        payloads[backend] = per_message
    assert payloads["cooperative"] == payloads["process"]
    grads = {}
    for (src, dst, tag, _mb), digests in payloads["process"].items():
        if tag == TAG_TP_GRAD:
            grads.setdefault((src, dst), []).extend(digests)
    assert grads
    for digests in grads.values():
        assert len(set(digests)) == len(digests)
