"""Tests for the pre-run communication model checker: skeleton
extraction, exhaustive interleaving exploration, the seeded deadlock
mutant's counterexample, and op-for-op cross-validation of every static
skeleton against a TraceRecorder trace of the corresponding real run."""

import numpy as np
import pytest

from repro.analysis.model import (
    CommModel,
    ModelError,
    _SymbolicStage,
    axonn_model,
    builtin_models,
    check_model,
    column_model,
    compare_with_trace,
    deadlock_mutant_model,
    extract_skeleton,
    full_group_mutant_model,
    scheduled_model,
    serve_model,
)
from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.obs.protocol import TraceRecorder, assert_clean
from repro.runtime import POLL, RECV, AxoNNTrainer, inter_layer_step
from repro.runtime.grid import RankGrid
from repro.runtime.rankprog import TAG_BWD
from repro.sched import SCHEDULE_NAMES
from repro.serve.engine import PipelineServer, Request


class TestSkeletons:
    def test_axonn_skeleton_has_pipeline_traffic(self):
        sk = extract_skeleton(axonn_model(2, 1, 2))
        # 2 forwards down + 2 backwards up, recorded on both endpoints.
        kinds0 = [op.kind for op in sk.ops[0]]
        assert kinds0.count("send") == 2 and kinds0.count("recv") == 2
        assert sk.channels == [(0, 1, "p2p"), (1, 0, "p2p")]

    def test_degenerate_single_rank_never_communicates(self):
        sk = extract_skeleton(axonn_model(1, 1, 3))
        assert sk.ops[0] == [] and sk.channels == []

    def test_data_parallel_columns_are_separate_components(self):
        sk = extract_skeleton(axonn_model(2, 2, 2))
        # rank_of(i, j) = j*g_inter + i: pipelines {0,1} and {2,3} never
        # exchange p2p messages, so the checker explores them separately.
        assert sk.components() == [[0, 1], [2, 3]]

    def test_flushing_skeleton_uses_one_p2p_plane(self):
        """A compiled schedule is an ordinary rank program — Algorithm
        2's channels, and every wait a plain ``yield RECV`` (extraction
        raises ``ModelError`` on any other yield): the form both
        backends run."""
        sk = extract_skeleton(scheduled_model("1f1b", 2, 1, 2))
        planes = {op.plane for ops in sk.ops.values() for op in ops
                  if op.kind in ("send", "recv")}
        assert planes == {"p2p"}
        assert sk.channels == extract_skeleton(axonn_model(2, 1, 2)).channels

    def test_describe_names_the_config(self):
        assert axonn_model(2, 1, 2).describe() == \
            "axonn[g_inter=2,g_data=1,m=2,limit=2]"
        assert axonn_model(2, 1, 2, concurrent_peers=False).describe() == \
            "axonn[g_inter=2,g_data=1,m=2,limit=2,concurrent_peers=False]"

    @pytest.mark.parametrize("g_inter,g_data,m", [(2, 1, 4), (3, 2, 4)])
    def test_dense_skeleton_is_the_same_under_both_bindings(
            self, g_inter, g_data, m):
        """A dense rank sends the same sequence whether the first stage
        starts its fresh microbatches one pass each (process workers) or
        as one pass (cooperative), so one proof covers both backends."""
        def skeleton(concurrent_peers):
            sk = extract_skeleton(axonn_model(
                g_inter, g_data, m, concurrent_peers=concurrent_peers))
            return sk.ops, sk.channels
        assert skeleton(True) == skeleton(False)


class TestCheckerSweep:
    def test_all_builtin_configs_verify(self):
        """The acceptance sweep: message-driven AxoNN and every shipped
        IR schedule at every config with g_inter*g_data <= 8 and
        microbatches <= 4 (plus small serving pipelines) are
        deadlock-free with complete matching and consistent collective
        order, over EVERY interleaving."""
        models = builtin_models(max_world=8, max_microbatches=4)
        # 80 (grid, m) configs x (AxoNN + every schedule accepting them)
        # + 4D (AxoNN and every single-chunk schedule at g_intra 2 and 4,
        # and AxoNN's cooperative binding at every real pipeline, m 2..4)
        # + serve: each schedule is proved once, as compiled;
        # + Algorithm 1's column phase after the walk: 20 grids x (fp32,
        # mixed) and the 8 g_intra=2 and 3 g_intra=4 grids under mixed
        # precision.
        assert len(models) == 605
        for model in models:
            result = check_model(model)
            assert result.ok, (
                f"{model.describe()} failed: {result.violations}")
            assert result.deadlock_free
            assert result.matching_complete
            assert result.collectives_consistent

    @pytest.mark.parametrize("g_decode", [1, 2, 3])
    def test_disagg_handoff_protocol_deadlock_free(self, g_decode):
        """The KV-handoff protocol at the smoke config family: one
        prefill rank feeding 1..3 decode ranks, every interleaving."""
        result = check_model(serve_model(
            g_decode, n_requests=3, max_new_tokens=2, max_batch=2,
            g_prefill=1))
        assert result.ok, result.violations
        assert result.deadlock_free
        assert result.matching_complete

    def test_multi_rank_prefill_pool_is_out_of_scope(self):
        """With g_prefill >= 2 the scheduler has two inbound sources
        (KV pieces and decode tokens) and its pump reacts to arrival
        order, so the counts-quotient is unsound — the checker must
        refuse rather than mis-verify.  Runtime token-identity tests
        cover those splits instead."""
        with pytest.raises(ModelError, match="non-confluent"):
            check_model(serve_model(
                2, n_requests=3, max_new_tokens=2, max_batch=2,
                g_prefill=2))
            assert result.states >= 1
            assert result.counterexample is None

    def test_interleavings_actually_explored(self):
        # Two independent warm-up sends from rank 0 plus downstream
        # progress give strictly more reachable states than a single
        # linear execution would.
        result = check_model(axonn_model(8, 1, 4))
        assert result.states > 100

    def test_component_decomposition_bounds_the_state_space(self):
        # With column decomposition the 2x4 grid costs ~4x the 2x1
        # pipeline, not its 4th power.
        one = check_model(axonn_model(2, 1, 4)).states
        four = check_model(axonn_model(2, 4, 4)).states
        assert four <= 4 * one + 4


class TestDeadlockMutant:
    def test_mutant_is_caught_with_counterexample(self):
        result = check_model(deadlock_mutant_model())
        assert not result.ok
        assert not result.deadlock_free
        cx = result.counterexample
        assert cx is not None
        # Rank 0 starves waiting for the backward the mutant never sends.
        assert cx.stuck == [0]
        assert cx.wait_for == {0: [1]}
        assert "wait-for graph" in cx.message
        assert "rank 0 waits on rank 1" in cx.message

    def test_counterexample_trace_is_a_concrete_interleaving(self):
        cx = check_model(deadlock_mutant_model()).counterexample
        assert cx.trace, "the witness must include the op trace"
        kinds = [op.kind for op in cx.trace]
        assert set(kinds) <= {"send", "recv"}
        # The trace ends one backward short: 2 forwards down, both
        # received, one backward up, received — then rank 0 starves.
        sends = [(op.rank, op.peer, op.tag) for op in cx.trace
                 if op.kind == "send"]
        assert sends.count((1, 0, "backward")) == 1
        assert all(str(op) for op in cx.trace)  # renders for humans

    def test_extractor_reports_the_deadlock_too(self):
        # Every interleaving of the mutant deadlocks, including the
        # extractor's sweep order; it must diagnose, not hang.
        with pytest.raises(ModelError, match="wait-for graph"):
            extract_skeleton(deadlock_mutant_model())


def _tail(send, m, reverse=False, eager=False):
    """A last stage that drains what has arrived (``yield POLL``) and
    answers each forward with a backward: in reverse arrival order
    (``reverse``), or as soon as each one is taken (``eager``)."""
    done = 0
    while done < m:
        batch = [(yield RECV)]
        while True:
            if eager:
                send(0, TAG_BWD, batch[-1].microbatch, None)
            pkt = yield POLL
            if pkt is None:
                break
            batch.append(pkt)
        if not eager:
            for pkt in (batch[::-1] if reverse else batch):
                send(0, TAG_BWD, pkt.microbatch, None)
        done += len(batch)


def _drain_model(m, **tail):
    """Algorithm 2's first stage over a hand-written last stage."""
    grid = RankGrid(2, 1)

    def make(capture):
        head = inter_layer_step(
            0, grid, _SymbolicStage(),
            lambda dst, tag, mb, data: capture.send(0, dst, tag, mb, data),
            [(None, None)] * m, m, 2, concurrent_peers=True)
        return {0: head, 1: _tail(
            lambda dst, tag, mb, data: capture.send(1, dst, tag, mb, data),
            m, **tail)}

    return CommModel("drain", 2, make)


class TestPollChoicePoints:
    """``yield POLL`` answers any deliverable channel head or None, so the
    checker explores every way a rank's arrivals can be grouped."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_width_is_emergent_not_awaited(self, m):
        """A first stage that awaits a full group of ``pipeline_limit``
        gradients starves exactly when ``m % limit != 0``; Algorithm 2,
        which runs what has arrived, is proved at every ``m``."""
        mutant = check_model(full_group_mutant_model(2, m, 2))
        if m % 2:
            assert not mutant.deadlock_free
            assert mutant.counterexample.stuck == [0]
            assert mutant.counterexample.wait_for == {0: [1]}
        else:
            assert mutant.ok
        assert check_model(axonn_model(2, 1, m, pipeline_limit=2)).ok

    def test_drains_of_every_width_are_explored(self):
        """Answering a group's forwards in reverse order agrees with the
        one-at-a-time order only when no two arrive together: the checker
        reaches a two-wide drain and refuses the model."""
        assert check_model(_drain_model(2)).ok
        with pytest.raises(ModelError, match="non-confluent"):
            check_model(_drain_model(2, reverse=True))

    def test_sending_mid_drain_is_refused(self):
        """The drain reduction needs a drain to send nothing before its
        None; a program that does is refused, not mis-verified."""
        with pytest.raises(ModelError, match="sent while draining"):
            check_model(_drain_model(2, eager=True))


class Test4DTensorParallel:
    def test_tp_grids_verify(self):
        for g_inter, g_data, g_intra in ((2, 1, 2), (1, 2, 2), (2, 2, 2)):
            result = check_model(axonn_model(g_inter, g_data, 2,
                                             g_intra=g_intra))
            assert result.ok, (g_inter, g_data, g_intra, result.violations)
            assert result.collectives_consistent

    def test_grouped_lead_is_its_own_model(self):
        """A tensor-parallel lead that starts its fresh microbatches as
        one pass emits both weight all-gathers before both forward sends:
        a different skeleton, proved beside the one-pass-each binding."""
        def sends(concurrent_peers):
            model = axonn_model(2, 1, 2, g_intra=2,
                                concurrent_peers=concurrent_peers)
            assert check_model(model).ok
            return [(o.peer, o.tag, o.microbatch)
                    for o in extract_skeleton(model).ops[0]
                    if o.kind == "send"][:4]
        assert sends(True) == [(1, "tp_wgt", 0), (2, "forward", 0),
                               (1, "tp_wgt", 1), (2, "forward", 1)]
        assert sends(False) == [(1, "tp_wgt", 0), (1, "tp_wgt", 1),
                                (2, "forward", 0), (2, "forward", 1)]

    def test_followers_marked_as_sinks(self):
        from repro.runtime.grid import RankGrid
        model = axonn_model(2, 1, 2, g_intra=2)
        grid = RankGrid(2, 1, 2)
        followers = frozenset(r for r in range(grid.world_size)
                              if not grid.is_tp_lead(r))
        assert model.sink_ranks == followers
        # A dense grid has no sinks: the reduction must not touch it.
        assert axonn_model(2, 1, 2).sink_ranks == frozenset()

    def test_sink_reduction_shrinks_the_state_space(self):
        """Eagerly firing deliveries to TP followers is a *reduction*:
        same verdict, strictly fewer states than branching against the
        full action set."""
        from dataclasses import replace
        model = axonn_model(1, 2, 2, g_intra=2)
        reduced = check_model(model)
        full = check_model(replace(model, sink_ranks=frozenset()))
        assert reduced.ok and full.ok
        assert reduced.states < full.states

    def test_tp_skeleton_collectives_carry_group_keys(self):
        sk = extract_skeleton(axonn_model(2, 1, 2, g_intra=2))
        tp_ops = [o for rank in sk.ops for o in sk.ops[rank]
                  if o.kind == "collective" and o.tag.startswith("tp_")]
        assert tp_ops, "TP grids must record tp_* collectives in-stream"
        assert all(o.key is not None for o in tp_ops)

    def test_tampered_member_order_is_a_violation(self):
        """The invariant the checker proves: two members of one TP group
        recording the same collectives in different orders must trip the
        order check."""
        from repro.obs.protocol import check_collective_order
        trace = TraceRecorder()
        trace.record_collective(0, "tp_allgather", key=((0, 0), "fwd", 0))
        trace.record_collective(0, "tp_reduce_scatter",
                                key=((0, 0), "bwd", 0))
        trace.record_collective(1, "tp_reduce_scatter",
                                key=((0, 0), "bwd", 0))
        trace.record_collective(1, "tp_allgather", key=((0, 0), "fwd", 0))
        violations = check_collective_order(trace, [[0, 1]], tags=("tp_",))
        assert violations


class TestColumnPhase:
    """Algorithm 1's end of the batch — the real ColumnStep program —
    checked as the phase after the walk."""

    @pytest.mark.parametrize("precision", ["fp32", "mixed"])
    def test_the_walk_is_followed_by_the_column_phase(self, precision):
        walk = check_model(axonn_model(2, 2, 2))
        both = check_model(axonn_model(2, 2, 2, param_slots=2,
                                       precision=precision))
        assert walk.ok and both.ok
        assert both.states > walk.states
        assert "precision=" + precision in both.model

    def test_mixed_precision_carries_the_verdict_along_each_pipeline(self):
        grid = RankGrid(3, 2)
        channels = set(extract_skeleton(
            column_model(grid, 2, "mixed")).channels)
        chain = {(a, b, "dp") for j in range(2)
                 for a, b in zip(grid.pipeline_ranks(j),
                                 grid.pipeline_ranks(j)[1:])}
        assert chain <= channels
        assert {(b, a, p) for a, b, p in chain} <= channels
        # fp32 needs no verdict: only the columns talk
        fp32 = set(extract_skeleton(column_model(grid, 2, "fp32")).channels)
        assert not chain & fp32
        assert all(grid.coord_of(a)[0] == grid.coord_of(b)[0]
                   for a, b, _plane in fp32)

    def test_a_stuck_phase_after_the_walk_is_caught(self):
        def waits(rank, send):
            yield RECV

        stuck = CommModel("stuck", 2, lambda capture: {
            0: waits(0, None), 1: waits(1, None)})
        model = axonn_model(2, 1, 2)
        model.then = stuck
        result = check_model(model)
        assert not result.deadlock_free
        assert result.counterexample.stuck == [0, 1]


class TestCrossValidation:
    """The static skeletons must agree op-for-op with TraceRecorder
    traces of actual runs — the extractor drives the production
    generators, so any divergence means the model lies."""

    def _cfg(self, n_layer=2):
        return GPTConfig(vocab_size=32, seq_len=8, n_layer=n_layer,
                         n_head=2, hidden=16)

    def _batch(self, cfg, batch_size=8):
        corpus = SyntheticCorpus(cfg.vocab_size, 2_000, seed=0)
        return LMBatches(corpus, batch_size=batch_size,
                         seq_len=cfg.seq_len).batch(0)

    @staticmethod
    def _param_slots(trainer):
        grid = trainer.grid
        return [len(trainer.stages[grid.rank_of(i, 0)].parameters())
                for i in range(grid.g_inter)]

    def test_axonn_skeleton_matches_runtime_trace(self):
        rec = TraceRecorder()
        cfg = self._cfg()
        trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2,
                               microbatch_size=2, recorder=rec)
        trainer.train_batch(*self._batch(cfg))
        model = axonn_model(2, 2, microbatches=2,
                            param_slots=self._param_slots(trainer))
        assert compare_with_trace(extract_skeleton(model), rec) == []

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_flushing_skeleton_matches_runtime_trace(self, schedule):
        """Every compiled (flushing) schedule, op for op: the skeleton
        the checker proves is the program the trainer runs."""
        rec = TraceRecorder()
        cfg = self._cfg(n_layer=4)  # interleaved: 2 chunks x 2 ranks
        trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=2,
                               schedule=schedule, recorder=rec)
        trainer.train_batch(*self._batch(cfg))
        columns = [trainer.grid.data_parallel_ranks(i)
                   for i in range(trainer.grid.g_inter)]
        assert_clean(rec, groups=columns)
        model = scheduled_model(schedule, 2, 2, microbatches=2,
                                param_slots=self._param_slots(trainer))
        assert compare_with_trace(extract_skeleton(model), rec) == []

    def test_serve_skeleton_matches_runtime_trace(self):
        rec = TraceRecorder()
        cfg = self._cfg(n_layer=3)
        server = PipelineServer(cfg, g_inter=3, max_batch=2, recorder=rec)
        requests = [Request(rid, np.zeros(1, dtype=np.int64),
                            max_new_tokens=2, greedy=True, seed=rid)
                    for rid in range(3)]
        outputs = server.serve(requests)
        assert set(outputs) == {0, 1, 2}
        model = serve_model(3, n_requests=3, max_new_tokens=2,
                            max_batch=2)
        assert compare_with_trace(extract_skeleton(model), rec) == []

    def test_disagg_skeleton_matches_runtime_trace(self):
        """The KV-handoff wire protocol, op-for-op: the symbolic
        disaggregated model predicts exactly the sends/recvs a real
        PipelineServer(g_prefill=1) run records."""
        rec = TraceRecorder()
        cfg = self._cfg(n_layer=3)
        server = PipelineServer(cfg, g_inter=2, g_prefill=1, max_batch=2,
                                recorder=rec)
        requests = [Request(rid, np.zeros(1, dtype=np.int64),
                            max_new_tokens=2, greedy=True, seed=rid)
                    for rid in range(3)]
        outputs = server.serve(requests)
        assert set(outputs) == {0, 1, 2}
        model = serve_model(2, n_requests=3, max_new_tokens=2, max_batch=2,
                            g_prefill=1)
        assert compare_with_trace(extract_skeleton(model), rec) == []
