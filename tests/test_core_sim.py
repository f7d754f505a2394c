"""Tests for the discrete-event AxoNN batch simulation (core phases)."""

import pytest

from repro.cluster import Machine, OutOfMemoryError, summit
from repro.core import (
    AxoNNConfig,
    WEAK_SCALING_MODELS,
    estimate_batch_time,
    simulate_batch,
    stage_costs,
)

SPEC = WEAK_SCALING_MODELS["12B"]


def small_cfg(**kw):
    """A fast-to-simulate 12B configuration (small batch)."""
    base = dict(spec=SPEC, num_gpus=48, g_inter=6, g_data=8,
                microbatch_size=8, batch_size=768, memopt=True)
    base.update(kw)
    return AxoNNConfig(**base)


class TestStageCosts:
    def test_costs_cover_all_stages(self):
        costs = stage_costs(small_cfg())
        assert len(costs) == 6
        assert sum(c.n_block_layers for c in costs) == SPEC.n_layer

    def test_backward_is_twice_forward_for_blocks(self):
        cfg = small_cfg()
        c = stage_costs(cfg)[1]  # middle stage: no head
        assert c.bwd_flops == pytest.approx(2 * c.fwd_flops)
        assert c.recompute_flops == pytest.approx(c.fwd_flops)

    def test_last_stage_has_head_flops(self):
        costs = stage_costs(small_cfg())
        assert costs[-1].fwd_flops > costs[1].fwd_flops

    def test_params_sum_close_to_total(self):
        costs = stage_costs(small_cfg())
        assert sum(c.params for c in costs) == pytest.approx(
            SPEC.total_params, rel=0.01)

    def test_activation_bytes_match_spec(self):
        cfg = small_cfg()
        costs = stage_costs(cfg)
        assert costs[0].activation_bytes == \
            SPEC.activation_message_bytes(cfg.microbatch_size)

    def test_extras_need_a_calibration(self):
        """Without a machine the table prices compute and wire only."""
        cfg = small_cfg(g_intra=2, g_data=4)
        assert all(c.fwd_extra_s == c.bwd_extra_s == 0.0
                   for c in stage_costs(cfg))
        m = Machine(spec=summit(8))
        handling = m.cal.p2p_handling_overhead
        assert all(c.fwd_extra_s > handling and c.bwd_extra_s > handling
                   for c in stage_costs(cfg, m))
        assert all(c.fwd_extra_s == c.bwd_extra_s == handling
                   for c in stage_costs(small_cfg(), m))


class TestSimulateBatch:
    def test_phases_are_positive_and_sum(self):
        r = simulate_batch(small_cfg())
        assert r.pipeline_s > 0
        assert r.allreduce_s > 0
        assert r.optimizer_s > 0
        assert r.batch_time_s == pytest.approx(
            r.pipeline_s + r.dp_opt_combined_s)

    def test_deterministic(self):
        a = simulate_batch(small_cfg())
        b = simulate_batch(small_cfg())
        assert a.batch_time_s == b.batch_time_s

    def test_single_stage_pipeline(self):
        r = simulate_batch(small_cfg(g_inter=1, g_data=48, batch_size=960,
                                     microbatch_size=10, memopt=True))
        assert r.pipeline_s > 0

    def test_theorem53_pipeline_time_grows_with_g_inter(self):
        """Fig. 5 / Theorem 5.3: the inter-layer phase slows as G_inter
        grows (fixed total GPUs and batch)."""
        times = []
        for gi in (6, 12, 24):
            cfg = small_cfg(g_inter=gi, g_data=48 // gi, batch_size=768,
                            microbatch_size=1, include_optimizer=False,
                            memopt=False)
            times.append(simulate_batch(cfg).pipeline_s)
        assert times[0] < times[1] < times[2]

    def test_memopt_tradeoff_matches_fig6(self):
        """Fig. 6: moving from (G_inter=24, no memopt) to (G_inter=6,
        memopt) shrinks the pipeline phase, grows the all-reduce phase, and
        wins overall."""
        # The paper's Fig. 6 setting: batch 2048, microbatch 1.  (The
        # dp-phase cost is batch-independent, so the pipeline saving only
        # outweighs it at realistic batch sizes.)
        without = simulate_batch(small_cfg(g_inter=24, g_data=2,
                                           microbatch_size=1,
                                           batch_size=2048, memopt=False))
        with_ = simulate_batch(small_cfg(g_inter=6, g_data=8,
                                         microbatch_size=1,
                                         batch_size=2048, memopt=True))
        assert with_.pipeline_s < without.pipeline_s
        assert with_.allreduce_s > without.allreduce_s
        assert with_.batch_time_s < without.batch_time_s

    def test_overlap_beats_no_overlap_at_k4(self):
        base = small_cfg(coarsening_k=4, bucket_size=16_000_000)
        overlapped = simulate_batch(base)
        sequential = simulate_batch(base.with_(overlap=False))
        assert overlapped.dp_opt_combined_s < sequential.dp_opt_combined_s

    def test_k1_worse_than_no_overlap(self):
        """Fig. 8: at k=1 the per-call overhead makes overlap counter-
        productive."""
        base = small_cfg(bucket_size=16_000_000)
        k1 = simulate_batch(base.with_(coarsening_k=1))
        seq = simulate_batch(base.with_(overlap=False))
        assert k1.dp_opt_combined_s > seq.dp_opt_combined_s

    def test_large_k_degrades_again(self):
        """Fig. 8: beyond the optimum the algorithm gravitates toward
        sequential behaviour."""
        base = small_cfg(bucket_size=16_000_000)
        results = {k: simulate_batch(base.with_(coarsening_k=k))
                   .dp_opt_combined_s for k in (1, 4, 8, 16, 32, 128)}
        best = min(results, key=results.get)
        assert 2 <= best <= 32
        assert results[128] > results[best]

    def test_mpi_backend_beats_nccl_for_pipeline(self):
        """Section IV-A ablation: swapping AxoNN's p2p backend to blocking
        NCCL slows the pipeline phase."""
        mpi = simulate_batch(small_cfg(backend_p2p="mpi"))
        nccl = simulate_batch(small_cfg(backend_p2p="nccl"))
        assert mpi.pipeline_s < nccl.pipeline_s

    def test_memory_enforcement(self):
        cfg = small_cfg(g_inter=6, g_data=8, memopt=False)
        with pytest.raises(OutOfMemoryError):
            simulate_batch(cfg, enforce_memory=True)
        r = simulate_batch(cfg)  # without enforcement: reported, not raised
        assert not r.feasible

    def test_machine_too_small_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            simulate_batch(cfg, machine=Machine(spec=summit(1)))

    def test_metrics_derived(self):
        r = simulate_batch(small_cfg())
        assert 0 < r.pct_of_peak < 100
        assert r.training_days > 0
        row = r.as_row()
        assert row["model"] == "12B"
        assert row["feasible"] is True

    def test_trace_records_streams(self):
        m = Machine(spec=summit(8), trace=True)
        simulate_batch(small_cfg(batch_size=96, microbatch_size=4,
                                 coarsening_k=2), machine=m)
        cats = {s.category for s in m.tracer.spans}
        assert "compute" in cats
        assert "allreduce" in cats
        assert "optimizer" in cats

    def test_overlap_shows_in_trace(self):
        """Fig. 7: the all-reduce chunks and optimizer buckets interleave
        on separate streams."""
        from repro.obs import overlap_time
        m = Machine(spec=summit(8), trace=True)
        simulate_batch(small_cfg(batch_size=768, bucket_size=4_000_000,
                                 coarsening_k=4), machine=m)
        ar = m.tracer.by_category("allreduce")
        opt = m.tracer.by_category("optimizer")
        assert overlap_time(ar, opt) > 0

    def test_pipeline_limit_one_slows_pipeline(self):
        """With pipeline_limit=1 only one microbatch is ever in flight —
        the degenerate fully-serial pipeline."""
        fast = simulate_batch(small_cfg(batch_size=192, microbatch_size=8))
        slow = simulate_batch(small_cfg(batch_size=192, microbatch_size=8,
                                        pipeline_limit=1))
        assert slow.pipeline_s > 1.5 * fast.pipeline_s


class TestAnalyticEstimate:
    def test_tracks_des_within_tolerance(self):
        for cfg in [small_cfg(),
                    small_cfg(g_inter=12, g_data=4, batch_size=512,
                              microbatch_size=4),
                    small_cfg(memopt=False, g_inter=24, g_data=2,
                              microbatch_size=2, batch_size=512)]:
            des = simulate_batch(cfg).batch_time_s
            est = estimate_batch_time(cfg)
            assert est == pytest.approx(des, rel=0.35)

    def test_estimate_is_fast_path_consistent_ordering(self):
        """The analytic estimate must rank configurations like the DES."""
        a = small_cfg(g_inter=6, g_data=8, microbatch_size=1,
                      batch_size=512, include_optimizer=False, memopt=False)
        b = a.with_(g_inter=24, g_data=2)
        assert (estimate_batch_time(a) < estimate_batch_time(b)) == \
            (simulate_batch(a).batch_time_s < simulate_batch(b).batch_time_s)
