"""Integration tests: every paper figure/table experiment must produce its
rows and satisfy the paper's qualitative claims (scaled-down parameters
where the full experiment is benchmark-sized)."""

import numpy as np
import pytest

import repro.experiments as ex


def assert_all_claims(claims: dict):
    failing = [k for k, v in claims.items() if not v]
    assert not failing, f"claims violated: {failing}"


class TestFig3:
    SIZES = [2 ** e for e in range(10, 27, 4)]

    def test_rows_structure(self):
        rows = ex.fig3_rows(sizes=self.SIZES)
        assert len(rows) == 4 * len(self.SIZES)
        assert {r["backend"] for r in rows} == {"mpi", "nccl"}
        assert {r["scope"] for r in rows} == {"intra-node", "inter-node"}

    def test_claims(self):
        assert_all_claims(ex.fig3_claims(ex.fig3_rows(sizes=self.SIZES)))


class TestFig4:
    SIZES = [2 ** e for e in range(16, 29, 4)]

    def test_rows_structure(self):
        rows = ex.fig4_rows(sizes=self.SIZES)
        assert {r["ranks"] for r in rows} == {6, 12}

    def test_claims(self):
        assert_all_claims(ex.fig4_claims(ex.fig4_rows(sizes=self.SIZES)))


class TestFig5:
    def test_rows_and_claims(self):
        rows = ex.fig5_rows(batch_size=512)
        assert [r["g_inter"] for r in rows] == [6, 12, 24, 48]
        assert all(r["g_inter"] * r["g_data"] == 48 for r in rows)
        assert_all_claims(ex.fig5_claims(rows))


class TestFig6:
    def test_rows_and_claims(self):
        rows = ex.fig6_rows()
        assert {r["variant"] for r in rows} == \
            {"without-memopt", "with-memopt"}
        assert_all_claims(ex.fig6_claims(rows))

    def test_memory_summary_matches_paper(self):
        s = ex.memory_savings_summary()
        assert 4.0 < s["state_saving_ratio"] < 5.0
        assert 440 < s["cluster_total_without_gb"] < 580
        assert 100 < s["cluster_total_with_gb"] < 170


class TestFig7:
    def test_profile_and_claims(self):
        profile = ex.fig7_profile(batch_size=96)
        assert_all_claims(ex.fig7_claims(profile))

    def test_ascii_timeline_renders_both_streams(self):
        profile = ex.fig7_profile(batch_size=96)
        assert "aux" in profile["ascii"] or "a" in profile["ascii"]
        assert profile["n_optimizer_buckets"] > \
            profile["n_allreduce_chunks"] > 1


class TestFig8:
    def test_rows_and_claims(self):
        rows = ex.fig8_rows()
        assert rows[0]["label"] == "no-overlap"
        assert_all_claims(ex.fig8_claims(rows))


class TestFig9:
    def test_12b_claims(self):
        rows = ex.weak_scaling_rows(models=("12B",))
        assert len(rows) == 3
        assert_all_claims(ex.fig9_claims(rows))

    def test_rows_have_metrics(self):
        rows = ex.weak_scaling_rows(models=("12B",))
        for r in rows:
            assert r["training_days"] > 0
            assert 0 < r["pct_peak"] < 100


class TestFig10:
    def test_curves_and_claims(self):
        curves = ex.fig10_curves(n_batches=8)
        assert len(curves["serial"]) == len(curves["axonn"]) == 8
        assert_all_claims(ex.fig10_claims(curves))

    def test_curves_actually_identical_within_tolerance(self):
        curves = ex.fig10_curves(n_batches=6)
        np.testing.assert_allclose(curves["axonn"], curves["serial"],
                                   rtol=5e-4)


class TestFig11:
    def test_claims_small(self):
        rows = ex.strong_scaling_rows(gpu_counts=(48, 96))
        assert_all_claims(ex.fig11_claims(rows))

    def test_batch_scales_with_gpus(self):
        rows = ex.strong_scaling_rows(gpu_counts=(48, 96),
                                      frameworks=("axonn",))
        assert rows[0]["batch_size"] == 4096
        assert rows[1]["batch_size"] == 8192


class TestTables:
    def test_table1(self):
        rows = ex.table1_rows()
        assert len(rows) == 4
        assert_all_claims(ex.table1_claims(rows))

    def test_table2_12b(self):
        rows = ex.table2_rows(models=("12B",))
        assert len(rows) == 3
        assert_all_claims(ex.table2_claims(rows))

    def test_table2_carries_paper_reference(self):
        rows = ex.table2_rows(models=("12B",))
        ax = next(r for r in rows if r["framework"] == "axonn")
        assert ax["paper_g_inter"] == 6
        assert ax["paper_g_data"] == 8

    def test_paper_table2_complete(self):
        assert len(ex.PAPER_TABLE2) == 12
        models = {r.model for r in ex.PAPER_TABLE2}
        assert models == {"12B", "24B", "50B", "100B"}


class TestAblations:
    def test_backend_ablation_mpi_wins(self):
        rows = ex.backend_ablation(batch_size=384)
        assert_all_claims(ex.backend_claims(rows))

    def test_placement_ablation_tradeoff(self):
        rows = ex.placement_ablation(batch_size=384)
        by = {r["placement"]: r for r in rows}
        # pipeline-contiguous keeps p2p on NVLink -> faster pipeline phase
        assert by["pipeline-contiguous"]["pipeline_s"] <= \
            by["data-contiguous"]["pipeline_s"] * 1.05

    def test_pipeline_limit_monotone_improvement(self):
        rows = ex.pipeline_limit_ablation(limits=(1, 2, 6), batch_size=384)
        times = [r["pipeline_s"] for r in rows]
        assert times[0] > times[1] > times[2] * 0.99
        assert_all_claims(ex.pipeline_limit_claims(rows))

    def test_schedule_ablation(self):
        rows = ex.schedule_ablation(batch_size=384)
        by = {r["schedule"]: r for r in rows}
        assert by["gpipe"]["activation_bytes"] >= \
            by["1f1b"]["activation_bytes"]

    def test_bucket_size_ablation(self):
        rows = ex.bucket_size_ablation(batch_size=384)
        assert [r["bucket_size"] for r in rows] == \
            [1_000_000, 4_000_000, 16_000_000, 64_000_000]
        # Device memory of the optimizer scales with bsize.
        device = [r["optimizer_device_bytes"] for r in rows]
        assert device == sorted(device)

    def test_jitter_claims(self):
        rows = ex.scheduling_jitter_ablation(sigmas=(0.0, 0.3),
                                             batch_size=384)
        assert_all_claims(ex.jitter_claims(rows))

    def test_full_grid_claims(self):
        assert_all_claims(ex.full_grid_claims(
            ex.full_grid_validation(batch_size=384)))

    def test_claims_catch_a_violation(self):
        assert not ex.jitter_claims([{"ratio": 1.3}])[
            "static_vs_message_driven_within_0.8_1.25"]
        assert not ex.pipeline_limit_claims(
            [{"pipeline_limit": 1, "pipeline_s": 1.0},
             {"pipeline_limit": 2, "pipeline_s": 2.0}])["limit_1_slowest"]


class TestPipelineDiagram:
    def test_occupancy_structure(self):
        occ = ex.pipeline_occupancy(g_inter=4, microbatches=8)
        assert len(occ["stages"]) == 4
        assert occ["total_s"] > 0
        for st in occ["stages"]:
            assert 0.0 <= st["idle_fraction"] < 1.0

    @pytest.mark.parametrize("microbatches", [4, 8])
    def test_fig1_claims(self, microbatches):
        occ = ex.pipeline_occupancy(g_inter=4, microbatches=microbatches)
        assert_all_claims(ex.fig1_claims(occ))

    def test_bubble_shrinks_with_more_microbatches(self):
        """Fig. 1's bubble: more microbatches amortize the warm-up/drain."""
        few = ex.pipeline_occupancy(g_inter=4, microbatches=4)
        many = ex.pipeline_occupancy(g_inter=4, microbatches=24)
        idle_few = max(s["idle_fraction"] for s in few["stages"])
        idle_many = max(s["idle_fraction"] for s in many["stages"])
        assert idle_many < idle_few

    def test_render_contains_all_stages(self):
        occ = ex.pipeline_occupancy(g_inter=3, microbatches=6)
        text = ex.render_occupancy(occ)
        for i in range(3):
            assert f"GPU{i}" in text
        assert "f" in text and "b" in text

    def test_first_stage_forward_heavy_warmup(self):
        """The warm-up is all forwards on stage 0 (Algorithm 2 lines 3-9)."""
        occ = ex.pipeline_occupancy(g_inter=4, microbatches=8)
        first = occ["stages"][0]["spans"]
        first.sort(key=lambda s: s.start)
        warmup = [s.name for s in first[:4]]
        assert all(n.startswith("fwd") for n in warmup)


class TestServingExperiment:
    def test_full_report_claims_hold(self):
        """The serving study at paper settings: saturation near the V100
        roofline, tail-latency divergence, Little's law, failover."""
        report = ex.serving_report()
        assert all(report["claims"].values()), report["claims"]
        assert len(report["rows"]) == 6
        assert report["failover"]["lost"] == 0

    def test_report_is_json_serializable(self):
        import json
        report = ex.serving_report(fast=True)
        text = json.dumps(report, default=float)
        assert "littles_law_rel_err" in text

    def test_rows_deterministic_across_calls(self):
        a = ex.serving_rows(fast=True, loads=[0.4, 1.1])
        b = ex.serving_rows(fast=True, loads=[0.4, 1.1])
        assert a == b

    def test_model_is_v100_derived(self):
        model = ex.serving_model()
        # decode is HBM-bound on a 16 GB V100: per-token step time is
        # dominated by streaming the stage weights, far above the launch
        # overhead, and the KV budget fits the card
        assert model.decode_s_per_item > model.stage_alpha_s
        from repro.nn import kv_cache_bytes
        from repro.experiments.serving import SERVED_MODEL_CFG
        per_req = kv_cache_bytes(SERVED_MODEL_CFG) / model.g_inter
        assert per_req * model.effective_max_active < 16e9


class Test4DSweep:
    def test_sweep_enumerates_tensor_parallel_decompositions(self):
        rows = ex.sweep_4d(cluster_sizes=(16,))
        assert rows
        # Every row is a complete decomposition of the cluster size.
        for row in rows:
            assert row["g_inter"] * row["g_data"] * row["g_intra"] == 16
        # The tensor axis is actually explored, not just g_intra=1.
        assert any(row["g_intra"] > 1 for row in rows)

    def test_best_prefers_feasible_decompositions(self):
        rows = ex.sweep_4d(cluster_sizes=(16, 32))
        best = ex.best_4d_decompositions(rows)
        assert [row["gpus"] for row in best] == [16, 32]
        for row in best:
            feasible = [r for r in rows if r["gpus"] == row["gpus"]
                        and r["feasible"]]
            if feasible:
                assert row["feasible"]
                assert row["batch_time_s"] == min(r["batch_time_s"]
                                                  for r in feasible)

    def test_cli_entry_point_prints_table(self, capsys):
        from repro.experiments.scaling import main
        assert main(["--4d", "--sizes", "8"]) == 0
        out = capsys.readouterr().out
        assert "g_intra" in out
