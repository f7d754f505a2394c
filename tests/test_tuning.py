"""Tests for the hyperparameter tuning (Table II search)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_baseline_batch
from repro.core import (AxoNNConfig, WEAK_SCALING_MODELS, check_memory,
                        estimate_batch_time)
from repro.tuning import divisors, grid_candidates, search_space, tune

SPEC = WEAK_SCALING_MODELS["12B"]


def candidates(framework, num_gpus=48, batch_size=16384, spec=SPEC):
    """The Table II search's candidates for ``framework``."""
    g_intras, fields = search_space(framework)
    return grid_candidates(spec, num_gpus, batch_size, g_intras, **fields)


def baseline(framework, **kw):
    return AxoNNConfig(spec=SPEC, num_gpus=48, framework=framework,
                       schedule="1f1b", **kw)


class TestDivisors:
    def test_basic(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(48) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]

    def test_invalid(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(n=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_divisors_divide(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n


class TestCandidates:
    def test_axonn_candidates_valid(self):
        cands = candidates("axonn")
        assert cands
        for c in cands:
            assert c.g_inter * c.g_data == 48
            assert c.g_inter <= SPEC.n_layer

    def test_axonn_candidates_exclude_oversized_pipelines(self):
        cands = candidates("axonn", 96)
        assert all(c.g_inter <= 48 for c in cands)

    def test_baseline_candidates_valid(self):
        cands = candidates("megatron")
        assert cands
        for c in cands:
            assert c.g_intra * c.g_inter * c.g_data == 48
            assert SPEC.hidden % c.g_intra == 0

    def test_baseline_candidates_span_g_intra(self):
        cands = candidates("deepspeed")
        assert {c.g_intra for c in cands} >= {1, 2, 3, 6}


class TestTuning:
    def test_axonn_tuned_config_matches_paper_shape_12b(self):
        """The tuner must land on the paper's Table II AxoNN row for the
        12 B model: G_inter=6, G_data=8, mbs=8."""
        result = tune(SPEC, 48, 16384, refine_top=0)
        cfg = result.config
        assert cfg.g_inter == 6
        assert cfg.g_data == 8
        assert cfg.microbatch_size == 8

    def test_tuned_config_is_feasible(self):
        result = tune(SPEC, 48, 16384, refine_top=0)
        _, fits = check_memory(result.config)
        assert fits

    def test_tuned_baseline_is_feasible(self):
        for fw in ("deepspeed", "megatron"):
            result = tune(SPEC, 48, 16384, fw, refine_top=0)
            _, fits = check_memory(result.config)
            assert fits, fw

    def test_axonn_prefers_more_data_parallelism_than_megatron(self):
        """Table II: AxoNN uses 4-8x Megatron-LM's data parallelism."""
        ax = tune(SPEC, 48, 16384, refine_top=0)
        mg = tune(SPEC, 48, 16384, "megatron", refine_top=0)
        assert ax.config.g_data >= 2 * mg.config.g_data

    def test_tuned_ordering_axonn_first(self):
        ax = tune(SPEC, 48, 16384, refine_top=0)
        ds = tune(SPEC, 48, 16384, "deepspeed", refine_top=0)
        mg = tune(SPEC, 48, 16384, "megatron", refine_top=0)
        assert ax.batch_time_s <= ds.batch_time_s
        assert ax.batch_time_s <= mg.batch_time_s

    def test_refinement_uses_des(self):
        fast = tune(SPEC, 48, 4096, refine_top=0)
        refined = tune(SPEC, 48, 4096, refine_top=2)
        # Refined score comes from the DES; both must pick sane configs.
        assert refined.config.g_inter in {c.g_inter for c in
                                          candidates("axonn", 48, 4096)}
        assert refined.batch_time_s > 0
        assert fast.n_candidates == refined.n_candidates

    def test_counts_reported(self):
        result = tune(SPEC, 48, 16384, refine_top=0)
        assert result.n_feasible <= result.n_candidates
        assert result.n_feasible > 0

    def test_as_row(self):
        row = tune(SPEC, 48, 16384, refine_top=0).as_row()
        assert row["framework"] == "axonn"
        # g_intra is a first-class grid axis; the 3D tuner sweeps only
        # the dense decomposition, so the row reports the identity axis.
        assert row["g_intra"] == 1

    def test_infeasible_model_raises(self):
        """A 100 B model cannot fit on 6 GPUs no matter the configuration."""
        spec = WEAK_SCALING_MODELS["100B"]
        with pytest.raises(ValueError, match="feasible|valid"):
            tune(spec, 6, 16384 // 8 * 6 // 6 * 8, refine_top=0)


class TestBaselineEstimate:
    def test_positive_and_deterministic(self):
        cfg = baseline("deepspeed", g_intra=3, g_inter=2, g_data=8,
                       microbatch_size=2, batch_size=16384)
        a = estimate_batch_time(cfg)
        b = estimate_batch_time(cfg)
        assert a == b > 0

    def test_estimate_tracks_simulation(self):
        cfg = baseline("deepspeed", g_intra=3, g_inter=2, g_data=8,
                       microbatch_size=2, batch_size=2048)
        est = estimate_batch_time(cfg)
        des = simulate_baseline_batch(cfg).batch_time_s
        assert est == pytest.approx(des, rel=0.35)

    def test_intra_layer_tax_visible(self):
        with_tp = baseline("megatron", g_intra=3, g_inter=2, g_data=8,
                           microbatch_size=2, batch_size=2048)
        without_tp = baseline("megatron", g_intra=1, g_inter=2, g_data=24,
                              microbatch_size=2, batch_size=2112)
        # Same pipeline depth; TP pays collectives + lower kernel eff, but
        # computes 3x less per GPU — compare per-GPU efficiency instead:
        # the tax shows as less-than-3x speedup of the slot time.
        t_tp = estimate_batch_time(with_tp)
        t_no = estimate_batch_time(without_tp)
        assert t_tp > t_no / 3
