"""Tests for model statistics, memory model, metrics and configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AxoNNConfig,
    GPT2_SMALL,
    MemoryModel,
    TransformerSpec,
    WEAK_SCALING_MODELS,
    achieved_flops,
    estimated_training_days,
    paper_table1_specs,
    percent_of_peak,
)

GB = 1024 ** 3
SPEC_12B = WEAK_SCALING_MODELS["12B"]


class TestTransformerSpec:
    def test_table1_param_counts(self):
        """Param-count formula must land on the paper's Table I numbers."""
        expected = {"12B": 12, "24B": 24, "50B": 50, "100B": 100}
        for name, target in expected.items():
            spec = WEAK_SCALING_MODELS[name]
            assert abs(spec.billions - target) / target < 0.05, name

    def test_table1_rows(self):
        rows = paper_table1_specs()
        assert [r["gpus"] for r in rows] == [48, 96, 192, 384]
        assert [r["layers"] for r in rows] == [48, 48, 96, 96]
        assert [r["hidden"] for r in rows] == [4512, 6336, 6528, 9360]
        assert [r["heads"] for r in rows] == [24, 36, 48, 60]

    def test_gpt2_small_is_about_110m(self):
        # ~110 M in the paper (tied embeddings); ours unties the LM head,
        # adding one V x h matrix.
        assert 0.09 < GPT2_SMALL.billions < 0.20

    def test_flops_per_batch_eq3_structure(self):
        """Eq. (3): flops = 96 b s l h^2 (1 + s/6h + V/16lh)."""
        spec = SPEC_12B
        b = 16
        manual = 96 * b * spec.seq_len * spec.n_layer * spec.hidden ** 2 * (
            1 + spec.seq_len / (6 * spec.hidden)
            + spec.vocab_size / (16 * spec.n_layer * spec.hidden))
        assert spec.flops_per_batch(b) == pytest.approx(manual)

    def test_flops_linear_in_batch(self):
        assert SPEC_12B.flops_per_batch(32) == pytest.approx(
            2 * SPEC_12B.flops_per_batch(16))

    def test_message_size_in_region_of_interest(self):
        """The paper says p2p messages are 1-50 MB; check for the tuned
        weak-scaling microbatch sizes."""
        for name, mbs in [("12B", 8), ("24B", 4), ("50B", 4), ("100B", 2)]:
            nbytes = WEAK_SCALING_MODELS[name].activation_message_bytes(mbs)
            assert 1 * 1024 ** 2 <= nbytes <= 50 * 1024 ** 2, name

    def test_eq3_includes_recompute_consistency(self):
        """Per-layer executed flops (fwd + bwd + recompute = 4x fwd) must
        equal the per-layer term of Eq. (3)."""
        spec = SPEC_12B
        b = 8
        per_layer_eq3 = 96 * b * spec.seq_len * spec.hidden ** 2 * (
            1 + spec.seq_len / (6 * spec.hidden))
        assert 4 * spec.layer_forward_flops(b) == pytest.approx(
            per_layer_eq3, rel=1e-6)

    def test_params_per_stage_decreases_with_g_inter(self):
        spec = SPEC_12B
        values = [spec.params_per_stage(g) for g in (1, 6, 12, 24, 48)]
        assert values == sorted(values, reverse=True)

    def test_params_per_stage_bounds(self):
        with pytest.raises(ValueError):
            SPEC_12B.params_per_stage(0)
        with pytest.raises(ValueError):
            SPEC_12B.params_per_stage(49)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TransformerSpec("bad", n_layer=2, hidden=10, n_head=3)
        with pytest.raises(ValueError):
            TransformerSpec("bad", n_layer=0, hidden=12, n_head=3)


def _baseline(framework, **kw):
    """A 48-GPU baseline configuration at batch 768."""
    return AxoNNConfig(spec=SPEC_12B, num_gpus=48, batch_size=768,
                       framework=framework, schedule="1f1b", **kw)


class TestMemoryModel:
    def test_20phi_baseline(self):
        mm = MemoryModel(SPEC_12B)
        assert mm.state_bytes_baseline(1000) == 20_000

    def test_memopt_4phi_16bsize(self):
        mm = MemoryModel(SPEC_12B)
        assert mm.state_bytes_memopt(10_000, 100) == 4 * 10_000 + 16 * 100

    def test_memopt_bucket_capped_by_phi(self):
        mm = MemoryModel(SPEC_12B)
        assert mm.state_bytes_memopt(100, 10_000) == 4 * 100 + 16 * 100

    def test_memopt_saves_about_5x_on_state(self):
        """Section V-B: 20 phi -> 4 phi + 16 bsize ~= 5x for bsize << phi."""
        mm = MemoryModel(SPEC_12B)
        phi = SPEC_12B.params_per_stage(6)
        ratio = mm.state_bytes_baseline(phi) / mm.state_bytes_memopt(
            phi, 16_000_000)
        assert 4.5 < ratio < 5.0

    def test_zero1_sharding(self):
        mm = MemoryModel(SPEC_12B)
        assert mm.state_bytes_zero1(1000, 4) == 4000 + 4000
        assert mm.state_bytes_zero1(1000, 1) == 20_000

    def test_paper_memory_anchor_g_inter_6_needs_40gb_without_memopt(self):
        """Section V-B: at G_inter=6 on the 12 B model, parameter+optimizer
        state alone is ~40 GB/GPU — 2.5x the V100's 16 GB."""
        mm = MemoryModel(SPEC_12B)
        phi = SPEC_12B.params_per_stage(6)
        state_gb = mm.state_bytes_baseline(phi) / GB
        assert 35 < state_gb < 45

    def test_paper_total_memory_anchor_520_to_130gb(self):
        """Section V-B: total memory falls ~4x (520 -> 130 GB) with the
        optimization (G_inter=24, G_data=2, mbs 1, bsize 16M)."""
        mm = MemoryModel(SPEC_12B)
        without = mm.cluster_total_bytes(24, 2, 1, memopt=False)
        with_ = mm.cluster_total_bytes(24, 2, 1, memopt=True,
                                       bucket_size=16_000_000)
        assert 450 * GB < without < 580 * GB
        assert 100 * GB < with_ < 170 * GB
        assert 3.0 < without / with_ < 5.0

    def test_memopt_makes_g_inter_6_feasible(self):
        """The memory optimization is exactly what lets AxoNN run the 12 B
        model at G_inter=6 (Table II) on 16 GB GPUs."""
        mm = MemoryModel(SPEC_12B)
        cfg = AxoNNConfig(spec=SPEC_12B, num_gpus=48, g_inter=6, g_data=8,
                          microbatch_size=8, batch_size=16384)
        without = mm.config_bytes(cfg)
        with_ = mm.config_bytes(cfg.with_(memopt=True,
                                          bucket_size=4_000_000))
        assert not mm.fits(without, 16 * GB)
        assert mm.fits(with_, 16 * GB)

    def test_activation_memory_uses_sqrt_rule_by_default(self):
        mm = MemoryModel(SPEC_12B)
        auto = mm.activation_bytes(6, 1)
        explicit = mm.activation_bytes(6, 1, ac=8)  # sqrt(48)≈6.9 -> 8 | 8
        assert auto == explicit

    def test_activation_memory_scales_with_microbatch(self):
        mm = MemoryModel(SPEC_12B)
        assert mm.activation_bytes(6, 8) == pytest.approx(
            8 * mm.activation_bytes(6, 1), rel=1e-6)

    def test_deepspeed_feasibility_matches_table2(self):
        """DeepSpeed's Table II 12 B config (G_intra 3, G_inter 2, G_data 8,
        mbs 2) must fit in 16 GB thanks to ZeRO-1."""
        mm = MemoryModel(SPEC_12B)
        bd = mm.config_bytes(_baseline("deepspeed", g_inter=2, g_intra=3,
                                       g_data=8, microbatch_size=2))
        assert mm.fits(bd, 16 * GB)

    def test_megatron_needs_larger_g_inter(self):
        """Megatron (no ZeRO) cannot fit the 12 B model at DeepSpeed's
        G_inter=2 with G_intra=3 — it needs deeper pipelines (Table II:
        G_inter=16)."""
        mm = MemoryModel(SPEC_12B)
        small = mm.config_bytes(_baseline("megatron", g_inter=2, g_intra=3,
                                          g_data=8, microbatch_size=2))
        table2 = mm.config_bytes(_baseline("megatron", g_inter=16,
                                           g_intra=3, g_data=1,
                                           microbatch_size=8))
        assert not mm.fits(small, 16 * GB)
        assert mm.fits(table2, 16 * GB)

    def test_breakdown_total(self):
        from repro.core import MemoryBreakdown
        bd = MemoryBreakdown(10, 20, 30)
        assert bd.total == 60
        assert bd.as_dict()["total"] == 60

    def test_invalid_args(self):
        mm = MemoryModel(SPEC_12B)
        with pytest.raises(ValueError):
            mm.state_bytes_memopt(100, 0)
        with pytest.raises(ValueError):
            mm.state_bytes_zero1(100, 0)
        with pytest.raises(ValueError):
            _baseline("megatron", g_inter=48, g_intra=0, g_data=1,
                      microbatch_size=1)

    @given(phi=st.integers(1_000, 10_000_000_000),
           bsize=st.integers(1, 100_000_000))
    @settings(max_examples=60, deadline=None)
    def test_memopt_never_exceeds_baseline(self, phi, bsize):
        """Property: the optimization never uses more state memory than the
        baseline (since 16*min(bsize, phi) <= 16 phi)."""
        mm = MemoryModel(SPEC_12B)
        assert mm.state_bytes_memopt(phi, bsize) \
            <= mm.state_bytes_baseline(phi)


class TestMetrics:
    def test_eq2_structure(self):
        """Eq. (2): 3e11 * t / (b*s), converted to days."""
        days = estimated_training_days(1.0, batch_size=16384, seq_len=512)
        expected = 3e11 * 1.0 / (16384 * 512) / 86400
        assert days == pytest.approx(expected)

    def test_training_days_linear_in_batch_time(self):
        a = estimated_training_days(100, 16384, 512)
        b = estimated_training_days(200, 16384, 512)
        assert b == pytest.approx(2 * a)

    def test_percent_of_peak_bounds(self):
        spec = SPEC_12B
        # Perfect execution at peak: time = flops / aggregate peak.
        t = spec.flops_per_batch(16384) / (48 * 125e12)
        assert percent_of_peak(spec, 16384, t, 48) == pytest.approx(100.0)

    def test_achieved_flops(self):
        spec = SPEC_12B
        f = spec.flops_per_batch(8)
        assert achieved_flops(spec, 8, 2.0) == pytest.approx(f / 2)

    def test_invalid_metrics_args(self):
        with pytest.raises(ValueError):
            estimated_training_days(0, 1, 1)
        with pytest.raises(ValueError):
            achieved_flops(SPEC_12B, 8, 0)
        with pytest.raises(ValueError):
            percent_of_peak(SPEC_12B, 8, 1.0, 0)


class TestAxoNNConfig:
    def _cfg(self, **kw):
        base = dict(spec=SPEC_12B, num_gpus=48, g_inter=6, g_data=8,
                    microbatch_size=8, batch_size=16384)
        base.update(kw)
        return AxoNNConfig(**base)

    def test_valid(self):
        cfg = self._cfg()
        assert cfg.microbatches_per_shard == 256
        assert cfg.total_microbatches == 2048
        assert cfg.effective_pipeline_limit == 6

    def test_grid_must_match_gpus(self):
        with pytest.raises(ValueError):
            self._cfg(g_inter=5)
        # A product that matches is not enough: every size must be >= 1.
        for bad in (dict(g_inter=-1, g_data=-2, num_gpus=2),
                    dict(g_inter=0, g_data=8, num_gpus=0),
                    dict(g_inter=6, g_data=0, num_gpus=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                self._cfg(**bad)

    def test_batch_divisibility(self):
        with pytest.raises(ValueError):
            self._cfg(batch_size=16383)

    def test_microbatch_divisibility(self):
        with pytest.raises(ValueError):
            self._cfg(microbatch_size=3)

    def test_too_many_stages(self):
        with pytest.raises(ValueError):
            self._cfg(g_inter=48, g_data=1, num_gpus=48,
                      spec=TransformerSpec("tiny", n_layer=4, hidden=64,
                                           n_head=4))

    def test_pipeline_limit_capped_by_microbatches(self):
        cfg = self._cfg(batch_size=48 * 8 // 8 * 8)  # tiny batch
        cfg2 = AxoNNConfig(spec=SPEC_12B, num_gpus=48, g_inter=24, g_data=2,
                           microbatch_size=8, batch_size=64)
        assert cfg2.effective_pipeline_limit <= cfg2.microbatches_per_shard

    def test_with_override(self):
        cfg = self._cfg().with_(memopt=True)
        assert cfg.memopt
        assert cfg.g_inter == 6
