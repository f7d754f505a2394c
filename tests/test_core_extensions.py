"""Tests for the DES extensions: compute jitter, full-grid simulation,
baseline backend swap, and the extra ablation experiments."""

import pytest

from repro.baselines import ThreeDConfig, simulate_baseline_batch
from repro.core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch
from repro.core.phases import jitter_factor
from repro.experiments import full_grid_validation, scheduling_jitter_ablation

SPEC = WEAK_SCALING_MODELS["12B"]


def cfg(**kw):
    base = dict(spec=SPEC, num_gpus=48, g_inter=6, g_data=8,
                microbatch_size=8, batch_size=384, memopt=True)
    base.update(kw)
    return AxoNNConfig(**base)


class TestJitterFactor:
    def test_zero_sigma_is_identity(self):
        assert jitter_factor(0.0, 0, 1, 2, 0) == 1.0

    def test_deterministic_per_key(self):
        a = jitter_factor(0.2, 7, 1, 2, 0)
        b = jitter_factor(0.2, 7, 1, 2, 0)
        assert a == b

    def test_different_keys_differ(self):
        a = jitter_factor(0.2, 7, 1, 2, 0)
        b = jitter_factor(0.2, 7, 1, 3, 0)
        assert a != b

    def test_positive(self):
        for mb in range(20):
            assert jitter_factor(0.5, 0, 0, mb, 1) > 0


class TestJitteredSimulation:
    def test_jitter_changes_pipeline_time(self):
        clean = simulate_batch(cfg())
        noisy = simulate_batch(cfg(compute_jitter=0.3))
        assert noisy.pipeline_s != clean.pipeline_s

    def test_jitter_deterministic_per_seed(self):
        a = simulate_batch(cfg(compute_jitter=0.3, jitter_seed=1))
        b = simulate_batch(cfg(compute_jitter=0.3, jitter_seed=1))
        c = simulate_batch(cfg(compute_jitter=0.3, jitter_seed=2))
        assert a.pipeline_s == b.pipeline_s
        assert a.pipeline_s != c.pipeline_s

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            cfg(compute_jitter=-0.1)

    def test_baseline_jitter(self):
        base = ThreeDConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                            g_data=8, microbatch_size=8, batch_size=384,
                            framework="megatron")
        clean = simulate_baseline_batch(base)
        noisy = simulate_baseline_batch(base.with_(compute_jitter=0.3))
        assert noisy.pipeline_s != clean.pipeline_s

    def test_baseline_backend_validated(self):
        with pytest.raises(ValueError, match="backend"):
            ThreeDConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                         g_data=8, microbatch_size=8, batch_size=384,
                         framework="megatron", backend_p2p="gloo")

    def test_baseline_mpi_backend_faster_than_nccl(self):
        base = ThreeDConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                            g_data=8, microbatch_size=8, batch_size=384,
                            framework="megatron")
        nccl = simulate_baseline_batch(base)
        mpi = simulate_baseline_batch(base.with_(backend_p2p="mpi"))
        assert mpi.pipeline_s < nccl.pipeline_s


class TestFullGrid:
    def test_symmetric_grid_matches_one_row(self):
        """Rows on disjoint nodes: the full-grid simulation must agree with
        the single-row fast path exactly."""
        c = cfg(g_inter=6, g_data=8)
        one = simulate_batch(c)
        full = simulate_batch(c, full_grid=True)
        assert full.pipeline_s == pytest.approx(one.pipeline_s, rel=1e-9)

    def test_straddling_grid_within_tolerance(self):
        """Rows straddling node boundaries share NICs; the gap must stay
        small (the symmetry assumption is sound)."""
        c = cfg(g_inter=8, g_data=6)
        one = simulate_batch(c)
        full = simulate_batch(c, full_grid=True)
        assert full.pipeline_s == pytest.approx(one.pipeline_s, rel=0.05)
        assert full.pipeline_s >= one.pipeline_s  # contention only adds

    def test_validation_experiment(self):
        rows = full_grid_validation(batch_size=384)
        assert all(r["relative_gap"] < 0.05 for r in rows)


class TestSchedulingAblation:
    def test_rows_and_sanity(self):
        rows = scheduling_jitter_ablation(sigmas=(0.0, 0.2),
                                          batch_size=384)
        assert len(rows) == 2
        for r in rows:
            # Same backend, same jitter: the two schedulers stay within a
            # modest band of one another (the honest finding).
            assert 0.85 < r["ratio"] < 1.2

    def test_same_order_at_uniform_cost(self):
        """With no jitter static 1F1B and Algorithm 2 start every pass in
        the same order, and on the same non-blocking MPI backend neither
        waits for a send: the two phases take the same time to the bit."""
        assert scheduling_jitter_ablation(sigmas=(0.0,))[0]["ratio"] == 1.0
