"""Tests for the DES extensions: compute jitter, full-grid simulation,
baseline backend swap, and the extra ablation experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_baseline_batch
from repro.core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch
from repro.core.phases import _standard_normal, jitter_factor
from repro.experiments import full_grid_validation, scheduling_jitter_ablation
from repro.sched import SCHEDULE_NAMES, build_schedule
from repro.sched.des import simulate_schedule
from repro.sched.search import search_schedules

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


#: the deviate memo's constant bound, as its docstring states
MEMO_SIZE = 4096

#: every ``jitter_factor`` argument, over the ranges the DES draws from
JITTER_KEYS = dict(sigma=st.floats(0.0, 1.0),
                   seed=st.integers(0, 2 ** 32 - 1),
                   stage=st.integers(0, 63), mb=st.integers(0, 1023),
                   kind=st.integers(0, 1))


def _assert_fresh_draw(sigma, seed, stage, mb, kind):
    """A memoised factor is the float a fresh generator gives, on a cold
    key and again on the now-cached one."""
    expect = float(np.exp(sigma * np.random.default_rng(
        (seed, stage, mb, kind)).standard_normal()))
    assert jitter_factor(sigma, seed, stage, mb, kind) == expect
    assert jitter_factor(sigma, seed, stage, mb, kind) == expect


@pytest.fixture
def generators_built(monkeypatch):
    """The seed of every ``np.random.default_rng`` built, from a cold
    deviate memo on."""
    seeds = []
    real = np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return real(seed)

    _standard_normal.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


class TestJitterMemo:
    @settings(max_examples=200, deadline=None)
    @given(**JITTER_KEYS)
    def test_equals_a_fresh_generator(self, sigma, seed, stage, mb, kind):
        _assert_fresh_draw(sigma, seed, stage, mb, kind)

    def test_bounded_and_still_exact_past_the_bound(self):
        _standard_normal.cache_clear()
        for seed in range(MEMO_SIZE + 100):
            _assert_fresh_draw(0.1, seed, 0, 0, 0)
        info = _standard_normal.cache_info()
        assert (info.maxsize, info.currsize) == (MEMO_SIZE, MEMO_SIZE)
        assert f"at most {MEMO_SIZE} deviates" in _standard_normal.__doc__
        # the first keys are evicted by now, the last ones resident
        for seed in (0, 99, MEMO_SIZE + 99):
            _assert_fresh_draw(0.3, seed, 0, 0, 0)

        @settings(max_examples=100, deadline=None)
        @given(**JITTER_KEYS)
        def check(sigma, seed, stage, mb, kind):
            _assert_fresh_draw(sigma, seed, stage, mb, kind)

        check()
        assert _standard_normal.cache_info().currsize == MEMO_SIZE

    def test_des_suite_walks_draw_each_key_once(self, generators_built):
        """The five schedules at 4x48 under one seed: 768 distinct keys
        (interleaved's 8 virtual stages x 48 microbatches x fwd/bwd,
        which cover the other four), each drawn once; a second pass
        draws nothing."""
        schedules = [build_schedule(name, 4, 48) for name in SCHEDULE_NAMES]

        def walk():
            for schedule in schedules:
                simulate_schedule(schedule, sigma=0.05, seed=7)

        walk()
        assert len(generators_built) == len(set(generators_built)) == 768
        generators_built.clear()
        walk()
        assert generators_built == []

    def test_sigma_sweep_draws_each_key_once(self, generators_built):
        """Every sigma of the sweep and both walks share one draw per
        (stage, microbatch, fwd/bwd) key: 6 stages x 12 microbatches x 2."""
        scheduling_jitter_ablation()
        assert len(generators_built) == 6 * 12 * 2
        assert len(set(generators_built)) == len(generators_built)


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

    @pytest.mark.parametrize("bad", [-0.2, math.nan, math.inf])
    def test_config_rejects_bad_jitter(self, bad):
        with pytest.raises(ValueError, match="compute_jitter"):
            cfg(compute_jitter=bad)

    @pytest.mark.parametrize("bad", [-0.2, math.nan, math.inf])
    def test_baseline_config_rejects_bad_jitter(self, bad):
        with pytest.raises(ValueError, match="compute_jitter"):
            AxoNNConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                        g_data=8, microbatch_size=8, batch_size=384,
                        framework="megatron", schedule="1f1b",
                        compute_jitter=bad)

    @pytest.mark.parametrize("bad", [-0.2, math.nan, math.inf])
    def test_simulate_schedule_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            simulate_schedule(build_schedule("1f1b", 2, 4), sigma=bad)

    @pytest.mark.parametrize("bad", [-0.2, math.nan, math.inf])
    def test_search_schedules_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            search_schedules(2, 4, n_perturbations=0, sigma=bad)

    def test_baseline_jitter(self):
        base = AxoNNConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                           g_data=8, microbatch_size=8, batch_size=384,
                           framework="megatron", schedule="1f1b")
        clean = simulate_baseline_batch(base)
        noisy = simulate_baseline_batch(base.with_(compute_jitter=0.3))
        assert noisy.pipeline_s != clean.pipeline_s

    def test_baseline_backend_validated(self):
        with pytest.raises(ValueError, match="backend"):
            AxoNNConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                        g_data=8, microbatch_size=8, batch_size=384,
                        framework="megatron", schedule="1f1b",
                        backend_p2p="gloo")

    def test_baseline_mpi_backend_faster_than_nccl(self):
        base = AxoNNConfig(spec=SPEC, num_gpus=48, g_intra=1, g_inter=6,
                           g_data=8, microbatch_size=8, batch_size=384,
                           framework="megatron", schedule="1f1b")
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
