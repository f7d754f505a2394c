"""Tests for emergent activation-memory tracking in the DES pipeline —
the dynamic cross-validation of the paper's Eq. (1)."""

import pytest

from repro.cluster import GridPlacement, Machine, OutOfMemoryError, summit
from repro.core import AxoNNConfig, MemoryModel, WEAK_SCALING_MODELS
from repro.core.phases import run_pipeline_phase
from repro.partition import optimal_checkpoint_interval

SPEC = WEAK_SCALING_MODELS["12B"]


def run_tracked(cfg, machine=None):
    machine = machine or Machine(spec=summit(max(1, cfg.num_gpus // 6)))
    placement = GridPlacement(machine.spec, cfg.g_inter, cfg.g_data,
                              policy=cfg.placement_policy)
    machine.env.process(run_pipeline_phase(machine, cfg, placement,
                                           track_memory=True))
    machine.run()
    return machine


def cfg(**kw):
    base = dict(spec=SPEC, num_gpus=48, g_inter=6, g_data=8,
                microbatch_size=1, batch_size=512, memopt=True)
    base.update(kw)
    return AxoNNConfig(**base)


class TestEmergentActivationMemory:
    def test_peak_matches_eq1_prediction(self):
        """The emergent per-GPU activation peak must land within the
        analytic Eq. (1) budget (which includes the full pipeline_limit
        in-flight term the schedule may not always reach)."""
        c = cfg()
        machine = run_tracked(c)
        mm = MemoryModel(SPEC)
        predicted = mm.activation_bytes(c.g_inter, c.microbatch_size)
        peaks = [machine.gpu(g).memory.peak for g in range(c.g_inter)]
        assert max(peaks) <= predicted * 1.05
        # The schedule genuinely keeps several microbatches in flight, so
        # the peak is a substantial fraction of the budget.
        assert max(peaks) >= 0.3 * predicted

    def test_all_activation_memory_freed_at_end(self):
        machine = run_tracked(cfg())
        for g in range(6):
            assert machine.gpu(g).memory.used == 0

    def test_peak_scales_with_microbatch_size(self):
        m1 = run_tracked(cfg(microbatch_size=1))
        m2 = run_tracked(cfg(microbatch_size=4, batch_size=512))
        p1 = max(m1.gpu(g).memory.peak for g in range(6))
        p2 = max(m2.gpu(g).memory.peak for g in range(6))
        assert p2 == pytest.approx(4 * p1, rel=0.1)

    def test_pipeline_limit_bounds_inflight_memory(self):
        """pipeline_limit=1 holds at most one microbatch's checkpoints plus
        the recompute workspace."""
        c = cfg(pipeline_limit=1)
        machine = run_tracked(c)
        layers = SPEC.layers_per_stage(6)
        ac = optimal_checkpoint_interval(SPEC.n_layer, layers)
        unit = SPEC.layer_activation_bytes(1)
        bound = (layers // ac) * unit + (1 + ac) * unit
        for g in range(6):
            assert machine.gpu(g).memory.peak <= bound + 1

    def test_oom_raised_mid_flight(self):
        """A microbatch size far beyond DRAM must OOM during execution."""
        c = cfg(microbatch_size=256, batch_size=4096)
        with pytest.raises(OutOfMemoryError):
            run_tracked(c)

    def test_untracked_run_allocates_nothing(self):
        c = cfg()
        machine = Machine(spec=summit(8))
        placement = GridPlacement(machine.spec, c.g_inter, c.g_data)
        machine.env.process(run_pipeline_phase(machine, c, placement))
        machine.run()
        assert all(machine.gpu(g).memory.peak == 0 for g in range(6))
