"""Tests for the Megatron-LM / DeepSpeed baselines: framework policies on
``AxoNNConfig`` and their static walk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_baseline_batch
from repro.cluster import Machine, summit
from repro.core import (AxoNNConfig, WEAK_SCALING_MODELS, check_memory,
                        simulate_batch, stage_costs)
from repro.core.phases import (MEGATRON_BWD_ALLREDUCES_PER_LAYER,
                               MEGATRON_FWD_ALLREDUCES_PER_LAYER)
from repro.sched import (BWD, FWD, build_schedule, flushing_order,
                         ir_bubble_fraction, peak_resident_activations)
from repro.sched.des import simulate_schedule

SPEC = WEAK_SCALING_MODELS["12B"]


def ds_cfg(**kw):
    base = dict(spec=SPEC, num_gpus=48, g_intra=3, g_inter=2, g_data=8,
                microbatch_size=2, batch_size=768, framework="deepspeed",
                schedule="1f1b")
    base.update(kw)
    return AxoNNConfig(**base)


def mg_cfg(**kw):
    base = dict(spec=SPEC, num_gpus=48, g_intra=3, g_inter=16, g_data=1,
                microbatch_size=8, batch_size=768, framework="megatron",
                schedule="1f1b")
    base.update(kw)
    return AxoNNConfig(**base)


def ops(name, stage, n_stages, m):
    """The one flushing order generator, as ``(kind, microbatch)`` pairs."""
    order = flushing_order(name, stage, n_stages, m)
    assert all(task.stage == stage for task in order)
    return [(task.kind, task.mb) for task in order]


class TestSchedules:
    """Closed-form properties of the baselines' static schedules, on the
    single generator both the IR builders and the DES model consume."""

    def test_1f1b_ops_complete(self):
        for stage in range(4):
            order = ops("1f1b", stage, 4, 8)
            fwd = [mb for kind, mb in order if kind == FWD]
            bwd = [mb for kind, mb in order if kind == BWD]
            assert fwd == list(range(8))
            assert bwd == list(range(8))

    def test_1f1b_backward_never_precedes_forward(self):
        for name in ("1f1b", "gpipe"):
            seen_f = set()
            for kind, mb in ops(name, 1, 4, 8):
                if kind == FWD:
                    seen_f.add(mb)
                else:
                    assert mb in seen_f

    def test_1f1b_warmup_depth(self):
        # Stage i of S warms up with S - 1 - i forwards, then strictly
        # alternates F/B until the forwards run out, then drains.
        S, m = 4, 8
        for stage in range(S):
            kinds = [kind for kind, _ in ops("1f1b", stage, S, m)]
            warmup = S - 1 - stage
            steady = 2 * (m - warmup)
            assert kinds[:warmup] == [FWD] * warmup
            assert kinds[warmup:warmup + steady] == [FWD, BWD] * (m - warmup)
            assert kinds[warmup + steady:] == [BWD] * warmup

    def test_last_stage_alternates(self):
        assert ops("1f1b", 3, 4, 4) == [
            (FWD, 0), (BWD, 0), (FWD, 1), (BWD, 1),
            (FWD, 2), (BWD, 2), (FWD, 3), (BWD, 3)]

    def test_1f1b_inflight_bounded_by_depth(self):
        # Rank r of S holds exactly S - r activations at its peak.
        assert peak_resident_activations(build_schedule("1f1b", 6, 32)) \
            == (6, 5, 4, 3, 2, 1)

    def test_gpipe_inflight_grows_with_microbatches(self):
        assert peak_resident_activations(build_schedule("gpipe", 4, 32)) \
            == (32,) * 4

    def test_gpipe_ops_complete(self):
        assert ops("gpipe", 2, 4, 5) == (
            [(FWD, mb) for mb in range(5)] + [(BWD, mb) for mb in range(5)])

    def test_bubble_fraction(self):
        assert ir_bubble_fraction(4, 4) == pytest.approx(3 / 7)
        assert ir_bubble_fraction(1, 8) == 0.0
        # More microbatches amortize the bubble.
        assert ir_bubble_fraction(8, 256) < ir_bubble_fraction(8, 16)

    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            flushing_order("1f1b", 4, 4, 8)
        with pytest.raises(ValueError):
            flushing_order("1f1b", 0, 4, 0)
        with pytest.raises(ValueError):
            flushing_order("gpipe", -1, 4, 8)
        with pytest.raises(ValueError):
            flushing_order("wave", 0, 4, 8)
        with pytest.raises(ValueError):
            ir_bubble_fraction(0, 4)

    @given(stage=st.integers(0, 7), stages=st.integers(1, 8),
           m=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_1f1b_property_all_microbatches_once(self, stage, stages, m):
        if stage >= stages:
            return
        order = ops("1f1b", stage, stages, m)
        assert sorted(mb for k, mb in order if k == FWD) == list(range(m))
        assert sorted(mb for k, mb in order if k == BWD) == list(range(m))


class TestConfig:
    def test_grid_product_checked(self):
        with pytest.raises(ValueError):
            ds_cfg(g_intra=4)

    def test_framework_checked(self):
        with pytest.raises(ValueError):
            ds_cfg(framework="horovod")

    def test_schedule_checked(self):
        with pytest.raises(ValueError):
            ds_cfg(schedule="wave")

    def test_hidden_divisibility(self):
        # Megatron-LM splits every GEMM: hidden (4512) must divide by
        # G_intra.  AxoNN's gathered weights allow an uneven head split.
        five = dict(num_gpus=5, g_intra=5, g_inter=1, g_data=1,
                    microbatch_size=1, batch_size=8)
        with pytest.raises(ValueError, match="hidden"):
            mg_cfg(**five)
        assert AxoNNConfig(spec=SPEC, **five).g_intra == 5
        assert ds_cfg().g_intra == 3

    @pytest.mark.parametrize("bad", [
        dict(memopt=True),          # no baseline offloads its optimizer
        dict(schedule=None),        # a baseline walks a static order
        dict(framework="axonn"),    # AxoNN is message-driven: no order
    ])
    def test_policy_refuses_combinations_no_model_runs(self, bad):
        with pytest.raises(ValueError):
            ds_cfg(**bad)

    def test_policy_defaults(self):
        ax = AxoNNConfig(spec=SPEC, num_gpus=48, g_inter=6, g_data=8,
                         microbatch_size=8, batch_size=768)
        assert (ax.framework, ax.schedule, ax.p2p) == ("axonn", None, "mpi")
        assert (ds_cfg().p2p, ds_cfg(backend_p2p="mpi").p2p) == \
            ("nccl", "mpi")
        assert [c.optimizer_placement for c in
                (ax, ax.with_(memopt=True), mg_cfg(), ds_cfg())] == \
            ["resident", "offload", "resident", "zero1"]


class TestStageCosts:
    def test_intra_sharding_divides_compute(self):
        m = Machine(spec=summit(8))
        sharded = stage_costs(ds_cfg(), m)
        unsharded = stage_costs(
            ds_cfg(g_intra=1, g_inter=2, g_data=24, batch_size=768), m)
        assert sharded[0].fwd_flops == pytest.approx(
            unsharded[0].fwd_flops / 3)

    def test_intra_collectives_charged(self):
        m = Machine(spec=summit(8))
        costs = stage_costs(ds_cfg(), m)
        assert costs[0].fwd_extra_s > m.cal.p2p_handling_overhead
        assert costs[0].bwd_extra_s > costs[0].fwd_extra_s

    def test_split_extras_are_megatrons_allreduce_budget(self):
        """Under the ``"split"`` policy a stage's serial extras are
        Megatron-LM's activation all-reduces and one p2p handling: the
        named per-layer budget (2 forward, 4 backward and recompute)
        times the stage's layers, plus 1 / 2 for the head."""
        assert MEGATRON_FWD_ALLREDUCES_PER_LAYER == 2
        assert MEGATRON_BWD_ALLREDUCES_PER_LAYER == 4
        m = Machine(spec=summit(8))
        for cfg in (ds_cfg(), mg_cfg()):
            ar = m.cal.backend(cfg.backend_coll).allreduce_time(
                SPEC.activation_message_bytes(cfg.microbatch_size),
                cfg.g_intra, intra_node=True)
            handling = m.cal.p2p_handling_overhead
            costs = stage_costs(cfg, m)
            for cost in costs:
                head = cost.stage == cfg.g_inter - 1
                assert cost.fwd_extra_s == pytest.approx(
                    (MEGATRON_FWD_ALLREDUCES_PER_LAYER * cost.n_block_layers
                     + head) * ar + handling, rel=1e-12)
                assert cost.bwd_extra_s == pytest.approx(
                    (MEGATRON_BWD_ALLREDUCES_PER_LAYER * cost.n_block_layers
                     + 2 * head) * ar + handling, rel=1e-12)

    def test_no_collectives_without_intra(self):
        m = Machine(spec=summit(8))
        costs = stage_costs(
            ds_cfg(g_intra=1, g_inter=6, g_data=8), m)
        assert costs[0].fwd_extra_s == m.cal.p2p_handling_overhead
        assert costs[0].bwd_extra_s == m.cal.p2p_handling_overhead

    @given(g_inter=st.sampled_from([1, 2, 3, 5, 6, 16, 48]),
           mbs=st.sampled_from([1, 2, 8]),
           calibrated=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_framework_independent_without_a_tensor_axis(self, g_inter, mbs,
                                                          calibrated):
        """The TP policy is the only difference between the frameworks'
        cost tables: at G_intra = 1 all three are equal."""
        machine = Machine(spec=summit(8)) if calibrated else None
        tables = [stage_costs(AxoNNConfig(
            spec=SPEC, num_gpus=g_inter, g_inter=g_inter, g_data=1,
            microbatch_size=mbs, batch_size=4 * mbs, framework=framework,
            schedule=schedule), machine)
            for framework, schedule in (("axonn", None),
                                        ("megatron", "1f1b"),
                                        ("deepspeed", "gpipe"))]
        assert tables[0] == tables[1] == tables[2]


class TestSimulation:
    def test_phases_positive(self):
        r = simulate_baseline_batch(ds_cfg())
        assert r.pipeline_s > 0
        assert r.allreduce_s > 0
        assert r.optimizer_s > 0

    def test_deterministic(self):
        assert simulate_baseline_batch(ds_cfg()).batch_time_s == \
            simulate_baseline_batch(ds_cfg()).batch_time_s

    def test_megatron_no_data_parallel_allreduce(self):
        """Megatron-LM's Table II row has G_data = 1: a one-replica
        column reduces nothing, so no framework pays an all-reduce (one
        test id over all three frameworks)."""
        results = {
            "axonn": simulate_batch(AxoNNConfig(
                spec=SPEC, num_gpus=16, g_inter=16, g_data=1,
                microbatch_size=8, batch_size=768, memopt=True)),
            **{fw: simulate_baseline_batch(mg_cfg(framework=fw))
               for fw in ("deepspeed", "megatron")}}
        assert {fw: r.allreduce_s for fw, r in results.items()} == \
            {"axonn": 0.0, "deepspeed": 0.0, "megatron": 0.0}

    def test_gpipe_slower_or_equal_1f1b_pipeline(self):
        f1b = simulate_baseline_batch(ds_cfg())
        gp = simulate_baseline_batch(ds_cfg(schedule="gpipe"))
        assert gp.pipeline_s >= f1b.pipeline_s * 0.95

    def test_axonn_beats_both_baselines_12b(self):
        """The headline result at the 12 B scale: each framework with its
        Table II configuration at the paper's weak-scaling batch size.
        (At toy batch sizes AxoNN's deeper pipeline bubble genuinely
        dominates, so the paper's batch is required for the crossover.)"""
        batch = 16384
        ax = simulate_batch(AxoNNConfig(
            spec=SPEC, num_gpus=48, g_inter=6, g_data=8, microbatch_size=8,
            batch_size=batch, memopt=True))
        ds = simulate_baseline_batch(ds_cfg(batch_size=batch))
        mg = simulate_baseline_batch(mg_cfg(batch_size=batch))
        assert ax.batch_time_s < ds.batch_time_s < mg.batch_time_s

    def test_deepspeed_memory_beats_megatron(self):
        """ZeRO-1 lets DeepSpeed fit configs Megatron cannot."""
        _, ds_fits = check_memory(ds_cfg())
        _, mg_fits = check_memory(
            mg_cfg(g_inter=2, g_data=8, microbatch_size=2))
        assert ds_fits and not mg_fits

    def test_gpipe_activation_memory_exceeds_1f1b(self):
        bd_1f1b, _ = check_memory(ds_cfg(batch_size=16384))
        bd_gpipe, _ = check_memory(
            ds_cfg(batch_size=16384, schedule="gpipe"))
        assert bd_gpipe.activations > bd_1f1b.activations

    def test_metrics(self):
        r = simulate_baseline_batch(ds_cfg())
        assert 0 < r.pct_of_peak < 100
        assert r.config.framework == "deepspeed"
        row = r.as_row()
        assert row["pct_peak"] == r.pct_of_peak
        assert row["batch_time_s"] == r.batch_time_s == \
            r.pipeline_s + r.dp_opt_combined_s

    def test_walks_refuse_each_others_configs(self):
        with pytest.raises(ValueError, match="simulate_baseline_batch"):
            simulate_batch(ds_cfg())
        with pytest.raises(ValueError, match="simulate_batch"):
            simulate_baseline_batch(AxoNNConfig(
                spec=SPEC, num_gpus=48, g_inter=6, g_data=8,
                microbatch_size=8, batch_size=768))

    @pytest.mark.parametrize("framework", ["deepspeed", "megatron"])
    def test_trace_shows_the_tail(self, framework):
        """The baselines end their batch with the one tail, as events on
        the column GPU's streams: the all-reduce on the aux stream, the
        optimizer (ZeRO-1's sharded step and all-gather for DeepSpeed)
        on the compute stream, after the last pipeline pass."""
        machine = Machine(spec=summit(8), trace=True)
        r = simulate_baseline_batch(ds_cfg(framework=framework),
                                    machine=machine)
        spans = machine.tracer.spans
        ar = [s for s in spans if s.category == "allreduce"]
        opt = [s for s in spans if s.category == "optimizer"]
        assert [(s.rank, s.stream, s.name) for s in ar + opt] == [
            (0, "aux", "allreduce"), (0, "compute", "optimizer")]
        assert ar[0].duration == pytest.approx(r.allreduce_s, rel=1e-12)
        assert opt[0].duration == pytest.approx(r.optimizer_s, rel=1e-12)
        last_pass = max(s.end for s in spans if s.category == "compute")
        assert ar[0].start == pytest.approx(last_pass, rel=1e-12)
        assert opt[0].end == pytest.approx(r.batch_time_s, rel=1e-12)

    def test_machine_too_small(self):
        with pytest.raises(ValueError):
            simulate_baseline_batch(ds_cfg(), machine=Machine(spec=summit(1)))

    @pytest.mark.parametrize("schedule", ["1f1b", "gpipe"])
    def test_pipeline_phase_is_the_schedule_walk(self, schedule):
        """One static walk: the IR schedule priced by the baseline's own
        cost table under blocking NCCL *is* the baseline's pipeline phase
        (a blocking send is awaited, so it takes the compute stream before
        the rank's next pass, not after it)."""
        cfg = AxoNNConfig(spec=SPEC, num_gpus=8, g_intra=1, g_inter=4,
                          g_data=2, microbatch_size=2, batch_size=48,
                          framework="megatron", schedule=schedule,
                          compute_jitter=0.1, jitter_seed=5)
        machine = Machine(spec=summit(2))
        walk = simulate_schedule(
            build_schedule(schedule, cfg.g_inter,
                           cfg.microbatches_per_shard),
            costs=stage_costs(cfg, machine), machine=machine,
            backend_p2p="nccl", sigma=0.1, seed=5)
        assert walk.makespan == simulate_baseline_batch(cfg).pipeline_s

    @pytest.mark.parametrize("case", ["axonn", "axonn-tp", "deepspeed"])
    def test_closed_form_slot_is_the_traced_pass_pair(self, case):
        """``StageCost.slot_time`` prices what either walk charges: at
        zero jitter it is the bottleneck stage's fwd + bwd span pair."""
        machine = Machine(spec=summit(8), trace=True)
        if case == "deepspeed":
            cfg = ds_cfg(batch_size=96)
            simulate_baseline_batch(cfg, machine=machine)
            costs = stage_costs(cfg, machine)
        else:
            g_intra = 2 if case == "axonn-tp" else 1
            cfg = AxoNNConfig(
                spec=SPEC, num_gpus=48, g_inter=6, g_intra=g_intra,
                g_data=8 // g_intra, microbatch_size=8, batch_size=192,
                memopt=True)
            simulate_batch(cfg, machine=machine)
            costs = stage_costs(cfg, machine)
        slot, stage = max((c.slot_time(machine), c.stage) for c in costs)
        pair = [s.duration for s in machine.tracer.by_category("compute")
                if s.name in ("fwd0", "bwd0")
                and s.with_meta()["stage"] == stage]
        assert len(pair) == 2
        assert slot == pytest.approx(sum(pair), rel=1e-12)
