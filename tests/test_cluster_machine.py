"""Tests for calibration, fabric, GPUs, placement and the assembled Machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MB,
    GridPlacement,
    Machine,
    default_calibration,
    summit,
    validate_calibration,
)
from repro.sim import Interrupt


class TestCalibration:
    def test_default_is_valid(self):
        validate_calibration(default_calibration())

    def test_fig3_mpi_beats_nccl_intra_node_in_region_of_interest(self):
        cal = default_calibration()
        for nbytes in [1 * MB, 8 * MB, 50 * MB]:
            assert cal.mpi.p2p_time(nbytes, True) < cal.nccl.p2p_time(nbytes, True)

    def test_fig3_inter_node_nearly_identical(self):
        cal = default_calibration()
        for nbytes in [1 * MB, 16 * MB]:
            ratio = (cal.mpi.p2p_time(nbytes, False)
                     / cal.nccl.p2p_time(nbytes, False))
            assert 0.5 < ratio < 2.0

    def test_fig4_nccl_collectives_beat_mpi(self):
        cal = default_calibration()
        for nbytes in [4 * MB, 256 * MB]:
            assert (cal.nccl.allreduce_time(nbytes, 12, False)
                    < cal.mpi.allreduce_time(nbytes, 12, False))

    def test_allreduce_single_rank_free(self):
        cal = default_calibration()
        assert cal.nccl.allreduce_time(1 * MB, 1, True) == 0.0

    def test_allreduce_monotone_in_bytes(self):
        cal = default_calibration()
        times = [cal.nccl.allreduce_time(b, 8, False)
                 for b in [1 * MB, 2 * MB, 4 * MB]]
        assert times == sorted(times)

    def test_efficiency_monotone_in_work(self):
        cm = default_calibration().compute
        effs = [cm.efficiency(w) for w in [1e9, 1e10, 1e11, 1e12, 1e13]]
        assert effs == sorted(effs)
        assert all(0 < e <= cm.eff_max for e in effs)

    def test_backend_lookup(self):
        cal = default_calibration()
        assert cal.backend("mpi").name == "mpi"
        assert cal.backend("nccl").name == "nccl"
        with pytest.raises(ValueError):
            cal.backend("gloo")

    def test_validation_rejects_inverted_fig3(self):
        import dataclasses
        cal = default_calibration()
        bad_mpi = dataclasses.replace(cal.mpi, p2p_bw_intra=1e9,
                                      p2p_alpha_intra=1e-3)
        bad = dataclasses.replace(cal, mpi=bad_mpi)
        with pytest.raises(ValueError, match="Fig. 3"):
            validate_calibration(bad)


class TestFabric:
    def _machine(self, nodes=2):
        return Machine(spec=summit(nodes), trace=True)

    def test_intra_node_faster_than_inter_node(self):
        m = self._machine()
        cal = m.cal.mpi
        t_intra = m.fabric.transfer_time(0, 1, 16 * MB, cal)
        t_inter = m.fabric.transfer_time(0, 6, 16 * MB, cal)
        assert t_intra < t_inter

    def test_transfer_to_self_rejected(self):
        m = self._machine()
        with pytest.raises(ValueError):
            m.fabric.transfer_time(3, 3, 1, m.cal.mpi)

    def test_transfer_process_takes_wire_time(self):
        m = self._machine()
        model = m.cal.mpi
        expected = model.p2p_time(16 * MB, True)
        m.env.process(m.fabric.transfer(0, 1, 16 * MB, model))
        m.run()
        assert m.now == pytest.approx(expected)

    def test_transfers_sharing_a_port_serialize(self):
        m = self._machine()
        model = m.cal.mpi
        one = model.p2p_time(16 * MB, True)
        # both transfers end at GPU 2: must serialize on gpu2's port
        m.env.process(m.fabric.transfer(0, 2, 16 * MB, model))
        m.env.process(m.fabric.transfer(1, 2, 16 * MB, model))
        m.run()
        assert m.now == pytest.approx(2 * one)

    def test_disjoint_transfers_run_concurrently(self):
        m = self._machine()
        model = m.cal.mpi
        one = model.p2p_time(16 * MB, True)
        m.env.process(m.fabric.transfer(0, 1, 16 * MB, model))
        m.env.process(m.fabric.transfer(2, 3, 16 * MB, model))
        m.run()
        assert m.now == pytest.approx(one)

    def test_inter_node_transfers_serialize_on_nic(self):
        m = self._machine()
        model = m.cal.mpi
        one = model.p2p_time(8 * MB, False)
        # 0->6 and 1->7 both cross the node0/node1 NIC pair
        m.env.process(m.fabric.transfer(0, 6, 8 * MB, model))
        m.env.process(m.fabric.transfer(1, 7, 8 * MB, model))
        m.run()
        assert m.now == pytest.approx(2 * one)

    def test_allreduce_process_matches_model(self):
        m = self._machine()
        model = m.cal.nccl
        ranks = list(range(12))
        expected = model.allreduce_time(32 * MB, 12, False)
        m.env.process(m.fabric.allreduce(ranks, 32 * MB, model))
        m.run()
        assert m.now == pytest.approx(expected)

    def test_allreduce_single_rank_is_noop(self):
        m = self._machine()
        m.env.process(m.fabric.allreduce([3], 32 * MB, m.cal.nccl))
        m.run()
        assert m.now == 0.0

    def _all_resources(self, m):
        return (m.fabric.ports_out + m.fabric.ports_in
                + m.fabric.nics_out + m.fabric.nics_in)

    def test_interrupted_transfer_releases_everything(self):
        # Regression: a transfer cancelled while queueing for its *second*
        # resource must release the first grant and cancel the pending
        # request, leaving the fabric exactly as it found it.
        m = self._machine()
        model = m.cal.mpi
        m.env.process(m.fabric.transfer(2, 1, 16 * MB, model))  # holds gpu1.in

        def doomed(env):
            try:
                yield from m.fabric.transfer(0, 1, 16 * MB, model)
            except Interrupt:
                pass

        victim = m.env.process(doomed(m.env))

        def killer(env):
            yield env.timeout(1e-9)
            victim.interrupt("cancelled")

        m.env.process(killer(m.env))
        m.run()
        for res in self._all_resources(m):
            assert res.count == 0, res.name
            assert res.queue_len == 0, res.name

    def test_interrupted_allreduce_releases_everything(self):
        m = self._machine()
        # Inter-node transfer holds node0's egress NIC; the collective
        # queues behind it and is then cancelled.
        m.env.process(m.fabric.transfer(1, 7, 8 * MB, m.cal.mpi))

        def doomed(env):
            try:
                yield from m.fabric.allreduce([0, 6], 32 * MB, m.cal.nccl)
            except Interrupt:
                pass

        victim = m.env.process(doomed(m.env))

        def killer(env):
            yield env.timeout(1e-9)
            victim.interrupt("cancelled")

        m.env.process(killer(m.env))
        m.run()
        for res in self._all_resources(m):
            assert res.count == 0, res.name
            assert res.queue_len == 0, res.name

    def test_trace_records_transfers(self):
        m = self._machine()
        m.env.process(m.fabric.transfer(0, 1, 4 * MB, m.cal.mpi, label="act"))
        m.run()
        spans = m.tracer.by_category("p2p")
        assert len(spans) == 1
        assert spans[0].nbytes == 4 * MB


class TestSimGPU:
    def test_compute_time_uses_efficiency_model(self):
        m = Machine(spec=summit(1))
        gpu = m.gpu(0)
        flops = 1e12
        eff = m.cal.compute.efficiency(flops)
        expected = flops / (125e12 * eff) + m.cal.kernel_launch_overhead
        m.env.process(gpu.compute(flops))
        m.run()
        assert m.now == pytest.approx(expected)

    def test_kernels_serialize_on_stream(self):
        m = Machine(spec=summit(1))
        gpu = m.gpu(0)
        m.env.process(gpu.compute(1e12))
        m.env.process(gpu.compute(1e12))
        single = 1e12 / (125e12 * m.cal.compute.efficiency(1e12)) \
            + m.cal.kernel_launch_overhead
        m.run()
        assert m.now == pytest.approx(2 * single)

    def test_aux_stream_overlaps_compute_stream(self):
        m = Machine(spec=summit(1))
        gpu = m.gpu(0)
        m.env.process(gpu.busy(1.0, stream=gpu.compute_stream))
        m.env.process(gpu.busy(1.0, stream=gpu.aux_stream))
        m.run()
        assert m.now == pytest.approx(1.0)

    def test_negative_busy_rejected(self):
        m = Machine(spec=summit(1))
        gen = m.gpu(0).busy(-1.0)
        with pytest.raises(ValueError):
            m.env.process(gen)
            m.run()

    def test_dma_time(self):
        m = Machine(spec=summit(1))
        gpu = m.gpu(0)
        nbytes = 64 * MB
        expected = gpu.dma_time(nbytes)
        m.env.process(gpu.dma(nbytes, "h2d"))
        m.run()
        assert m.now == pytest.approx(expected)

    def test_dma_direction_validated(self):
        m = Machine(spec=summit(1))
        gen = m.gpu(0).dma(1, "sideways")
        with pytest.raises(ValueError):
            m.env.process(gen)
            m.run()

    def test_node_dma_slots_limit_concurrency(self):
        m = Machine(spec=summit(1))
        # 5 slots per node: six concurrent DMAs, the sixth must queue.
        nbytes = 100 * MB
        one = m.gpu(0).dma_time(nbytes)
        for g in range(6):
            m.env.process(m.gpu(g).dma(nbytes))
        m.run()
        assert m.now == pytest.approx(2 * one, rel=0.01)

    def test_device_memory_pool_capacity(self):
        m = Machine(spec=summit(1))
        assert m.gpu(0).memory.capacity == 16 * 1024 ** 3


class TestPlacement:
    def test_pipeline_contiguous_round_trip(self):
        pl = GridPlacement(summit(2), g_inter=6, g_data=2)
        for i in range(6):
            for j in range(2):
                assert pl.coord_of(pl.gpu_of(i, j)) == (i, j)

    def test_data_contiguous_round_trip(self):
        pl = GridPlacement(summit(2), g_inter=4, g_data=3,
                           policy="data-contiguous")
        for i in range(4):
            for j in range(3):
                assert pl.coord_of(pl.gpu_of(i, j)) == (i, j)

    def test_pipeline_contiguous_keeps_stages_on_node(self):
        pl = GridPlacement(summit(2), g_inter=6, g_data=2)
        assert pl.pipeline_edge_locality(0) == {"intra": 5, "inter": 0}

    def test_data_contiguous_keeps_group_on_node(self):
        pl = GridPlacement(summit(2), g_inter=2, g_data=6,
                           policy="data-contiguous")
        assert pl.data_group_nodes(0) == 1

    def test_grid_too_big_rejected(self):
        with pytest.raises(ValueError):
            GridPlacement(summit(1), g_inter=4, g_data=2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            GridPlacement(summit(2), 2, 2, policy="random")

    def test_groups_partition_the_grid(self):
        pl = GridPlacement(summit(8), g_inter=6, g_data=8)
        all_gpus = sorted(g for j in range(8) for g in pl.pipeline(j))
        assert all_gpus == list(range(48))
        all_gpus = sorted(g for i in range(6) for g in pl.data_group(i))
        assert all_gpus == list(range(48))

    @given(
        g_inter=st.integers(1, 12),
        g_data=st.integers(1, 8),
        policy=st.sampled_from(["pipeline-contiguous", "data-contiguous"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_placement_is_a_bijection(self, g_inter, g_data, policy):
        spec = summit(16)
        pl = GridPlacement(spec, g_inter=g_inter, g_data=g_data, policy=policy)
        seen = set()
        for i in range(g_inter):
            for j in range(g_data):
                g = pl.gpu_of(i, j)
                assert g not in seen
                seen.add(g)
                assert pl.coord_of(g) == (i, j)


class TestMachine:
    def test_machine_builds_summit(self):
        m = Machine()
        assert len(m.gpus) == 48
        assert len(m.host_memory) == 8

    def test_host_mem_of(self):
        m = Machine(spec=summit(2))
        assert m.host_mem_of(0) is m.host_memory[0]
        assert m.host_mem_of(7) is m.host_memory[1]

    def test_reset_memory(self):
        m = Machine(spec=summit(1))
        m.gpu(0).memory.allocate("x", 100)
        m.host_memory[0].allocate("y", 100)
        m.reset_memory()
        assert m.gpu(0).memory.used == 0
        assert m.host_memory[0].used == 0
