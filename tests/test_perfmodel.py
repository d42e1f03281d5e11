"""Machine, network, and topology cost models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perfmodel import (
    CpuModel,
    FatTreeTopology,
    FlatTopology,
    MachineModel,
    NetworkModel,
    TorusTopology,
)


class TestTopologies:
    def test_flat(self):
        t = FlatTopology()
        assert t.hops(3, 3) == 0
        assert t.hops(0, 5) == 1

    def test_fat_tree_levels(self):
        t = FatTreeTopology(ranks_per_node=4, nodes_per_switch=2)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 3) == 1      # same node
        assert t.hops(0, 7) == 2      # same leaf switch
        assert t.hops(0, 8) == 4      # across core
        assert t.same_node(0, 3)
        assert not t.same_node(0, 4)

    def test_fat_tree_validation(self):
        with pytest.raises(ValueError):
            FatTreeTopology(ranks_per_node=0)

    def test_torus_coords_roundtrip(self):
        t = TorusTopology(shape=(4, 3, 2))
        for rank in range(t.nranks):
            x, y, z = t.coords(rank)
            assert rank == x + 4 * (y + 3 * z)

    def test_torus_wraparound(self):
        t = TorusTopology(shape=(8, 1, 1))
        assert t.hops(0, 7) == 1      # wraps
        assert t.hops(0, 4) == 4      # diameter

    def test_torus_manhattan(self):
        t = TorusTopology(shape=(4, 4, 4))
        assert t.hops(0, t.coords_inv((1, 1, 1))) == 3 if hasattr(
            t, "coords_inv"
        ) else True
        # direct: rank (1,1,1) = 1 + 4*(1 + 4*1) = 21
        assert t.hops(0, 21) == 3

    def test_torus_bad_rank(self):
        with pytest.raises(ValueError):
            TorusTopology(shape=(2, 2, 2)).coords(8)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_torus_symmetry(self, a, b):
        t = TorusTopology(shape=(4, 4, 4))
        assert t.hops(a, b) == t.hops(b, a)


@pytest.mark.parametrize(
    "topo",
    [
        FlatTopology(),
        FatTreeTopology(ranks_per_node=2, nodes_per_switch=2),
        TorusTopology(shape=(3, 2, 2)),
    ],
    ids=["flat", "fat-tree", "torus"],
)
def test_hops_batch_matches_hops_on_every_pair(topo):
    ranks = np.arange(12)
    src, dst = np.meshgrid(ranks, ranks, indexing="ij")
    want = [[topo.hops(int(s), int(d)) for d in ranks] for s in ranks]
    assert topo.hops_batch(src, dst).tolist() == want


class TestNetworkModel:
    def test_transit_grows_with_size(self):
        net = NetworkModel()
        assert net.transit(0, 1, 10_000) > net.transit(0, 1, 10)

    def test_transit_grows_with_hops(self):
        net = NetworkModel(topology=TorusTopology(shape=(8, 1, 1)))
        assert net.transit(0, 4, 100) > net.transit(0, 1, 100)

    def test_same_node_cheaper(self):
        net = NetworkModel(
            topology=FatTreeTopology(ranks_per_node=4, nodes_per_switch=2)
        )
        assert net.transit(0, 1, 1000) < net.transit(0, 30, 1000)

    def test_self_transit_uses_shm(self):
        net = NetworkModel()
        assert net.transit(2, 2, 100) == pytest.approx(
            net.shm_latency + 100 / net.shm_bandwidth
        )

    def test_overheads(self):
        net = NetworkModel(o_send=1e-6, o_recv=2e-6, g_inject=1e-9)
        assert net.send_overhead(1000) == pytest.approx(1e-6 + 1e-6)
        assert net.recv_overhead(1000) == pytest.approx(2e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1e-6)

    def test_describe(self):
        assert "bw=" in NetworkModel().describe()


class TestCpuModel:
    def test_peak_flops(self):
        cpu = CpuModel(ghz=2.0e9, flops_per_cycle=8.0)
        assert cpu.peak_flops == pytest.approx(1.6e10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuModel(ghz=0)
        with pytest.raises(ValueError):
            CpuModel(mem_bandwidth=-1)


class TestMachineModel:
    def test_roofline_compute_bound(self):
        m = MachineModel()
        t = m.compute_seconds(flops=m.cpu.peak_flops)  # 1 second of flops
        assert t == pytest.approx(1.0)

    def test_roofline_memory_bound(self):
        m = MachineModel()
        t = m.compute_seconds(flops=1.0, mem_bytes=m.cpu.mem_bandwidth * 2)
        assert t == pytest.approx(2.0)

    def test_efficiency_scales(self):
        m = MachineModel()
        t1 = m.compute_seconds(flops=1e9, efficiency=1.0)
        t2 = m.compute_seconds(flops=1e9, efficiency=0.5)
        assert t2 == pytest.approx(2 * t1)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            MachineModel().compute_seconds(flops=1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            MachineModel().compute_seconds(flops=1.0, efficiency=1.5)

    @pytest.mark.parametrize(
        "name", ["compton", "opteron6378", "i5-2500", "generic"]
    )
    def test_presets_build(self, name):
        m = MachineModel.preset(name)
        assert m.name == name
        assert m.cpu.peak_flops > 0

    def test_preset_name_normalization(self):
        assert MachineModel.preset("I5_2500").name == "i5-2500"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown machine preset"):
            MachineModel.preset("cray-1")

    def test_opteron_l1_from_paper(self):
        """Paper: 'The size of both L1 data cache ... is 48KB'."""
        assert MachineModel.preset("opteron6378").cpu.l1_dcache == 48 * 1024

    def test_compton_clock(self):
        """Compton: Sandy Bridge E5-2670 at 2.6 GHz."""
        assert MachineModel.preset("compton").cpu.ghz == pytest.approx(2.6e9)

    def test_with_network(self):
        m = MachineModel.preset("compton")
        net = NetworkModel(latency=9e-6)
        m2 = m.with_network(net)
        assert m2.network.latency == 9e-6
        assert m.network.latency != 9e-6  # original untouched

    def test_available_presets(self):
        assert "compton" in MachineModel.available_presets()
