"""Tests for the PCIe tree topology."""

import pytest

from repro.common.errors import SimulationError
from repro.hardware.interconnect import (
    PCIE3_SHARED_UPLINK_BW,
    PCIE3_X16_BW,
    PcieTree,
    TopologySpec,
)
from repro.sim.links import Route, transfer


class TestTopologySpec:
    def test_switch_count(self):
        assert TopologySpec(n_gpus=4, gpus_per_switch=4).n_switches == 1
        assert TopologySpec(n_gpus=8, gpus_per_switch=4).n_switches == 2
        assert TopologySpec(n_gpus=5, gpus_per_switch=4).n_switches == 2

    def test_switch_of(self):
        topo = TopologySpec(n_gpus=8, gpus_per_switch=4)
        assert topo.switch_of(0) == 0
        assert topo.switch_of(3) == 0
        assert topo.switch_of(4) == 1

    def test_bad_gpu_index(self):
        topo = TopologySpec(n_gpus=4)
        with pytest.raises(SimulationError):
            topo.switch_of(4)

    def test_degenerate_specs_rejected(self):
        with pytest.raises(SimulationError):
            TopologySpec(n_gpus=0)
        with pytest.raises(SimulationError):
            TopologySpec(n_gpus=4, gpus_per_switch=0)

    def test_effective_pcie_below_raw(self):
        # Effective bandwidth models DMA overhead: below the 16 GB/s raw.
        assert PCIE3_X16_BW < 16e9
        assert PCIE3_X16_BW > 10e9


class TestPaths:
    @pytest.fixture
    def tree(self, sim):
        return PcieTree(sim, TopologySpec(n_gpus=8, gpus_per_switch=4))

    def test_gpu_to_host_crosses_uplink(self, tree):
        path = tree.gpu_to_host(2)
        names = [l.name for l in path]
        assert names == ["gpu2.up", "sw0.up"]

    def test_host_to_gpu_is_reverse_direction(self, tree):
        names = [l.name for l in tree.host_to_gpu(5)]
        assert names == ["sw1.down", "gpu5.down"]

    def test_p2p_same_switch_skips_host(self, tree):
        names = [l.name for l in tree.gpu_to_gpu(0, 3)]
        assert names == ["gpu0.up", "gpu3.down"]
        assert not any("sw" in n for n in names)

    def test_p2p_cross_switch_uses_uplinks(self, tree):
        names = [l.name for l in tree.gpu_to_gpu(1, 6)]
        assert "sw0.up" in names and "sw1.down" in names

    def test_p2p_self_is_empty(self, tree):
        assert tree.gpu_to_gpu(3, 3) == []

    def test_min_bandwidth_is_shared_uplink(self, tree):
        route = Route(tree.gpu_to_host(0))
        assert route.bandwidth == PCIE3_SHARED_UPLINK_BW

    def test_p2p_bandwidth_is_leaf_rate(self, tree):
        route = Route(tree.gpu_to_gpu(0, 1))
        assert route.bandwidth == PCIE3_X16_BW


class TestOversubscription:
    def test_shared_uplink_throttles_concurrent_swaps(self, sim):
        """The Figure 2 effect: 4 GPUs swapping in parallel take ~4x one
        GPU's time because they serialize on the shared uplink."""
        tree = PcieTree(sim, TopologySpec(n_gpus=4, gpus_per_switch=4))
        nbytes = int(PCIE3_SHARED_UPLINK_BW)  # 1 second each, uncontended
        for gpu in range(4):
            sim.process(transfer(sim, Route(tree.gpu_to_host(gpu)), nbytes))
        sim.run()
        assert sim.now == pytest.approx(4.0, rel=0.01)

    def test_dedicated_uplinks_do_not_throttle(self, sim):
        tree = PcieTree(sim, TopologySpec(n_gpus=4, gpus_per_switch=1))
        nbytes = int(PCIE3_SHARED_UPLINK_BW)
        for gpu in range(4):
            sim.process(transfer(sim, Route(tree.gpu_to_host(gpu)), nbytes))
        sim.run()
        assert sim.now == pytest.approx(1.0, rel=0.01)

    def test_p2p_avoids_swap_contention(self, sim):
        tree = PcieTree(sim, TopologySpec(n_gpus=4, gpus_per_switch=4))
        sim.process(transfer(sim, Route(tree.gpu_to_host(0)),
                             int(PCIE3_SHARED_UPLINK_BW)))
        sim.process(transfer(sim, Route(tree.gpu_to_gpu(2, 3)),
                             int(PCIE3_X16_BW)))
        sim.run()
        assert sim.now == pytest.approx(1.0, rel=0.01)
