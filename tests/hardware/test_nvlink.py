"""Tests for the NVLink mesh extension (paper footnote 3)."""

import pytest

from repro.common.errors import SimulationError
from repro.hardware.interconnect import NVLINK2_BW, PcieTree, TopologySpec


@pytest.fixture
def topo():
    return TopologySpec(n_gpus=4, gpus_per_switch=4,
                        nvlink_bandwidth=NVLINK2_BW)


class TestNvlinkTopology:
    def test_flag(self, topo):
        assert topo.has_nvlink
        assert not TopologySpec(n_gpus=4).has_nvlink

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            TopologySpec(n_gpus=4, nvlink_bandwidth=-1.0)

    def test_full_mesh_created(self, sim, topo):
        tree = PcieTree(sim, topo)
        assert len(tree.nvlink) == 4 * 3

    def test_p2p_uses_nvlink(self, sim, topo):
        tree = PcieTree(sim, topo)
        path = tree.gpu_to_gpu(0, 2)
        assert len(path) == 1
        assert path[0].name == "nv0->2"
        assert path[0].bandwidth == NVLINK2_BW

    def test_host_swaps_still_use_pcie(self, sim, topo):
        tree = PcieTree(sim, topo)
        names = [l.name for l in tree.gpu_to_host(1)]
        assert names == ["gpu1.up", "sw0.up"]

    def test_nvlink_relieves_pcie_contention(self, sim, topo):
        """A p2p transfer no longer shares any link with host swaps."""
        from repro.sim.links import Route, transfer

        tree = PcieTree(sim, topo)
        one_second = int(topo.uplink_bandwidth)
        sim.process(transfer(sim, Route(tree.gpu_to_host(0)), one_second))
        sim.process(transfer(sim, Route(tree.gpu_to_gpu(0, 1)),
                             int(NVLINK2_BW)))
        sim.run()
        assert sim.now == pytest.approx(1.0, rel=0.01)


class TestNvlinkExperiment:
    def test_extension_rows(self):
        from repro.experiments import ext_nvlink

        rows = ext_nvlink.run(fast=True)
        by = {(r["scheme"], r["interconnect"]): r for r in rows}
        # DP never uses p2p, so NVLink cannot change it.
        assert by[("harmony-dp", "pcie")]["iteration(s)"] == pytest.approx(
            by[("harmony-dp", "nvlink")]["iteration(s)"]
        )
        # PP must not regress with a strictly faster p2p fabric.
        assert by[("harmony-pp", "nvlink")]["iteration(s)"] <= (
            by[("harmony-pp", "pcie")]["iteration(s)"] * 1.001
        )
        assert by[("harmony-pp", "pcie")]["p2p(GiB)"] > 0
