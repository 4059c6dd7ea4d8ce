"""Cluster hardware model: specs, the fabric, and routing."""

import pytest

from repro.cluster import (
    ETH_25G,
    ETH_100G,
    ClusterFabric,
    ClusterSpec,
    NetworkSpec,
    homogeneous_cluster,
)
from repro.common.errors import NetworkPartitionError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.links import NetworkLink, transfer


class TestSpecs:
    def test_network_spec_validation(self):
        with pytest.raises(SimulationError):
            NetworkSpec(bandwidth=0)
        with pytest.raises(SimulationError):
            NetworkSpec(switch_bandwidth=-1)
        with pytest.raises(SimulationError):
            NetworkSpec(latency=-1e-9)

    def test_presets(self):
        assert ETH_100G.bandwidth > ETH_25G.bandwidth
        assert "Gb/s" in ETH_25G.describe()

    def test_cluster_needs_a_server(self):
        with pytest.raises(SimulationError):
            ClusterSpec(servers=())
        with pytest.raises(SimulationError):
            homogeneous_cluster(0)

    def test_homogeneous_counts(self, cluster3, two_gpu_server):
        assert cluster3.n_servers == 3
        assert cluster3.total_gpus == 3 * two_gpu_server.n_gpus
        assert "3 server(s)" in cluster3.describe()


class TestFabric:
    def test_link_inventory(self, cluster3):
        fabric = ClusterFabric(Simulator(), cluster3)
        links = fabric.network_links()
        assert len(links) == 2 * 3 + 1
        assert all(isinstance(link, NetworkLink) for link in links)
        assert {link.name for link in links} == {
            "s0.nic.up", "s1.nic.up", "s2.nic.up",
            "s0.nic.down", "s1.nic.down", "s2.nic.down",
            "net.switch",
        }

    def test_route_same_server_is_empty(self, cluster3):
        fabric = ClusterFabric(Simulator(), cluster3)
        assert fabric.route(1, 1).hops == ()

    def test_route_cross_server(self, cluster3):
        fabric = ClusterFabric(Simulator(), cluster3)
        path = fabric.route(0, 2)
        assert [link.name for link in path.hops] == [
            "s0.nic.up", "net.switch", "s2.nic.down"
        ]

    def test_route_out_of_range(self, cluster3):
        fabric = ClusterFabric(Simulator(), cluster3)
        with pytest.raises(SimulationError):
            fabric.route(0, 3)
        with pytest.raises(SimulationError):
            fabric.route(-1, 0)

    def test_transfer_includes_nic_latency(self, cluster3):
        sim = Simulator()
        fabric = ClusterFabric(sim, cluster3)
        path = fabric.route(0, 1)
        net = cluster3.network
        nbytes = 10**6
        expected = 2 * net.latency + nbytes / net.bandwidth
        assert path.time(nbytes) == pytest.approx(expected)
        sim.process(transfer(sim, path, nbytes))
        sim.run()
        assert sim.now == pytest.approx(expected)

    def test_byte_counters(self, cluster3):
        sim = Simulator()
        fabric = ClusterFabric(sim, cluster3)
        sim.process(transfer(sim, fabric.route(0, 1), 500))
        sim.run()
        counts = fabric.bytes_by_link()
        assert counts["s0.nic.up"] == 500
        assert counts["net.switch"] == 500
        assert counts["s1.nic.down"] == 500
        assert counts["s2.nic.up"] == 0

    def test_partition_guard_raises_typed(self, cluster3):
        fabric = ClusterFabric(Simulator(), cluster3)
        fabric.partition = lambda a, b, now: {a, b} == {0, 2}
        with pytest.raises(NetworkPartitionError) as info:
            fabric.route(0, 2)
        assert info.value.entity == "s0->s2"
        # Unaffected pairs still route.
        assert len(fabric.route(0, 1).hops) == 3

