"""Unit tests for the logical/physical device vocabulary."""

import pytest

from repro.common.fingerprint import fingerprint
from repro.core.types import Channel
from repro.virt import (
    DeviceBinding,
    LogicalDevice,
    PhysicalDevice,
    VirtualTopology,
)


class TestPhysicalDevice:
    def test_defaults_are_the_planned_gpu(self):
        d = PhysicalDevice(0)
        assert d.flops_scale == 1.0 and d.memory_scale == 1.0

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            PhysicalDevice(0, flops_scale=0.0)
        with pytest.raises(ValueError):
            PhysicalDevice(0, memory_scale=-1.0)
        with pytest.raises(ValueError):
            LogicalDevice(-1)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_rejects_nonfinite_scales(self, scale):
        with pytest.raises(ValueError, match="finite"):
            PhysicalDevice(0, flops_scale=scale)
        with pytest.raises(ValueError, match="finite"):
            PhysicalDevice(0, memory_scale=scale)

    def test_memory_bytes_is_integer_exact(self):
        base = 11 * 2**30
        assert PhysicalDevice(0).memory_bytes(base) == base
        assert PhysicalDevice(0, memory_scale=0.5).memory_bytes(base) \
            == base // 2
        # 0.75 is exactly representable; the Fraction path keeps the
        # product exact instead of round-tripping through float.
        assert PhysicalDevice(0, memory_scale=0.75).memory_bytes(base) \
            == base * 3 // 4


class TestVirtualTopology:
    def test_uniform(self):
        topo = VirtualTopology.uniform(3)
        assert topo.n_physical == 3 and topo.is_uniform
        assert topo.flops_scales() == (1.0, 1.0, 1.0)

    def test_heterogeneous(self):
        topo = VirtualTopology.heterogeneous([1.5, 0.75], [1.0, 0.5])
        assert not topo.is_uniform
        assert topo.devices[1].memory_scale == 0.5

    def test_scale_lists_must_match(self):
        with pytest.raises(ValueError):
            VirtualTopology.heterogeneous([1.0, 1.0], [1.0])

    def test_dense_indexing_enforced(self):
        with pytest.raises(ValueError):
            VirtualTopology((PhysicalDevice(1),))
        with pytest.raises(ValueError):
            VirtualTopology(())

    def test_fingerprint_tracks_scales(self):
        a = VirtualTopology.uniform(2)
        b = VirtualTopology.heterogeneous([1.0, 1.5])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == VirtualTopology.uniform(2).fingerprint()


class TestDeviceBinding:
    def test_identity(self):
        b = DeviceBinding.identity(4)
        assert b.is_identity and b.injective
        assert b.n_logical == b.n_physical == 4

    def test_pack_round_robin(self):
        b = DeviceBinding.pack(4, VirtualTopology.uniform(2))
        assert b.assignment == (0, 1, 0, 1)
        assert not b.injective and not b.is_identity
        assert b.logical_on(0) == (0, 2) and b.logical_on(1) == (1, 3)

    def test_pack_equal_counts_is_identity(self):
        assert DeviceBinding.pack(3, VirtualTopology.uniform(3)).is_identity

    def test_heterogeneous_is_not_identity(self):
        b = DeviceBinding.heterogeneous([1.5, 0.75])
        assert b.identity_assignment and not b.is_identity

    def test_embed(self):
        b = DeviceBinding.embed(2, 4)
        assert b.assignment == (0, 1) and b.n_physical == 4
        with pytest.raises(ValueError):
            DeviceBinding.embed(4, 2)

    def test_from_mapping(self):
        b = DeviceBinding.from_mapping({0: 0, 1: 2, 2: 3}, n_logical=3)
        assert b.assignment == (0, 2, 3)
        assert b.injective and b.n_physical == 4

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError):
            DeviceBinding(VirtualTopology.uniform(2), (0, 2))

    def test_fingerprint_tracks_assignment_and_topology(self):
        ident = DeviceBinding.identity(2)
        packed = DeviceBinding.pack(2, VirtualTopology.uniform(1))
        hetero = DeviceBinding.heterogeneous([1.0, 1.5])
        prints = {b.fingerprint() for b in (ident, packed, hetero)}
        assert len(prints) == 3
        assert ident.fingerprint() == DeviceBinding.identity(2).fingerprint()


@pytest.fixture(scope="module")
def planned_graph():
    from repro.core.harmony import Harmony, HarmonyOptions
    from repro.experiments.common import server_for

    return Harmony("toy-transformer", server_for(2), 8,
                   options=HarmonyOptions(mode="pp")).plan().graph


class TestApply:
    def test_identity_apply_returns_the_same_graph(self, planned_graph):
        assert DeviceBinding.identity(2).apply(planned_graph) \
            is planned_graph

    def test_shape_mismatch_rejected(self, planned_graph):
        with pytest.raises(ValueError):
            DeviceBinding.identity(3).apply(planned_graph)

    def test_pack_collapses_p2p_to_local(self, planned_graph):
        graph = planned_graph
        bound = DeviceBinding.pack(2, VirtualTopology.uniform(1)).apply(graph)
        assert bound.n_devices == 1
        for task in bound.tasks:
            assert task.device == 0
            for moves in (task.ins, task.outs):
                for move in moves:
                    assert move.channel is not Channel.P2P, (
                        "P2P between devices collapsed onto one physical "
                        "GPU must become LOCAL"
                    )


def test_server_fingerprint_tracks_hardware(small_server, four_gpu_server):
    assert fingerprint(small_server) != fingerprint(four_gpu_server)
    assert fingerprint(small_server) == fingerprint(small_server)
