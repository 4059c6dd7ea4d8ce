"""Unit tests for the logical/physical device vocabulary."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.fingerprint import _canon, fingerprint
from repro.core.types import Channel
from repro.fleet import FleetPlacer, fleet_of
from repro.virt import (
    DeviceBinding,
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
        # 0.75 is exactly representable; the integer ratio keeps the
        # product exact instead of round-tripping through float.
        assert PhysicalDevice(0, memory_scale=0.75).memory_bytes(base) \
            == base * 3 // 4

    @settings(max_examples=500, deadline=None)
    @given(scale=st.one_of(
               st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False, allow_nan=False),
               st.sampled_from((1 / 3, 5 / 12, 0.3, 0.1, 0.5, 0.25, 1.0))),
           base=st.integers(0, 2**60))
    def test_memory_bytes_matches_the_fraction_product(self, scale, base):
        """The integer ratio gives the bytes ``int(Fraction(scale) *
        base)`` does, for any positive finite scale: the placer's
        dyadic and non-dyadic shares, subnormals and huge scales."""
        assert PhysicalDevice(0, memory_scale=scale).memory_bytes(base) \
            == int(Fraction(scale) * base)


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
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == VirtualTopology.uniform(2).fingerprint


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
        # Packing onto a larger uniform topology keeps every logical id:
        # the service's stale-plan rung widens a small plan this way.
        b = DeviceBinding.pack(2, VirtualTopology.uniform(4))
        assert b.assignment == (0, 1) and b.n_physical == 4
        assert b.injective and not b.identity_assignment

    def test_from_mapping(self):
        b = DeviceBinding.from_mapping({0: 0, 1: 2, 2: 3}, 3,
                                       VirtualTopology.uniform(4))
        assert b.assignment == (0, 2, 3)
        assert b.injective and b.n_physical == 4

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError):
            DeviceBinding(VirtualTopology.uniform(2), (0, 2))

    def test_fingerprint_tracks_assignment_and_topology(self):
        ident = DeviceBinding.identity(2)
        packed = DeviceBinding.pack(2, VirtualTopology.uniform(1))
        hetero = DeviceBinding.heterogeneous([1.0, 1.5])
        prints = {b.fingerprint for b in (ident, packed, hetero)}
        assert len(prints) == 3
        assert ident.fingerprint == DeviceBinding.identity(2).fingerprint


class TestCachedFingerprint:
    """``fingerprint`` is a cached property: computed once per object,
    equal to a fresh digest, and invisible to equality, hashing and the
    canonical text of anything that contains the object."""

    BINDINGS = (
        DeviceBinding.identity(2),
        DeviceBinding.pack(4, VirtualTopology.uniform(2)),
        DeviceBinding.heterogeneous([1.5, 0.75], [1.0, 0.5]),
    )

    @pytest.mark.parametrize("binding", BINDINGS)
    def test_cached_value_is_a_fresh_digest(self, binding):
        fresh = fingerprint(binding.assignment, binding.topology.devices)
        assert binding.fingerprint == fresh
        assert binding.fingerprint is binding.fingerprint
        topology = binding.topology
        assert topology.fingerprint == fingerprint(topology.devices)

    @pytest.mark.parametrize("binding", BINDINGS)
    def test_cache_is_no_field_and_changes_no_identity(self, binding):
        names = {f.name for f in dataclasses.fields(DeviceBinding)}
        assert names == {"topology", "assignment"}
        assert {f.name for f in dataclasses.fields(VirtualTopology)} \
            == {"devices"}
        twin = DeviceBinding(binding.topology, binding.assignment)
        before = (hash(twin), _canon(twin), _canon((twin, 7)),
                  fingerprint(twin))
        assert "fingerprint" not in vars(twin)
        assert twin.fingerprint == binding.fingerprint
        assert "fingerprint" in vars(twin)
        assert twin.topology.fingerprint
        after = (hash(twin), _canon(twin), _canon((twin, 7)),
                 fingerprint(twin))
        assert after == before
        fresh = DeviceBinding(binding.topology, binding.assignment)
        assert twin == fresh and hash(twin) == hash(fresh)

    def test_replace_gives_a_fresh_digest(self):
        binding = DeviceBinding.pack(4, VirtualTopology.uniform(2))
        old = binding.fingerprint
        moved = dataclasses.replace(binding, assignment=(0, 0, 1, 1))
        assert moved.fingerprint != old
        assert moved.fingerprint == fingerprint((0, 0, 1, 1),
                                                binding.topology.devices)
        same = dataclasses.replace(binding)
        assert same is not binding and same.fingerprint == old
        scaled = dataclasses.replace(
            binding.topology,
            devices=tuple(dataclasses.replace(d, memory_scale=0.5)
                          for d in binding.topology.devices),
        )
        assert scaled.fingerprint != binding.topology.fingerprint
        rebound = dataclasses.replace(binding, topology=scaled)
        assert rebound.fingerprint not in (old, moved.fingerprint)

    def test_reservations_share_one_binding_per_shape(self):
        placer = FleetPlacer(fleet_of(2, 4))
        whole = [placer.require(f"w{i}", 2) for i in range(2)]
        half = [placer.require(f"h{i}", 2, share=Fraction(1, 2))
                for i in range(2)]
        quarter = placer.require("q", 2, share=Fraction(1, 4))
        assert whole[0].devices != whole[1].devices
        assert whole[0].binding() is whole[1].binding()
        assert half[0].binding() is half[1].binding()
        bindings = [whole[0].binding(), half[0].binding(),
                    quarter.binding()]
        assert len({id(b) for b in bindings}) == 3
        assert len({b.fingerprint for b in bindings}) == 3
        assert [b.topology.devices[0].memory_scale for b in bindings] \
            == [1.0, 0.5, 0.25]


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
