"""Tests for the per-layer cost model."""

import pytest

from repro.graph.layer import LayerSpec, Phase


@pytest.fixture
def layer():
    return LayerSpec(
        index=3,
        name="block3",
        kind="transformer",
        param_bytes=1000,
        flops_fwd_per_sample=500.0,
        act_in_bytes_per_sample=64,
        act_out_bytes_per_sample=64,
        workspace_bytes_per_sample=16,
    )


class TestFlops:
    def test_forward_linear_in_microbatch(self, layer):
        assert layer.flops(Phase.FWD, 4) == pytest.approx(2000.0)

    def test_backward_default_ratio_is_two(self, layer):
        assert layer.flops(Phase.BWD, 4) == pytest.approx(4000.0)

    def test_custom_bwd_ratio(self, layer):
        from dataclasses import replace

        heavy = replace(layer, bwd_flops_ratio=3.0)
        assert heavy.flops(Phase.BWD, 1) == pytest.approx(1500.0)

    def test_update_independent_of_microbatch(self, layer):
        assert layer.flops(Phase.UPD, 1) == layer.flops(Phase.UPD, 64)

    def test_fixed_cost_component(self, layer):
        from dataclasses import replace

        fixed = replace(layer, flops_fwd_fixed=100.0)
        assert fixed.flops(Phase.FWD, 0) == pytest.approx(100.0)

    def test_negative_microbatch_rejected(self, layer):
        with pytest.raises(ValueError):
            layer.flops(Phase.FWD, -1)


class TestSizes:
    def test_grad_matches_params(self, layer):
        assert layer.grad_bytes == layer.param_bytes

    def test_optimizer_state_slots(self, layer):
        assert layer.optimizer_state_bytes(2) == 2000
        assert layer.optimizer_state_bytes(0) == 0

    def test_activation_scaling(self, layer):
        assert layer.act_in_bytes(3) == 192
        assert layer.act_out_bytes(5) == 320

    def test_bwd_memory_exceeds_fwd(self, layer):
        for u in (1, 4, 16):
            assert layer.bwd_memory_bytes(u) > layer.fwd_memory_bytes(u)

    def test_fwd_memory_composition(self, layer):
        assert layer.fwd_memory_bytes(2) == 1000 + 128 + 128 + 32


class TestIdentity:
    def test_with_index_renumbers(self, layer):
        assert layer.with_index(9).index == 9
