"""Tests for task-graph generation (Algorithm 3)."""

import pytest

from repro.common.errors import SchedulingError
from repro.core.config import Configuration
from repro.core.packing import balanced_time_packing
from repro.core.taskgraph import HarmonyGraphBuilder, ScheduleOptions, mb_dependency
from repro.core.types import Channel, TaskKind, TensorKind
from repro.graph.layer import Phase


@pytest.fixture
def toy_config(toy_profiles):
    # Tight enough that the 10-layer toy transformer needs several packs.
    capacity = 1_300_000
    packs_b = balanced_time_packing(Phase.BWD, 1, toy_profiles, capacity)
    packs_f = balanced_time_packing(
        Phase.FWD, 2, toy_profiles, capacity, backward_packs=packs_b
    )
    assert len(packs_b) >= 3, "fixture should produce a multi-pack config"
    return Configuration(u_f=2, packs_f=packs_f, u_b=1, packs_b=packs_b)


def build(profiles, config, mode="pp", n_gpus=2, minibatch=8, **kwargs):
    options = ScheduleOptions(mode=mode, **kwargs)
    return HarmonyGraphBuilder(profiles, n_gpus, minibatch, options).build(config)


class TestMbDependency:
    def test_equal_sizes_identity(self):
        assert mb_dependency((2, 2, 2), (2, 2, 2)) == [0, 1, 2]

    def test_coarse_to_fine(self):
        assert mb_dependency((4, 4), (2, 2, 2, 2)) == [0, 0, 1, 1]

    def test_fine_to_coarse(self):
        assert mb_dependency((2, 2, 2, 2), (4, 4)) == [1, 3]

    def test_ragged(self):
        assert mb_dependency((3, 3, 2), (4, 4)) == [1, 2]

    def test_mismatch_rejected(self):
        with pytest.raises(SchedulingError):
            mb_dependency((2, 2), (3, 3))


class TestWrapAroundPp:
    def test_kinds_in_order(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config)
        kinds = [t.kind for t in graph.tasks]
        first_bwd = kinds.index(TaskKind.BWD)
        assert all(k is TaskKind.FWD for k in kinds[:first_bwd])
        assert TaskKind.UPD in kinds

    def test_wrap_around_binding(self, toy_profiles, toy_config):
        """P_FB = P_F + reverse(P_B); pack i -> GPU (i mod N)."""
        graph = build(toy_profiles, toy_config, n_gpus=2)
        compute = [t for t in graph.tasks if t.kind is not TaskKind.UPD]
        for i, task in enumerate(compute):
            assert task.device == i % 2, task.label

    def test_jit_fuses_last_pack(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config)
        fused = [t for t in graph.tasks if t.fused]
        assert len(fused) == 1
        pack = toy_config.packs_b[-1]
        assert (fused[0].first_layer, fused[0].last_layer) == (
            pack.first, pack.last)

    def test_jit_off_no_fusion_and_late_updates(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, jit=False)
        assert not any(t.fused for t in graph.tasks)
        # All updates come after all backward tasks.
        last_bwd = max(t.tid for t in graph.tasks if t.kind is TaskKind.BWD)
        first_upd = min(t.tid for t in graph.tasks if t.kind is TaskKind.UPD)
        assert first_upd > last_bwd

    def test_one_update_per_backward_pack(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config)
        updates = graph.of_kind(TaskKind.UPD)
        assert len(updates) == len(toy_config.packs_b)

    def test_grouping_gives_one_task_per_pack(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, minibatch=8)
        fwd = graph.of_kind(TaskKind.FWD)
        assert all(len(t.microbatches) == 8 // toy_config.u_f for t in fwd)

    def test_grouping_off_multiplies_tasks_and_weight_traffic(
        self, toy_profiles, toy_config
    ):
        grouped = build(toy_profiles, toy_config, minibatch=8)
        ungrouped = build(toy_profiles, toy_config, minibatch=8, grouping=False)
        assert len(ungrouped) > len(grouped)

        def weight_in(graph):
            return sum(
                m.nbytes for t in graph.tasks for d, m in t.moves()
                if d == "in" and m.tensor is TensorKind.W
            )

        assert weight_in(ungrouped) > 2 * weight_in(grouped)

    def test_p2p_used_for_chain(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config)
        assert graph.p2p_bytes() > 0

    def test_p2p_off_routes_via_host(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, p2p=False)
        assert graph.p2p_bytes() == 0
        msg_moves = [
            m for t in graph.tasks for _d, m in t.moves()
            if m.channel is Channel.MSG and m.src_task is not None
        ]
        assert msg_moves

    def test_offload_keeps_optimizer_state_off_pcie(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, offload_optimizer=True)
        k_moves = [
            m for t in graph.tasks for _d, m in t.moves()
            if m.tensor is TensorKind.K and m.nbytes > 0
        ]
        assert not k_moves
        assert all(t.on_cpu for t in graph.of_kind(TaskKind.UPD))

    def test_gpu_update_moves_state(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, offload_optimizer=False)
        updates = graph.of_kind(TaskKind.UPD)
        assert all(not t.on_cpu for t in updates)
        k_in = sum(
            m.nbytes for t in updates for d, m in t.moves()
            if d == "in" and m.tensor is TensorKind.K
        )
        assert k_in > 0

    def test_checkpoints_stashed_for_interior_boundaries(
        self, toy_profiles, toy_config
    ):
        graph = build(toy_profiles, toy_config)
        ckpt_out = sum(
            m.nbytes for t in graph.tasks for d, m in t.moves()
            if d == "out" and m.tensor is TensorKind.CKPT
        )
        # One checkpoint per interior backward boundary (minus the fused
        # pack), per sample.
        interior = [p for p in toy_config.packs_b[:-1] if p.first != 0]
        expected = sum(
            toy_profiles.boundary_in_bytes(p, 1) * 8 for p in interior
        )
        assert ckpt_out == expected

    def test_validate_passes(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config)
        graph.validate()


class TestHarmonyDp:
    def test_each_gpu_runs_all_packs(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, mode="dp", minibatch=8)
        for gpu in range(2):
            fwd_layers = {
                (t.first_layer, t.last_layer)
                for t in graph.tasks
                if t.device == gpu and t.kind is TaskKind.FWD
            }
            assert len(fwd_layers) >= len(toy_config.packs_f) - 1

    def test_minibatch_must_divide(self, toy_profiles, toy_config):
        with pytest.raises(SchedulingError):
            build(toy_profiles, toy_config, mode="dp", minibatch=7)

    def test_dp_weight_traffic_is_n_times_pp(self, toy_profiles, toy_config):
        pp = build(toy_profiles, toy_config, mode="pp", minibatch=8)
        dp = build(toy_profiles, toy_config, mode="dp", minibatch=8)

        def weight_in(graph):
            return sum(
                m.nbytes for t in graph.tasks for d, m in t.moves()
                if d == "in" and m.tensor is TensorKind.W and m.channel.via_host
            )

        assert weight_in(dp) == pytest.approx(2 * weight_in(pp), rel=0.01)

    def test_single_update_per_pack_across_gpus(self, toy_profiles, toy_config):
        graph = build(toy_profiles, toy_config, mode="dp", minibatch=8)
        updates = graph.of_kind(TaskKind.UPD)
        assert len(updates) == len(toy_config.packs_b)
        # Each update depends on every GPU's backward task.
        for task in updates:
            deps = [m.src_task for m in task.ins if m.src_task is not None]
            devices = {graph[d].device for d in deps}
            assert devices == {0, 1}

    def test_unknown_mode_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduleOptions(mode="zigzag")
