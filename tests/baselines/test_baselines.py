"""Tests for the baseline planners (on the toy model for speed)."""

import pytest

from repro.baselines.dp_swap import DpSwapPlanner, layer_chunks
from repro.baselines.gpipe_swap import GpipeSwapPlanner, compute_balanced_stages
from repro.baselines.pipedream_2bw import PipeDream2BWPlanner, one_f_one_b_order
from repro.baselines.zero_infinity import ZeroInfinityPlanner
from repro.common.errors import SchedulingError
from repro.core.decomposer import Decomposer
from repro.core.profiler import Profiler
from repro.core.types import TaskKind, TensorKind
from repro.experiments.common import server_for
from repro.models.zoo import build_model


@pytest.fixture
def args(toy_model, small_server):
    return dict(model=toy_model, server=small_server, minibatch=8)


class TestDpSwap:
    def test_plan_and_run(self, args):
        planner = DpSwapPlanner(**args, microbatch=2)
        plan = planner.plan()
        metrics = planner.run(plan)
        assert metrics.iteration_time > 0
        assert plan.graph.pageable_swaps

    def test_replicas_have_identical_swap(self, args):
        plan = DpSwapPlanner(**args, microbatch=2).plan()
        per_gpu = plan.graph.swap_bytes_by_gpu()
        # Symmetric replicas (the final allreduce row differs only by p2p).
        assert per_gpu[0] == per_gpu[1]

    def test_swap_grows_with_gpus(self, toy_model, small_server,
                                  four_gpu_server):
        two = DpSwapPlanner(toy_model, small_server, 8, microbatch=2).plan()
        four = DpSwapPlanner(toy_model, four_gpu_server, 8, microbatch=2).plan()
        assert four.graph.global_swap_bytes() > 1.5 * two.graph.global_swap_bytes()

    def test_indivisible_minibatch_rejected(self, toy_model, small_server):
        with pytest.raises(ValueError):
            DpSwapPlanner(toy_model, small_server, minibatch=7).plan()

    def test_layer_chunks_cover_model(self, toy_profiles):
        chunks = layer_chunks(toy_profiles, max_bytes=500_000)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == len(toy_profiles) - 1
        for (f1, l1), (f2, _l2) in zip(chunks, chunks[1:]):
            assert f2 == l1 + 1


class TestGpipeSwap:
    def test_stages_balance_compute(self, toy_profiles):
        stages = compute_balanced_stages(toy_profiles, 2)
        assert len(stages) == 2
        assert stages[0].first == 0
        assert stages[-1].last == len(toy_profiles) - 1

    @pytest.mark.parametrize("model", ["toy-transformer", "tiny-cnn"])
    def test_every_stage_count_up_to_one_layer_each(self, model):
        profiles = Profiler(server_for(4).gpu).profile(
            Decomposer(seed=0).decompose(build_model(model))
        )
        n_layers = len(profiles)
        for n_stages in range(1, n_layers + 1):
            stages = compute_balanced_stages(profiles, n_stages)
            assert len(stages) == n_stages
            assert stages[0].first == 0
            assert stages[-1].last == n_layers - 1
            for left, right in zip(stages, stages[1:]):
                assert right.first == left.last + 1
        with pytest.raises(SchedulingError,
                           match=rf"{n_layers} layers into {n_layers + 1} "):
            compute_balanced_stages(profiles, n_layers + 1)

    def test_forward_then_backward(self, args):
        plan = GpipeSwapPlanner(**args).plan()
        kinds = [t.kind for t in plan.graph.tasks if t.kind is not TaskKind.UPD]
        first_bwd = kinds.index(TaskKind.BWD)
        assert all(k is TaskKind.FWD for k in kinds[:first_bwd])

    def test_stage_pinning(self, args):
        plan = GpipeSwapPlanner(**args).plan()
        for task in plan.graph.tasks:
            if task.kind is TaskKind.UPD:
                continue
            # Early binding: stage id == device, constant layer range.
            assert task.device in (0, 1)

    def test_recompute_reduces_swap(self, args):
        base = GpipeSwapPlanner(**args).plan()
        remat = GpipeSwapPlanner(**args, recompute=True).plan()
        assert remat.graph.global_swap_bytes() <= base.graph.global_swap_bytes()

    def test_interstage_p2p(self, args):
        plan = GpipeSwapPlanner(**args).plan()
        assert plan.graph.p2p_bytes() > 0


class TestPipeDream2BW:
    def test_1f1b_order_shape(self):
        order = one_f_one_b_order(n_stages=4, stage=0, n_mbs=6)
        assert order[:4] == [("F", 0), ("F", 1), ("F", 2), ("F", 3)]
        assert order.count(("B", 0)) == 1
        assert len(order) == 12

    def test_last_stage_alternates_immediately(self):
        order = one_f_one_b_order(n_stages=4, stage=3, n_mbs=4)
        assert order[0] == ("F", 0)
        assert order[1] == ("B", 0)

    def test_plan_runs(self, args):
        planner = PipeDream2BWPlanner(**args)
        metrics = planner.run()
        assert metrics.iteration_time > 0

    def test_double_weight_version_host_state(self, args):
        single = GpipeSwapPlanner(**args).plan()
        double = PipeDream2BWPlanner(**args).plan()
        assert double.host_state_bytes > single.host_state_bytes


class TestZeroInfinity:
    def test_refetches_per_microbatch(self, args):
        zero = ZeroInfinityPlanner(**args, u_f=2, u_b=2).plan()
        w_in = sum(
            m.nbytes for t in zero.graph.tasks for d, m in t.moves()
            if d == "in" and m.tensor is TensorKind.W
        )
        # 2 GPUs x (fwd + bwd) x 2 microbatches each = 8x the weights.
        assert w_in == pytest.approx(8 * zero.profiles.total_param_bytes,
                                     rel=0.01)

    def test_cpu_optimizer(self, args):
        plan = ZeroInfinityPlanner(**args, u_f=2, u_b=2).plan()
        updates = [t for t in plan.graph.tasks if t.kind is TaskKind.UPD]
        assert updates and all(t.on_cpu for t in updates)

    def test_host_overhead_above_harmony(self, args, toy_model):
        plan = ZeroInfinityPlanner(**args, u_f=2, u_b=2).plan()
        assert plan.host_state_bytes > toy_model.model_state_bytes

    def test_pinned_engine_not_pageable(self, args):
        plan = ZeroInfinityPlanner(**args, u_f=2, u_b=2).plan()
        assert not plan.graph.pageable_swaps
