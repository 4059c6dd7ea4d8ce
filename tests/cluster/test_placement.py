"""Cross-server placement: stage partitioning, planning, migration moves."""

import pytest

from repro.cluster import partition_stages, stage_model
from repro.common.errors import GraphError
from repro.elastic.migration import MigrationMove
from repro.models.zoo import build_model


@pytest.fixture(scope="module")
def model():
    return build_model("toy-transformer")


class TestPartitionStages:
    def test_every_layer_in_exactly_one_stage(self, model):
        n = len(model.graph)
        for n_stages in (1, 2, 3, n):
            ranges = partition_stages(model.graph, n_stages)
            assert len(ranges) == n_stages
            covered = [
                layer for lo, hi in ranges for layer in range(lo, hi)
            ]
            assert covered == list(range(n))

    def test_stages_nonempty_and_contiguous(self, model):
        ranges = partition_stages(model.graph, 3)
        assert all(hi > lo for lo, hi in ranges)
        assert all(
            ranges[k][1] == ranges[k + 1][0] for k in range(len(ranges) - 1)
        )

    def test_flop_balance_beats_worst_case(self, model):
        ranges = partition_stages(model.graph, 2)
        loads = []
        for lo, hi in ranges:
            loads.append(sum(
                layer.flops_fwd_fixed + layer.flops_fwd_per_sample
                for layer in model.graph.layers[lo:hi]
            ))
        # A prefix-balanced cut never puts everything on one stage.
        assert min(loads) > 0

    def test_bad_counts_rejected(self, model):
        with pytest.raises(GraphError):
            partition_stages(model.graph, 0)
        with pytest.raises(GraphError):
            partition_stages(model.graph, len(model.graph) + 1)


class TestStageModel:
    def test_stage0_keeps_sample_bytes(self, model):
        sub = stage_model(model, 0, 3, 0)
        assert sub.sample_bytes == model.sample_bytes
        assert len(sub.graph) == 3

    def test_later_stage_ingests_boundary_activation(self, model):
        sub = stage_model(model, 4, 7, 1)
        assert sub.sample_bytes == \
            model.graph.layers[4].act_in_bytes_per_sample
        assert "[s1]" in sub.name


class TestPlanner:
    def test_mode_validation(self, make_planner):
        with pytest.raises(ValueError):
            make_planner(mode="zero")
        with pytest.raises(ValueError):
            make_planner(minibatch=0)

    def test_pp_assigns_one_stage_per_live_server(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = planner.plan_for((0, 1, 2))
        assert plan.mode == "pp"
        assert plan.servers == [0, 1, 2]
        # Stage ranges tile the full model.
        assert plan.stages[0].layers[0] == 0
        assert plan.stages[-1].layers[1] == len(planner.model.graph)
        assert plan.stages[-1].boundary_out_bytes == 0
        assert all(
            s.boundary_out_bytes > 0 for s in plan.stages[:-1]
        )

    def test_pp_replans_on_survivors(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        shrunk = planner.plan_for((0, 2))
        assert shrunk.servers == [0, 2]
        assert len(shrunk.stages) == 2

    def test_plan_memoized(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        assert planner.plan_for((2, 0)) is planner.plan_for((0, 2))

    def test_dp_shards_the_minibatch(self, make_planner):
        planner = make_planner(mode="dp", servers=3, minibatch=8)
        plan = planner.plan_for((0, 1, 2))
        assert plan.mode == "dp"
        assert sum(s.samples for s in plan.stages) == 8
        assert all(
            s.layers == (0, len(planner.model.graph)) for s in plan.stages
        )

    def test_empty_live_set_rejected(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        with pytest.raises(GraphError):
            planner.plan_for(())
        with pytest.raises(GraphError):
            planner.plan_for((0, 5))


class TestMigrationMoves:
    def test_dp_needs_no_migration(self, make_planner):
        planner = make_planner(mode="dp", servers=3, minibatch=8)
        old = planner.plan_for((0, 1, 2))
        new = planner.plan_for((0, 1))
        moves, restores, lost = planner.migration_moves(
            old, new, dead={2}, replicas={}
        )
        assert moves == [] and restores == 0 and lost == []

    def test_pp_shrink_moves_overlap_state(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        old = planner.plan_for((0, 1, 2))
        new = planner.plan_for((0, 1))
        replicas = {0: 1, 1: 2, 2: 0}  # stage k's buddy
        moves, restores, lost = planner.migration_moves(
            old, new, dead={2}, replicas=replicas
        )
        assert lost == []
        # Dead s2's stage restores from its buddy s0.
        assert restores >= 1
        assert all(isinstance(m, MigrationMove) for m in moves)
        assert all(m.nbytes > 0 for m in moves)
        assert all(m.src != m.dst for m in moves)

    def test_dead_owner_without_replica_is_lost(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        old = planner.plan_for((0, 1, 2))
        new = planner.plan_for((0, 1))
        moves, restores, lost = planner.migration_moves(
            old, new, dead={2}, replicas={}
        )
        assert any(reason == "no-replica" for _, reason in lost)

    def test_dead_owner_and_dead_buddy_is_unrecoverable(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        old = planner.plan_for((0, 1, 2))
        new = planner.plan_for((0,))
        replicas = {0: 1, 1: 2, 2: 0}
        moves, restores, lost = planner.migration_moves(
            old, new, dead={1, 2}, replicas=replicas
        )
        assert any(reason == "replica-dead" for _, reason in lost)
