"""State migration: ownership, move planning, and simulated execution.

Migration cost must reflect how much the packing actually changed: same
owner -> no move, live owner -> p2p (or host-staged relay), dead owner
-> host checkpoint restore.  The executor spends real virtual time, so
concurrent moves contend on shared hops.
"""

from repro.core.types import TaskKind, total_bytes
from repro.elastic import (
    ElasticReplanner,
    MigrationMove,
    layer_ownership,
    plan_migration,
    rebind_graph,
)
from repro.runtime.migration import MigrationExecutor


class TestLayerOwnership:
    def test_every_layer_owned(self, toy_pp):
        plan = toy_pp.plan()
        owners = layer_ownership(plan.graph)
        assert set(owners) == set(range(len(plan.profiles.layers)))

    def test_owner_is_update_device(self, toy_pp):
        graph = toy_pp.plan().graph
        owners = layer_ownership(graph)
        for task in graph.tasks:
            if task.kind is TaskKind.UPD:
                for layer in task.layers:
                    assert owners[layer] == (task.device, task.on_cpu)


class TestPlanMigration:
    def test_unchanged_packing_moves_nothing(self, toy_pp):
        plan = toy_pp.plan()
        assert plan_migration(plan.graph, plan.graph, plan.profiles) == []

    def test_dead_owner_restores_from_host(self, toy_pp):
        # Same packing, but the owner died: its state cannot be sourced
        # p2p, so every one of its layers restores from the checkpoint.
        plan = toy_pp.plan()
        owners = layer_ownership(plan.graph)
        victim = sorted({dev for dev, _cpu in owners.values()})[0]
        moves = plan_migration(plan.graph, plan.graph, plan.profiles,
                               lost=[victim])
        assert moves
        assert all(m.src is None for m in moves)
        assert all(m.dst is not None for m in moves)
        assert total_bytes(moves) > 0

    def test_live_owner_moves_device_to_device(self, toy_pp):
        plan = toy_pp.plan()
        # gpu1's tasks (and state) move to the spare gpu2; gpu1 is alive,
        # so its state travels directly, never via the host checkpoint.
        moved = rebind_graph(plan.graph, {1: 2}, n_devices=4)
        moves = plan_migration(plan.graph, moved, plan.profiles)
        assert moves
        assert all(m.src == 1 and m.dst == 2 for m in moves
                   if m.dst is not None)
        assert total_bytes(moves) > 0

    def test_moves_aggregated_per_endpoint_pair(self, toy_pp):
        plan = toy_pp.plan()
        moved = rebind_graph(plan.graph, {1: 2}, n_devices=4)
        moves = plan_migration(plan.graph, moved, plan.profiles)
        endpoints = [(m.src, m.dst) for m in moves]
        assert len(endpoints) == len(set(endpoints))

    def test_replan_migration_accounts_weights_and_optimizer(self, toy_pp):
        # Kill gpu1: the 1-GPU re-plan re-owns its layers on gpu0, and
        # both W and K bytes of the dead device's layers must move.
        plan = toy_pp.plan()
        eplan = ElasticReplanner(toy_pp).replan([0])
        moves = plan_migration(plan.graph, eplan.graph, plan.profiles,
                               lost=[1])
        restored = sum(m.nbytes for m in moves if m.src is None)
        old = layer_ownership(plan.graph)
        dead_w = sum(
            plan.profiles.layers[layer].param_bytes
            for layer, (dev, _cpu) in old.items() if dev == 1
        )
        assert dead_w > 0
        assert restored >= dead_w  # at least the weights; K rides too

    def test_describe(self):
        move = MigrationMove(src=None, dst=2, nbytes=2**20, label="migrate")
        assert "host->gpu2" in move.describe()
        assert "1.00 MiB" in move.describe()


class TestMigrationExecutor:
    def _one_move(self, nbytes=2**24):
        return [MigrationMove(src=0, dst=1, nbytes=nbytes, label="m")]

    def test_empty_phase_is_free(self, toy_pp):
        report = MigrationExecutor(toy_pp.server).run([])
        assert report.time == 0.0
        assert report.n_moves == 0
        assert report.p2p_bytes == report.host_bytes == 0

    def test_p2p_route(self, toy_pp):
        report = MigrationExecutor(toy_pp.server, p2p=True).run(
            self._one_move())
        assert report.time > 0
        assert report.p2p_bytes == 2**24
        assert report.host_bytes == 0
        assert report.n_moves == 1

    def test_no_p2p_relays_through_host_both_legs(self, toy_pp):
        report = MigrationExecutor(toy_pp.server, p2p=False).run(
            self._one_move())
        assert report.p2p_bytes == 0
        assert report.host_bytes == 2 * 2**24
        slower = MigrationExecutor(toy_pp.server, p2p=True).run(
            self._one_move())
        assert report.time > slower.time

    def test_host_restore_counts_host_bytes(self, toy_pp):
        moves = [MigrationMove(src=None, dst=0, nbytes=2**24, label="r")]
        report = MigrationExecutor(toy_pp.server).run(moves)
        assert report.host_bytes == 2**24
        assert report.p2p_bytes == 0
        assert report.time > 0

    def test_concurrent_restores_contend(self, toy_pp):
        # Two survivors restoring through the shared host link take
        # longer than one: migration time is a makespan under contention,
        # not a free teleport.
        one = MigrationExecutor(toy_pp.server).run(
            [MigrationMove(src=None, dst=0, nbytes=2**24, label="a")])
        two = MigrationExecutor(toy_pp.server).run([
            MigrationMove(src=None, dst=0, nbytes=2**24, label="a"),
            MigrationMove(src=None, dst=1, nbytes=2**24, label="b"),
        ])
        assert two.time > one.time

    def test_more_bytes_take_longer(self, toy_pp):
        small = MigrationExecutor(toy_pp.server).run(self._one_move(2**20))
        large = MigrationExecutor(toy_pp.server).run(self._one_move(2**26))
        assert large.time > small.time
