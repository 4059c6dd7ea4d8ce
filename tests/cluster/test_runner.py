"""Scripted cluster scenarios: every recovery rung and every typed exit."""

import pytest

from repro.cluster import (
    ClusterRunner,
    PartitionWindow,
    ScriptedClusterFaultPlan,
)
from repro.common.errors import ClusterFaultError
from repro.trace import TraceRecorder, check_network_reconciliation


def run_cluster(planner, fault_plan=None, iterations=3, trace=None,
                **kwargs):
    runner = ClusterRunner(planner, fault_plan, trace=trace, **kwargs)
    metrics = runner.run(iterations)
    return runner, metrics


class TestFaultFree:
    def test_pp_completes_with_network_traffic(self, make_planner):
        runner, metrics = run_cluster(make_planner(mode="pp", servers=3))
        assert metrics.mode == "cluster-pp"
        assert metrics.iteration_time > 0
        cl = metrics.cluster
        assert cl.network_bytes > 0          # activations + gradients
        assert cl.replication_bytes > 0      # buddy checkpoints
        assert cl.servers_lost == 0
        assert cl.cluster_replans == 0

    def test_dp_completes_with_allreduce_traffic(self, make_planner):
        runner, metrics = run_cluster(
            make_planner(mode="dp", servers=3, minibatch=9)
        )
        assert metrics.mode == "cluster-dp"
        cl = metrics.cluster
        assert cl.network_bytes > 0
        assert cl.replication_bytes == 0     # dp replicates by construction

    def test_describe_includes_cluster_section(self, make_planner):
        _, metrics = run_cluster(make_planner(mode="pp", servers=3))
        assert "cluster:" in metrics.describe()


class TestWholeServerLoss:
    def test_pp_loss_restores_from_replica_and_shrinks(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(crashes={1: 1})
        runner, metrics = run_cluster(planner, plan, iterations=3)
        cl = metrics.cluster
        assert cl.servers_lost == 1
        assert cl.server_crashes == 1
        assert cl.cluster_replans == 1
        assert cl.stage_shrinks == 1
        assert cl.state_restores >= 1
        # Recovery state moved over REAL network links.
        assert cl.migration_moves >= 1
        assert cl.migration_network_bytes > 0
        assert cl.migration_time > 0

    def test_dp_loss_reshards_without_migration(self, make_planner):
        planner = make_planner(mode="dp", servers=3, minibatch=9)
        plan = ScriptedClusterFaultPlan(crashes={2: 1})
        runner, metrics = run_cluster(planner, plan, iterations=3)
        cl = metrics.cluster
        assert cl.servers_lost == 1
        assert cl.cluster_replans == 1
        assert cl.migration_network_bytes == 0  # replicated by construction
        assert cl.network_bytes > 0

    def test_all_servers_lost_is_typed(self, make_planner):
        planner = make_planner(mode="pp", servers=2)
        plan = ScriptedClusterFaultPlan(crashes={0: 1, 1: 1})
        with pytest.raises(ClusterFaultError):
            run_cluster(planner, plan, iterations=3)

    def test_owner_and_buddy_dead_is_typed(self, make_planner):
        # With 3 servers, stage k replicates to the next stage's server;
        # killing two adjacent servers at once loses a stage and its buddy.
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(crashes={1: 1, 2: 1})
        with pytest.raises(ClusterFaultError) as info:
            run_cluster(planner, plan, iterations=3)
        assert "dead" in str(info.value)

    def test_replan_budget_is_typed(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(crashes={1: 1})
        with pytest.raises(ClusterFaultError) as info:
            run_cluster(planner, plan, iterations=3, max_cluster_replans=0)
        assert "budget" in str(info.value)


class TestPartitions:
    def test_finite_window_stalls_then_heals(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.0, 0.01, frozenset({0}))]
        )
        runner, metrics = run_cluster(planner, plan, iterations=2)
        cl = metrics.cluster
        assert cl.partition_stalls >= 1
        assert cl.partition_stall_time > 0
        assert cl.servers_lost == 0  # a partition is not a crash

    def test_permanent_partition_is_typed_not_a_hang(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.0, 1e9, frozenset({0}))]
        )
        with pytest.raises(ClusterFaultError) as info:
            run_cluster(planner, plan, iterations=2)
        assert info.value.entity == "net.partition"
        assert "heal" in str(info.value)

    def test_partition_of_idle_server_is_free(self, make_planner):
        # Cutting a server no live pair talks to must not stall anything.
        planner = make_planner(mode="pp", servers=2)
        plan = ScriptedClusterFaultPlan(
            partitions=[PartitionWindow(0.0, 1e9, frozenset())]
        )
        runner, metrics = run_cluster(planner, plan, iterations=2)
        assert metrics.cluster.partition_stalls == 0


class TestTracing:
    def test_traced_loss_run_reconciles_network_bytes(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        plan = ScriptedClusterFaultPlan(crashes={1: 1})
        trace = TraceRecorder()
        runner, metrics = run_cluster(planner, plan, iterations=3,
                                      trace=trace)
        # The runner ran the check itself; assert it holds externally too.
        check_network_reconciliation(trace.events, runner.network_link_bytes)
        names = {e.name for e in trace.events if e.lane == "cluster"}
        assert "s1-crash" in names
        assert "replan" in names
        assert "stage-shrink" in names
        assert any(name.endswith(".compute") for name in names)

    def test_reconciliation_catches_tampering(self, make_planner):
        planner = make_planner(mode="pp", servers=3)
        trace = TraceRecorder()
        runner, _ = run_cluster(planner, trace=trace, iterations=2)
        from repro.trace import TraceInvariantError

        forged = dict(runner.network_link_bytes)
        forged["s0.nic.up"] = forged.get("s0.nic.up", 0) + 1
        with pytest.raises(TraceInvariantError):
            check_network_reconciliation(trace.events, forged)


class TestValidation:
    def test_iterations_positive(self, make_planner):
        runner = ClusterRunner(make_planner(mode="pp", servers=2))
        with pytest.raises(ValueError):
            runner.run(0)

    def test_policy_validation(self, make_planner):
        with pytest.raises(ValueError):
            ClusterRunner(make_planner(mode="pp", servers=2),
                          max_cluster_replans=-1)
