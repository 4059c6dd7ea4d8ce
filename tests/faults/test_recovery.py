"""Recovery mechanisms, driven by scripted (fully explicit) fault plans.

Each test pins one escalation rung: transfer retry, p2p->host-staged
fallback, compute crash retry, iteration checkpoint/restart, and
late-binding re-bind -- and checks both the outcome and the recovery
accounting.
"""

import pytest

from repro.common.backoff import DEFAULT_TRANSFER_RETRIES
from repro.common.errors import (
    GpuDegradedError,
    SimulationError,
    UnrecoveredFaultError,
)
from repro.core.types import Channel
from repro.faults import (
    Crash,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    ScriptedFaultPlan,
    check_byte_invariants,
    rebind_graph,
)
from repro.experiments.common import server_for

# Moves in the session-scoped toy PP plan (see conftest): task 1 pulls
# activation chunks 'XL3-4#<i>' over p2p from task 0; task 0 reads the
# sample batch as swap chunks 'input#<i>'; task 2 is the first backward.
P2P_CHUNK = "XL3-4#0"
SWAP_CHUNK = "input#0"
BWD_TID = 2


class TestTransferRetry:
    def test_transient_p2p_fault_retried(self, toy_harmony, make_runner):
        plan = ScriptedFaultPlan(transfer_faults={(P2P_CHUNK, 0): 0.5})
        metrics = make_runner(plan).run(toy_harmony.plan().graph)
        assert metrics.recovery.transfer_retries == 1
        assert metrics.recovery.p2p_fallbacks == 0
        assert metrics.recovery.faults_injected == 1

    def test_transient_swap_fault_retried(self, toy_harmony, make_runner):
        plan = ScriptedFaultPlan(transfer_faults={(SWAP_CHUNK, 0): 0.5})
        metrics = make_runner(plan).run(toy_harmony.plan().graph)
        assert metrics.recovery.transfer_retries == 1

    def test_retry_costs_time(self, toy_harmony, make_runner):
        graph = toy_harmony.plan().graph
        clean = make_runner(ScriptedFaultPlan()).run(graph)
        faulted = make_runner(
            ScriptedFaultPlan(transfer_faults={(SWAP_CHUNK, 0): 0.9})
        ).run(graph)
        assert faulted.iteration_time > clean.iteration_time


class TestP2pFallback:
    def _exhausting_plan(self):
        return ScriptedFaultPlan(transfer_faults={
            (P2P_CHUNK, attempt): 0.5
            for attempt in range(DEFAULT_TRANSFER_RETRIES + 1)
        })

    def test_exhausted_p2p_degrades_to_host_staging(self, toy_harmony,
                                                    make_runner):
        graph = toy_harmony.plan().graph
        metrics = make_runner(self._exhausting_plan()).run(graph)
        assert metrics.recovery.p2p_fallbacks == 1
        assert metrics.recovery.fallback_bytes > 0
        assert metrics.recovery.transfer_retries == DEFAULT_TRANSFER_RETRIES
        # Re-accounting: the rescued bytes left the p2p ledger and entered
        # the swap ledger on both endpoints (the runner audits the same
        # equations internally; assert them explicitly here).
        assert metrics.global_p2p_bytes + metrics.recovery.fallback_bytes \
            == graph.p2p_bytes()
        assert metrics.global_swap_bytes == graph.global_swap_bytes() \
            + 2 * metrics.recovery.fallback_bytes

    def test_fallback_disabled_is_fatal(self, toy_harmony, make_runner):
        policy = RecoveryPolicy(p2p_fallback=False, max_iteration_restarts=0)
        runner = make_runner(self._exhausting_plan(), policy=policy)
        with pytest.raises(UnrecoveredFaultError) as err:
            runner.run(toy_harmony.plan().graph)
        assert "gpu" in str(err.value)  # names the faulted stream entity


class TestCrashRetry:
    def test_crash_retried_from_resident_inputs(self, toy_harmony,
                                                make_runner):
        plan = ScriptedFaultPlan(crashes={(BWD_TID, 0, 0): 0.5})
        metrics = make_runner(plan).run(toy_harmony.plan().graph)
        assert metrics.recovery.compute_retries == 1
        assert metrics.recovery.restarts == 0

    def test_crash_wastes_compute_time(self, toy_harmony, make_runner):
        graph = toy_harmony.plan().graph
        clean = make_runner(ScriptedFaultPlan()).run(graph)
        crashed = make_runner(
            ScriptedFaultPlan(crashes={(BWD_TID, 0, 0): 0.9})
        ).run(graph)
        clean_busy = sum(g.compute_busy for g in clean.gpus)
        crashed_busy = sum(g.compute_busy for g in crashed.gpus)
        assert crashed_busy > clean_busy


class TestCheckpointRestart:
    class _FirstAttemptCrashPlan(FaultPlan):
        """Crashes one task on restart attempt 0 only -- the restarted
        iteration (fresh context) runs clean, so recovery succeeds."""

        def __init__(self):
            super().__init__(FaultSpec(task_crash_rate=1.0), seed=0)

        def task_crash(self, tid, mb_index, attempt, context=()):
            if tid == BWD_TID and mb_index == 0 and context[1] == 0:
                return Crash(fraction=0.5)
            return None

        def transfer_fault(self, entity, label, attempt, context=()):
            return None

        def gpu_slowdown(self, device):
            return 1.0, False

        def link_degradation(self, link_name, epoch, context=()):
            return 1.0

        def host_pressure(self, epoch, context=()):
            return 1.0

    def test_fatal_crash_restarts_iteration(self, toy_harmony, make_runner):
        policy = RecoveryPolicy(max_task_retries=0)
        runner = make_runner(self._FirstAttemptCrashPlan(), policy=policy)
        metrics = runner.run(toy_harmony.plan().graph)
        assert metrics.recovery.restarts == 1
        assert metrics.recovery.faults_fatal == 1

    def test_restarts_exhausted_raises_typed_error(self, toy_harmony,
                                                   make_runner):
        policy = RecoveryPolicy(max_task_retries=0, max_iteration_restarts=2)
        # Scripted plans ignore restart context: the same crash recurs on
        # every attempt, so every restart is doomed.
        plan = ScriptedFaultPlan(crashes={(BWD_TID, 0, 0): 0.5})
        runner = make_runner(plan, policy=policy)
        with pytest.raises(UnrecoveredFaultError) as err:
            runner.run(toy_harmony.plan().graph)
        assert err.value.entity == f"t{BWD_TID}"
        assert "3 attempt(s)" in str(err.value)


class TestRebind:
    def test_persistent_straggler_rebound_to_spare(self, toy_harmony,
                                                   make_runner):
        # The toy plan binds 2 devices; on a 4-GPU server gpu2/gpu3 are
        # healthy spares for the persistently slow gpu0.
        plan = ScriptedFaultPlan(slowdowns={0: (2.0, True)})
        runner = make_runner(plan, spec=server_for(4))
        metrics = runner.run(toy_harmony.plan().graph, iterations=2)
        assert metrics.recovery.rebinds == 1

    def test_transient_straggler_not_rebound(self, toy_harmony, make_runner):
        plan = ScriptedFaultPlan(slowdowns={0: (2.0, False)})
        runner = make_runner(plan, spec=server_for(4))
        metrics = runner.run(toy_harmony.plan().graph, iterations=2)
        assert metrics.recovery.rebinds == 0

    def test_below_threshold_not_rebound(self, toy_harmony, make_runner):
        plan = ScriptedFaultPlan(slowdowns={0: (1.2, True)})
        runner = make_runner(plan, spec=server_for(4))
        metrics = runner.run(toy_harmony.plan().graph, iterations=2)
        assert metrics.recovery.rebinds == 0

    def test_no_spare_tolerated(self, toy_harmony, make_runner):
        # Both devices of the 2-GPU server are in use: degradation is
        # tolerated (slower, but the run completes).
        plan = ScriptedFaultPlan(slowdowns={0: (2.0, True)})
        metrics = make_runner(plan).run(toy_harmony.plan().graph,
                                        iterations=2)
        assert metrics.recovery.rebinds == 0

    def test_rebind_disabled_by_policy(self, toy_harmony, make_runner):
        plan = ScriptedFaultPlan(slowdowns={0: (2.0, True)})
        runner = make_runner(plan, spec=server_for(4),
                             policy=RecoveryPolicy(rebind=False))
        metrics = runner.run(toy_harmony.plan().graph, iterations=2)
        assert metrics.recovery.rebinds == 0

    def test_two_sequential_degradations_both_rebound(self, toy_harmony,
                                                      make_runner):
        # Regression for the old single-rebind limit: gpu0 sickens at
        # iteration 1 and is rebound to a spare; gpu1 sickens at
        # iteration 3 and must be rescued exactly the same way -- rebind
        # repeats at every boundary as long as spares remain.
        plan = ScriptedFaultPlan(slowdowns_at={
            0: (1, 3.0, True),
            1: (3, 3.0, True),
        })
        runner = make_runner(plan, spec=server_for(4))
        metrics = runner.run(toy_harmony.plan().graph, iterations=5)
        assert metrics.recovery.rebinds == 2

    def test_straggler_slows_the_iteration(self, toy_harmony, make_runner):
        graph = toy_harmony.plan().graph
        clean = make_runner(ScriptedFaultPlan()).run(graph)
        slow = make_runner(
            ScriptedFaultPlan(slowdowns={0: (4.0, False)})
        ).run(graph)
        assert slow.iteration_time > clean.iteration_time


class TestRebindGraph:
    def test_collapsed_p2p_becomes_local(self, toy_harmony):
        graph = toy_harmony.plan().graph
        assert graph.p2p_bytes() > 0
        merged = rebind_graph(graph, {1: 0})
        assert merged.p2p_bytes() == 0
        assert all(task.device == 0 for task in merged.tasks)
        for task in merged.tasks:
            for _, move in task.moves():
                assert move.channel is not Channel.P2P
        merged.validate()  # the analyzer accepts the transformed schedule

    def test_rebind_to_spare_keeps_p2p(self, toy_harmony):
        graph = toy_harmony.plan().graph
        moved = rebind_graph(graph, {0: 2}, n_devices=4)
        assert moved.p2p_bytes() == graph.p2p_bytes()
        assert {t.device for t in moved.tasks} == {1, 2}
        moved.validate()

    def test_rebind_onto_degraded_target_rejected(self, toy_harmony):
        graph = toy_harmony.plan().graph
        with pytest.raises(GpuDegradedError) as err:
            rebind_graph(graph, {0: 1, 1: 2}, n_devices=4)
        assert err.value.entity.startswith("gpu")

    def test_out_of_range_target_rejected(self, toy_harmony):
        graph = toy_harmony.plan().graph
        with pytest.raises(ValueError, match="outside"):
            rebind_graph(graph, {0: 7})

    def test_original_graph_untouched(self, toy_harmony):
        graph = toy_harmony.plan().graph
        before = [(t.tid, t.device) for t in graph.tasks]
        rebind_graph(graph, {1: 0})
        assert [(t.tid, t.device) for t in graph.tasks] == before


class TestByteInvariants:
    def test_clean_run_passes(self, toy_harmony):
        report = toy_harmony.run()
        check_byte_invariants(toy_harmony.plan().graph, report.metrics)

    def test_tampered_swap_detected(self, toy_harmony):
        report = toy_harmony.run()
        report.metrics.gpus[0].swap_in_bytes += 1
        with pytest.raises(SimulationError, match="swap byte accounting"):
            check_byte_invariants(toy_harmony.plan().graph, report.metrics)

    def test_tampered_p2p_detected(self, toy_harmony):
        report = toy_harmony.run()
        report.metrics.gpus[0].p2p_in_bytes += 1
        with pytest.raises(SimulationError, match="p2p byte accounting"):
            check_byte_invariants(toy_harmony.plan().graph, report.metrics)
