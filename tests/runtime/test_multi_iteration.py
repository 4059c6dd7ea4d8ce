"""Tests for multi-iteration (steady-state) execution."""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions


@pytest.fixture
def harmony(toy_model, small_server):
    return Harmony(toy_model, small_server, 8,
                   HarmonyOptions(capacity_fraction=0.005))


class TestMultiIteration:
    def test_per_iteration_time_stable(self, harmony):
        one = harmony.run(iterations=1).metrics
        three = harmony.run(iterations=3).metrics
        # Flush-separated iterations: the average equals a single one.
        assert three.iteration_time == pytest.approx(
            one.iteration_time, rel=0.02
        )

    def test_counters_reported_per_iteration(self, harmony):
        one = harmony.run(iterations=1).metrics
        four = harmony.run(iterations=4).metrics
        assert four.global_swap_bytes == pytest.approx(
            one.global_swap_bytes, rel=0.01
        )
        assert four.gpus[0].compute_busy == pytest.approx(
            one.gpus[0].compute_busy, rel=0.01
        )

    def test_zero_iterations_rejected(self, harmony):
        from repro.common.errors import SchedulingError

        plan = harmony.plan()
        from repro.hardware.server import SimulatedServer
        from repro.runtime.executor import Executor
        from repro.runtime.timemodel import KernelTimes, TrueTimeModel
        from repro.sim.engine import Simulator

        sim = Simulator()
        server = SimulatedServer(sim, harmony.server)
        executor = Executor(
            server,
            TrueTimeModel(KernelTimes(plan.decomposed, harmony.server.gpu),
                          harmony.server.host, 2),
        )
        with pytest.raises(SchedulingError):
            executor.run(plan.graph, iterations=0)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_zero_iterations_rejected_under_a_fault_plan(self, harmony,
                                                         iterations):
        from repro.common.errors import SchedulingError
        from repro.faults import FaultPlan, FaultSpec

        with pytest.raises(SchedulingError, match="at least one iteration"):
            harmony.run(iterations=iterations,
                        fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=0))

    def test_throughput_uses_average(self, harmony):
        report = harmony.run(iterations=2)
        assert report.metrics.throughput == pytest.approx(
            8 / report.metrics.iteration_time
        )


class TestRunnerAveraging:
    """The fault-tolerant runner reports the same per-iteration figures
    as the plain executor when its plan never fires."""

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_every_gpu_field_matches_plain_run(self, iterations):
        from dataclasses import fields

        from repro.experiments.common import server_for
        from repro.faults import ScriptedFaultPlan
        from repro.runtime.metrics import GpuMetrics

        harmony = Harmony("toy-transformer", server_for(2), 8,
                          HarmonyOptions(mode="pp"))
        never = ScriptedFaultPlan(transfer_faults={("no-such-move", 0): 0.5})
        assert never.enabled
        plain = harmony.run(iterations=iterations).metrics
        chaos = harmony.run(iterations=iterations, fault_plan=never).metrics
        assert chaos.recovery.faults_injected == 0
        assert len(chaos.gpus) == len(plain.gpus)
        for mine, theirs in zip(chaos.gpus, plain.gpus):
            for f in fields(GpuMetrics):
                assert getattr(mine, f.name) == pytest.approx(
                    getattr(theirs, f.name), rel=1e-9), f.name
        assert chaos.overlap_fraction(0) == pytest.approx(
            plain.overlap_fraction(0), rel=1e-9)


class TestTraceBase:
    def test_reused_recorder_continues_the_timeline(self, harmony):
        from repro.trace import TraceRecorder

        recorder = TraceRecorder()
        harmony.run(trace=recorder)
        first = len(recorder.events)
        extent = recorder.extent
        assert first and extent > 0
        harmony.run(trace=recorder)
        second = recorder.events[first:]
        assert second
        assert min(e.t0 for e in second) >= extent
        assert recorder.extent > extent
