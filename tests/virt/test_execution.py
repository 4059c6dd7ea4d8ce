"""Execution semantics of non-identity binds.

Time-slice binds must be deterministic (one driver per physical device
walks the merged task list in global tid order -- FIFO multiplexing, no
new engine machinery); heterogeneous binds must actually rescale compute
times and the per-device memory the analyzer certifies against;
undersized memory must be refused by the analyzer *before* execution.
"""

import builtins

import pytest

from repro.common.errors import ScheduleAnalysisError
from repro.common.floats import ordered_sum
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.runtime.timemodel import KernelTimes, TrueTimeModel
from repro.trace import TraceRecorder
from repro.virt import DeviceBinding, VirtualTopology
from repro.virt.bind import BoundPlan
from tests.sum312 import sum312

GPUS = 4
MINIBATCH = 16


def _time_model(harmony, plan, flops_scales=()):
    return TrueTimeModel(KernelTimes(plan.decomposed, harmony.server.gpu),
                         harmony.server.host, n_gpus=GPUS,
                         flops_scales=flops_scales)


@pytest.fixture(scope="module")
def harmony():
    return Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                   options=HarmonyOptions(mode="pp"))


class TestTimeSlice:
    def test_two_gpu_bind_executes(self, harmony):
        bound = harmony.bind(DeviceBinding.pack(
            GPUS, VirtualTopology.uniform(2)))
        report = harmony.run(plan=bound)
        assert report.metrics.iteration_time > 0

    def test_single_gpu_bind_executes(self, harmony):
        """Full oversubscription: every logical device on one GPU."""
        bound = harmony.bind(DeviceBinding.pack(
            GPUS, VirtualTopology.uniform(1)))
        report = harmony.run(plan=bound)
        assert report.metrics.iteration_time > 0

    def test_time_slice_is_deterministic(self, harmony):
        bound = harmony.bind(DeviceBinding.pack(
            GPUS, VirtualTopology.uniform(2)))
        first, second = TraceRecorder(), TraceRecorder()
        a = harmony.run(plan=bound, trace=first)
        b = harmony.run(plan=bound, trace=second)
        assert first.canonical() == second.canonical()
        assert a.metrics.iteration_time.hex() \
            == b.metrics.iteration_time.hex()

    def test_multiplexing_conserves_gpu_work(self, harmony):
        """Time-slicing reorders GPU kernels, it never changes them: the
        total GPU compute busy time of the 1-GPU bind equals the unbound
        run's across all four devices."""
        def gpu_compute_seconds(recorder):
            return sum(
                e.duration for e in recorder.events
                if e.cat == "compute" and e.lane == "compute"
            )

        unbound = TraceRecorder()
        harmony.run(trace=unbound)
        bound = TraceRecorder()
        harmony.run(plan=harmony.bind(DeviceBinding.pack(
            GPUS, VirtualTopology.uniform(1))), trace=bound)
        assert {e.device for e in bound.events if e.lane == "compute"} \
            == {0}
        assert gpu_compute_seconds(bound) \
            == pytest.approx(gpu_compute_seconds(unbound))


class TestHeterogeneous:
    def test_scaled_time_model_divides_by_flops_scale(self, harmony):
        plan = harmony.plan()
        base = _time_model(harmony, plan)
        scaled = _time_model(harmony, plan, DeviceBinding.heterogeneous(
            [2.0, 1.0, 1.0, 0.5]).topology.flops_scales())
        from repro.core.types import TaskKind

        checked = 0
        for task in plan.graph.tasks:
            if task.kind is TaskKind.UPD:
                continue
            for u in task.microbatches:
                checked += 1
                t, s = base.microbatch_time(task, u), \
                    scaled.microbatch_time(task, u)
                if task.device == 0:
                    assert s == t / 2.0
                elif task.device == 3:
                    assert s == t / 0.5
                else:
                    assert s == t  # scale 1.0 is an exact passthrough
        assert checked > 0

    def test_unit_scale_task_totals_match_the_base_on_312(self, harmony,
                                                          monkeypatch):
        """At scale 1.0 a task's total is the base model's, bit for bit,
        even where Python 3.12's compensated ``sum`` (emulated here)
        would round the microbatch fold differently."""
        plan = harmony.plan()
        base = _time_model(harmony, plan)
        scaled = _time_model(harmony, plan, DeviceBinding.heterogeneous(
            [1.0] * GPUS).topology.flops_scales())
        monkeypatch.setattr(builtins, "sum", sum312)
        from repro.core.types import TaskKind

        compensated = 0
        for task in plan.graph.tasks:
            if task.kind is TaskKind.UPD:
                continue
            assert scaled.task_compute_time(task).hex() \
                == base.task_compute_time(task).hex()
            per_mb = [base.microbatch_time(task, u)
                      for u in task.microbatches]
            compensated += sum312(per_mb) != ordered_sum(per_mb)
        assert compensated, "no task's fold differs under 3.12's sum"

    def test_cpu_updates_are_not_scaled(self, harmony):
        plan = harmony.plan()
        base = _time_model(harmony, plan)
        scaled = _time_model(harmony, plan, DeviceBinding.heterogeneous(
            [2.0] * GPUS).topology.flops_scales())
        from repro.core.types import TaskKind

        cpu_updates = [t for t in plan.graph.tasks
                       if t.kind is TaskKind.UPD and t.on_cpu]
        assert cpu_updates, "fixture should offload the optimizer"
        for task in cpu_updates:
            assert scaled.update_time(task) == base.update_time(task)

    def test_device_outside_the_scales_is_an_error(self, harmony):
        """A task on a device the scales do not cover is a graph/binding
        mismatch, never an unscaled time."""
        plan = harmony.plan()
        scaled = _time_model(harmony, plan, (2.0, 0.5))
        from repro.core.types import TaskKind

        task = next(t for t in plan.graph.tasks
                    if t.kind is TaskKind.FWD and t.device >= 2)
        with pytest.raises(IndexError):
            scaled.microbatch_time(task, task.microbatches[0])

    def test_uniformly_faster_hardware_is_not_slower(self, harmony):
        planned = harmony.run().metrics.iteration_time
        fast = harmony.run(plan=harmony.bind(DeviceBinding.heterogeneous(
            [4.0] * GPUS))).metrics.iteration_time
        assert fast <= planned

    def test_hetero_run_is_deterministic(self, harmony):
        binding = DeviceBinding.heterogeneous([1.5, 1.5, 0.75, 0.75])
        bound = harmony.bind(binding)
        first, second = TraceRecorder(), TraceRecorder()
        harmony.run(plan=bound, trace=first)
        harmony.run(plan=bound, trace=second)
        assert first.canonical() == second.canonical()

    def test_certificates_reflect_the_binding(self, harmony):
        binding = DeviceBinding.heterogeneous([1.0] * GPUS,
                                              [1.0, 1.0, 0.5, 0.75])
        bound = harmony.bind(binding)
        base = bound.server.gpu.memory_bytes
        assert [c.capacity_bytes for c in bound.report.certificates
                if c.scope != "host"] \
            == [base, base, base // 2, base * 3 // 4]

    def test_hand_built_undersized_bind_is_recertified_when_run(self,
                                                                harmony):
        """The suite re-certifies every graph a bound plan executes, so a
        BoundPlan built by hand, without bind()'s own check, still
        cannot run on a device too small for it."""
        plan = harmony.plan()
        tiny = DeviceBinding.heterogeneous([1.0] * GPUS,
                                           [1.0, 1.0, 1.0, 1e-6])
        bound = BoundPlan(plan=plan, binding=tiny, graph=plan.graph,
                          server=plan.server)
        with pytest.raises(ScheduleAnalysisError, match="capacity"):
            harmony.run(plan=bound)

    def test_undersized_memory_is_refused_before_execution(self, harmony):
        tiny = DeviceBinding.heterogeneous([1.0] * GPUS,
                                           [1.0, 1.0, 1.0, 1e-6])
        with pytest.raises(ScheduleAnalysisError, match="capacity"):
            harmony.bind(tiny)


class TestFaultPath:
    def test_chaos_on_a_hetero_bind_completes(self, harmony):
        from repro.faults import FaultPlan, FaultSpec

        binding = DeviceBinding.heterogeneous([1.25, 1.0, 1.0, 0.75])
        report = harmony.run(
            plan=harmony.bind(binding), iterations=2,
            fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=0),
        )
        assert report.metrics.iteration_time > 0

    def test_chaos_on_a_time_sliced_bind_completes(self, harmony):
        from repro.faults import FaultPlan, FaultSpec

        binding = DeviceBinding.pack(GPUS, VirtualTopology.uniform(2))
        report = harmony.run(
            plan=harmony.bind(binding), iterations=2,
            fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=1),
        )
        assert report.metrics.iteration_time > 0
