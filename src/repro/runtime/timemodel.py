"""Ground-truth task timing for the Runtime.

The Scheduler estimates with regressed profiles; the Runtime executes with
the *true* per-layer kernel times (including the deterministic kernel
noise), which is exactly the estimated-vs-actual gap Figure 14 measures.

A run asks for the same pack at the same microbatch size over and over
(every microbatch of every task, every iteration, every chaos retry), and
each answer is a pure function of frozen inputs (``LayerUnit``,
``GpuSpec``).  So each instance tabulates pack times (GPU weight updates
included) on first use.  An entry is filled by the same left-to-right
``sum`` the naive path computes, so a table hit is the identical float;
the table lives and dies with the instance and needs no invalidation.
"""

from __future__ import annotations

from repro.core.decomposer import DecomposedModel
from repro.core.types import Task, TaskKind
from repro.graph.layer import Phase
from repro.hardware.gpu import GpuSpec
from repro.hardware.host import HostSpec
from repro.perf import perf_enabled


class TrueTimeModel:
    """Computes what a task's kernels actually take on the machine."""

    def __init__(self, decomposed: DecomposedModel, gpu: GpuSpec, host: HostSpec,
                 n_gpus: int):
        self.units = decomposed.units
        self.gpu = gpu
        self.host = host
        self.cores_per_runtime = max(1, host.cores // max(1, n_gpus))
        self._tabulate = perf_enabled()
        #: (phase, first_layer, last_layer, u) -> summed kernel time; GPU
        #: weight updates are the UPD phase at u = 1
        self._pack_times: dict[tuple[Phase, int, int, int], float] = {}

    def _layer_sum(self, task: Task, phase: Phase, u: int) -> float:
        return sum(
            self.units[i].run_time(self.gpu, phase, u) for i in task.layers
        )

    def _pack_time(self, task: Task, phase: Phase, u: int) -> float:
        if not self._tabulate:
            return self._layer_sum(task, phase, u)
        key = (phase, task.first_layer, task.last_layer, u)
        t = self._pack_times.get(key)
        if t is None:
            t = self._pack_times[key] = self._layer_sum(task, phase, u)
        return t

    def microbatch_time(self, task: Task, u: int) -> float:
        """Wall time of one microbatch of ``task`` on the GPU."""
        if task.kind is TaskKind.FWD:
            return self._pack_time(task, Phase.FWD, u)
        if task.kind is TaskKind.BWD:
            bwd = self._pack_time(task, Phase.BWD, u)
            if task.fused:
                # jit-compute: forward runs here instead of a separate task;
                # no rematerialization needed.
                return self._pack_time(task, Phase.FWD, u) + bwd
            if task.recompute:
                return self._pack_time(task, Phase.FWD, u) + bwd
            return bwd
        raise ValueError(f"update tasks are timed via update_time: {task.label}")

    def update_time(self, task: Task) -> float:
        """Weight-update wall time (CPU-offloaded or on the GPU)."""
        if task.kind is not TaskKind.UPD:
            raise ValueError(f"not an update task: {task.label}")
        if task.on_cpu:
            return self.host.optimizer_time(
                task.compute_flops, cores_used=self.cores_per_runtime
            )
        return self._pack_time(task, Phase.UPD, 1)

    def task_compute_time(self, task: Task) -> float:
        """Total compute across the task's microbatch group."""
        if task.kind is TaskKind.UPD:
            return self.update_time(task)
        return sum(self.microbatch_time(task, u) for u in task.microbatches)
