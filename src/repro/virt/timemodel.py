"""Per-physical-device FLOPs rescaling around any base time model.

A heterogeneous bind changes how fast each physical GPU computes, not
what the tasks are: :class:`ScaledTimeModel` wraps the planned time model
and divides every GPU-side duration by the bound device's FLOPs scale.
Scale ``1.0`` is an exact passthrough (no division), so identity binds
stay bit-identical to unbound runs.  Host-side work (CPU optimizer
updates) is unscaled -- the host did not change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.floats import ordered_sum
from repro.core.types import Task

if TYPE_CHECKING:
    from repro.virt.devices import DeviceBinding


class ScaledTimeModel:
    """Wraps a time model; durations scale by the task's bound device."""

    def __init__(self, base: object, binding: "DeviceBinding"):
        self.base = base
        self.binding = binding
        self._scales = binding.topology.flops_scales()

    def _scale(self, device: int) -> float:
        if 0 <= device < len(self._scales):
            return self._scales[device]
        return 1.0

    def microbatch_time(self, task: Task, u: int) -> float:
        t = self.base.microbatch_time(task, u)  # type: ignore[attr-defined]
        s = self._scale(task.device)
        return t if s == 1.0 else t / s

    def update_time(self, task: Task) -> float:
        t = self.base.update_time(task)  # type: ignore[attr-defined]
        if task.on_cpu:
            return t  # host optimizer lane: GPU speed is irrelevant
        s = self._scale(task.device)
        return t if s == 1.0 else t / s

    def task_compute_time(self, task: Task) -> float:
        from repro.core.types import TaskKind

        if task.kind is TaskKind.UPD:
            return self.update_time(task)
        return ordered_sum(self.microbatch_time(task, u)
                           for u in task.microbatches)

    def __getattr__(self, name: str):
        return getattr(self.base, name)
