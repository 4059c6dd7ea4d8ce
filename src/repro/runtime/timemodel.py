"""Ground-truth task timing for the Runtime.

The Scheduler estimates with regressed profiles; the Runtime executes with
the *true* per-layer kernel times (including the deterministic kernel
noise), which is exactly the estimated-vs-actual gap Figure 14 measures.

A layer's true kernel time is a pure function of the model's content, the
GPU, the kernel-noise seed, the phase and the microbatch size, and every
run of a model asks for the same few of them.  So the per-layer times live
in one process-wide store (``_STORE``, bounded LRU, like the profiler's):
per model, one row of layer times per ``(phase, microbatch size)``, each
time drawn on first use.  A new :class:`TrueTimeModel` of a model already
run draws no kernel noise at all.

Each instance also tabulates pack times (GPU weight updates included),
because a run asks for the same pack at the same microbatch size over and
over (every microbatch of every task, every iteration, every chaos retry).
A pack time is the left-to-right sum of its layers' times, so a table hit
is the identical float the naive per-layer sum computes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.fingerprint import fingerprint
from repro.common.floats import ordered_sum
from repro.common.lru import lru_get
from repro.core.decomposer import DecomposedModel
from repro.core.types import Task, TaskKind
from repro.graph.layer import Phase
from repro.hardware.gpu import GpuSpec
from repro.hardware.host import HostSpec

#: Most models whose kernel times the store keeps; the least recently used
#: is evicted, so a long-running service stays bounded.
KERNEL_STORE_SIZE = 64

#: (phase, microbatch size) -> per-layer true kernel times (None: not yet
#: drawn).  GPU weight updates are the UPD phase at u = 1.
_Rows = dict[tuple[Phase, int], list[Optional[float]]]

#: The kernel-time store: rows by ``fingerprint(model, gpu, seed)``, least
#: recently used first.
_STORE: OrderedDict[str, _Rows] = OrderedDict()


def _kernel_rows(decomposed: DecomposedModel, gpu: GpuSpec) -> _Rows:
    """The shared rows of ``decomposed`` on ``gpu`` (created if new)."""
    key = fingerprint(decomposed.model.fingerprint, gpu, decomposed.seed)
    return lru_get(_STORE, key, dict, KERNEL_STORE_SIZE)


class TrueTimeModel:
    """Computes what a task's kernels actually take on the machine."""

    def __init__(self, decomposed: DecomposedModel, gpu: GpuSpec, host: HostSpec,
                 n_gpus: int):
        self.units = decomposed.units
        self.gpu = gpu
        self.host = host
        self.cores_per_runtime = max(1, host.cores // max(1, n_gpus))
        #: Shared per-layer kernel times.
        self._rows = _kernel_rows(decomposed, gpu)
        #: (phase, first_layer, last_layer, u) -> summed kernel time
        self._pack_times: dict[tuple[Phase, int, int, int], float] = {}

    def _layer_sum(self, task: Task, phase: Phase, u: int) -> float:
        row = self._rows.get((phase, u))
        if row is None:
            row = self._rows[(phase, u)] = [None] * len(self.units)
        for i in task.layers:
            if row[i] is None:
                row[i] = self.units[i].run_time(self.gpu, phase, u)
        return ordered_sum(row[task.first_layer:task.last_layer + 1])

    def _pack_time(self, task: Task, phase: Phase, u: int) -> float:
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
        return ordered_sum(self.microbatch_time(task, u)
                           for u in task.microbatches)
