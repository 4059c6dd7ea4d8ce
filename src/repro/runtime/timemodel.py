"""How long a task takes: one timing rule for the Scheduler and the Runtime.

:class:`TrueTimeModel` times a task from a source of per-layer times:
:class:`~repro.core.profiler.ModelProfiles`' *regressed* times, on which
the Runtime Estimator scores candidates, or :class:`KernelTimes`' *true*
kernel times (deterministic kernel noise included), on which the Runtime
executes -- exactly the estimated-vs-actual gap Figure 14 measures.  A
bound device's FLOPs scale divides its GPU-side times.

A layer's true kernel time is a pure function of the model's content, the
GPU, the kernel-noise seed, the phase and the microbatch size, and every
run of a model asks for the same few of them.  So the per-layer times live
in one process-wide store (``_STORE``, bounded LRU, like the profiler's):
per model, one row of layer times per ``(phase, microbatch size)``, each
time drawn on first use.  A new :class:`KernelTimes` of a model already
run draws no kernel noise at all.

Each :class:`TrueTimeModel` also tabulates pack times (GPU weight updates
included): a run asks for the same pack at the same microbatch size over
and over, and so does a search across its candidates.  A table hit is
the identical float its source's ``span_time`` returned.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Protocol, Sequence, Union

from repro.common.fingerprint import fingerprint
from repro.common.floats import ordered_sum
from repro.common.lru import lru_get
from repro.core.decomposer import DecomposedModel
from repro.core.types import Task, TaskKind, TaskRecord
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

#: A built task or its schedule record: both carry every field timed.
_AnyTask = Union[Task, TaskRecord]


class LayerTimes(Protocol):
    """A source of per-layer times: ``span_time`` sums layers
    ``first..last`` at microbatch ``u`` left to right."""

    def span_time(self, phase: Phase, first: int, last: int,
                  u: int) -> float: ...


class KernelTimes:
    """The true kernel times of ``decomposed`` on ``gpu``, drawn lazily
    into the shared store."""

    def __init__(self, decomposed: DecomposedModel, gpu: GpuSpec):
        self.units = decomposed.units
        self.gpu = gpu
        key = fingerprint(decomposed.model.fingerprint, gpu, decomposed.seed)
        self._rows: _Rows = lru_get(_STORE, key, dict, KERNEL_STORE_SIZE)

    def span_time(self, phase: Phase, first: int, last: int,
                  u: int) -> float:
        row = self._rows.get((phase, u))
        if row is None:
            row = self._rows[(phase, u)] = [None] * len(self.units)
        for i in range(first, last + 1):
            if row[i] is None:
                row[i] = self.units[i].run_time(self.gpu, phase, u)
        return ordered_sum(row[first:last + 1])


class TrueTimeModel:
    """Times a task from per-layer times on a server with ``n_gpus`` GPUs.

    ``flops_scales[d]`` is device ``d``'s compute speed relative to the
    GPU the layer times are for; GPU-side times on it are divided by it.
    Scales that are all 1.0 (or none) divide nothing, so an identity bind
    is bit-identical to no bind.
    """

    def __init__(self, source: LayerTimes, host: HostSpec, n_gpus: int,
                 flops_scales: Sequence[float] = ()):
        self.source = source
        self.host = host
        self.cores_per_runtime = max(1, host.cores // max(1, n_gpus))
        self._scales: Optional[tuple[float, ...]] = (
            tuple(flops_scales) if any(s != 1.0 for s in flops_scales)
            else None)
        #: (phase, first_layer, last_layer, u) -> the source's span time
        self._pack_times: dict[tuple[Phase, int, int, int], float] = {}

    def _pack_time(self, phase: Phase, first: int, last: int,
                   u: int) -> float:
        key = (phase, first, last, u)
        t = self._pack_times.get(key)
        if t is None:
            t = self._pack_times[key] = self.source.span_time(
                phase, first, last, u)
        return t

    def _on_device(self, task: _AnyTask, t: float) -> float:
        """GPU time ``t`` on the task's device, divided by its FLOPs scale."""
        if self._scales is None:
            return t
        scale = self._scales[task.device]
        return t if scale == 1.0 else t / scale

    def microbatch_time(self, task: _AnyTask, u: int) -> float:
        """Wall time of one microbatch of ``task`` on the GPU."""
        first, last = task.first_layer, task.last_layer
        if task.kind is TaskKind.FWD:
            t = self._pack_time(Phase.FWD, first, last, u)
        elif task.kind is TaskKind.BWD:
            t = self._pack_time(Phase.BWD, first, last, u)
            if task.fused or task.recompute:
                # jit-compute runs the forward here instead of in a
                # separate task; recompute rematerializes it.
                t = self._pack_time(Phase.FWD, first, last, u) + t
        else:
            raise ValueError(
                f"update tasks are timed via update_time: {task.label}")
        return self._on_device(task, t)

    def update_time(self, task: _AnyTask) -> float:
        """Weight-update wall time (CPU-offloaded or on the GPU)."""
        if task.kind is not TaskKind.UPD:
            raise ValueError(f"not an update task: {task.label}")
        if task.on_cpu:
            # The host optimizer lane: the GPU's speed is irrelevant.
            return self.host.optimizer_time(
                task.compute_flops, cores_used=self.cores_per_runtime
            )
        return self._on_device(task, self._pack_time(
            Phase.UPD, task.first_layer, task.last_layer, 1))

    def task_compute_time(self, task: _AnyTask) -> float:
        """Total compute across the task's microbatch group."""
        if task.kind is TaskKind.UPD:
            return self.update_time(task)
        return ordered_sum(self.microbatch_time(task, u)
                           for u in task.microbatches)
