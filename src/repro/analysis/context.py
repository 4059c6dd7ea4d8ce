"""The bundle of facts an analysis pass may consult.

Only the graph is mandatory.  Passes that need machine context (capacity
certification, topology legality) or scheduling context (the ablation
lint) declare it and are skipped -- with an explicit reason in the report
-- when the caller cannot supply it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TypeVar

from repro.core.taskgraph import ScheduleOptions
from repro.core.types import Task, TaskGraph
from repro.core.waits import task_slots
from repro.hardware.server import ServerSpec

T = TypeVar("T")


@dataclass
class AnalysisContext:
    """Inputs to one analyzer invocation."""

    graph: TaskGraph
    server: Optional[ServerSpec] = None
    options: Optional[ScheduleOptions] = None
    # Host-resident model state + input buffers, for host-capacity
    # certification (mirrors Executor's host working-set bound).
    host_state_bytes: Optional[int] = None
    # The portion of host_state_bytes that is input staging and so grows
    # with the microbatch count; lets the capacity pass split the host
    # bound into fixed and per-N components.  None: treat all as fixed.
    host_input_bytes: Optional[int] = None
    # Whether the Runtime will run with prefetch double-buffering; bounds
    # how many tasks hold GPU residency concurrently per device.
    prefetch: bool = True
    # Per-device GPU memory override (bytes, indexed by device id) for
    # heterogeneous bindings; devices beyond the list -- and all devices
    # when None -- fall back to the server spec's uniform GPU memory.
    device_memory: Optional[list[int]] = None

    _per_device: Optional[list[list[Task]]] = field(
        default=None, init=False, repr=False
    )
    _memo: dict[Callable[..., Any], Any] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def fetch_slots(self) -> int:
        """Concurrent per-device task windows (Executor's slot capacity)."""
        return task_slots(self.prefetch)

    def device_capacity(self, device: int) -> int:
        """GPU memory capacity of ``device`` in bytes (requires a server).

        Honors the per-device override of a heterogeneous binding;
        integer-exact (the override is computed from each scale's exact
        integer ratio upstream), so capacity certificates stay bit-stable.
        """
        assert self.server is not None, "device capacity needs a server"
        if (self.device_memory is not None
                and 0 <= device < len(self.device_memory)):
            return self.device_memory[device]
        return self.server.gpu.memory_bytes

    def device_order(self) -> list[list[Task]]:
        """Tasks per device in issue order, cached across passes.

        Falls back to bucketing by ``task.device`` directly when the graph
        is structurally broken (non-dense tids), so later passes can still
        run and report their own findings.
        """
        if self._per_device is None:
            buckets: list[list[Task]] = [
                [] for _ in range(self.graph.n_devices)
            ]
            for task in self.graph.tasks:
                if 0 <= task.device < self.graph.n_devices:
                    buckets[task.device].append(task)
            self._per_device = buckets
        return self._per_device

    def memo(self, derive: Callable[["AnalysisContext"], T]) -> T:
        """``derive(self)``, computed once per context and shared by every
        pass that asks (the wait graph, the capacity certificates)."""
        if derive not in self._memo:
            self._memo[derive] = derive(self)
        return self._memo[derive]
