"""Logical devices, physical devices, and the binding between them.

Harmony's task graphs are *late bound* (Section 4.3.2): tasks carry a
device binding, not an identity, so the schedule's structure (task order,
dependencies, move lists) is valid under any device assignment.  This
module makes the split explicit:

- :class:`LogicalDevice` -- the planning-time GPU identity ``0..k-1`` the
  Scheduler targets.  Logical devices are uniform by construction: the
  plan's capacity fit and timing model assume the server spec's GPU.
- :class:`PhysicalDevice` -- one real GPU, described *relative* to the
  planned spec by a FLOPs scale and a memory scale.  ``1.0/1.0`` is the
  planned GPU itself; ``1.5/1.0`` is a faster card with the same memory.
- :class:`VirtualTopology` -- the ordered set of physical devices a plan
  can be bound onto.
- :class:`DeviceBinding` -- a total map logical -> physical.  Identity
  bindings reproduce today's plans bit for bit; non-injective bindings
  time-slice several logical devices onto one physical GPU (the executor
  drives each device's task list in global tid order through one compute
  stream, so multiplexing is deterministic FIFO interleaving and needs no
  new engine machinery); heterogeneous topologies rescale task times and
  per-device memory, re-checked by the analyzer before execution.

The graph rewrite itself -- :func:`apply_device_mapping` -- is the single
implementation behind every rebind in the codebase; the elastic recovery
and relabel paths (:mod:`repro.elastic.rebind`) are thin validation
wrappers over it.  Kept free of runtime/scheduler imports so faults,
elastic, and service layers can use it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from repro.common.fingerprint import fingerprint
from repro.core.types import Channel, Move, Task, TaskGraph


def remap_move(move: Move, task_device: dict[int, int],
               device_map: dict[int, int], new_device: int) -> Move:
    """Re-target one move after its task moved to ``new_device``."""
    peer = move.peer
    if peer is not None:
        peer = device_map.get(peer, peer)
    if move.channel is Channel.P2P:
        src = (
            task_device[move.src_task]
            if move.src_task is not None else peer
        )
        if src == new_device:
            # Producer and consumer collapsed onto one device: the
            # transfer disappears (the analyzer rejects same-device P2P).
            return Move(
                tensor=move.tensor, nbytes=move.nbytes,
                channel=Channel.LOCAL, peer=None,
                src_task=move.src_task, label=move.label,
            )
    if peer is not move.peer:
        return Move(
            tensor=move.tensor, nbytes=move.nbytes, channel=move.channel,
            peer=peer, src_task=move.src_task, label=move.label,
        )
    return move


def apply_device_mapping(graph: TaskGraph, mapping: dict[int, int],
                         n_devices: int) -> TaskGraph:
    """Rebuild ``graph`` with every binding pushed through ``mapping``.

    The one graph rewrite behind every rebind: devices absent from
    ``mapping`` keep their binding, P2P moves whose endpoints collapse
    onto one device become LOCAL.  No injectivity requirement -- a
    many-to-one mapping is a legal time-slice bind; callers that need
    injectivity (the elastic relabel, whose plans' capacity fit assumed
    one logical device per GPU) validate before calling.
    """
    task_device = {
        t.tid: mapping.get(t.device, t.device) for t in graph.tasks
    }
    rebound = TaskGraph(
        mode=graph.mode,
        n_devices=n_devices,
        pageable_swaps=graph.pageable_swaps,
    )
    for task in graph.tasks:
        new_device = task_device[task.tid]
        moved: Task = task.with_device(new_device)
        moved.ins = [
            remap_move(m, task_device, mapping, new_device)
            for m in task.ins
        ]
        moved.outs = [
            remap_move(m, task_device, mapping, new_device)
            for m in task.outs
        ]
        rebound.add(moved)
    return rebound


@dataclass(frozen=True)
class LogicalDevice:
    """A planning-time GPU identity: what ``Harmony.plan`` targets."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"logical device index must be >= 0, "
                             f"got {self.index}")


@dataclass(frozen=True)
class PhysicalDevice:
    """One real GPU, relative to the planned spec.

    ``flops_scale`` rescales compute speed (2.0 = twice as fast);
    ``memory_scale`` rescales capacity.  Memory is derived via exact
    :class:`~fractions.Fraction` arithmetic so capacity checks stay
    integer-exact (the project linter forbids float capacity math).
    """

    index: int
    flops_scale: float = 1.0
    memory_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"physical device index must be >= 0, "
                             f"got {self.index}")
        if not (self.flops_scale > 0 and math.isfinite(self.flops_scale)):
            raise ValueError(f"flops_scale must be finite and > 0, "
                             f"got {self.flops_scale}")
        if not (self.memory_scale > 0 and math.isfinite(self.memory_scale)):
            raise ValueError(f"memory_scale must be finite and > 0, "
                             f"got {self.memory_scale}")

    def memory_bytes(self, base_bytes: int) -> int:
        """Exact scaled capacity: ``int(Fraction(scale) * base)``."""
        return int(Fraction(self.memory_scale) * base_bytes)


@dataclass(frozen=True)
class VirtualTopology:
    """The ordered physical device set a plan can be bound onto."""

    devices: tuple[PhysicalDevice, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a topology needs at least one device")
        for i, dev in enumerate(self.devices):
            if dev.index != i:
                raise ValueError(
                    f"device at position {i} has index {dev.index}; "
                    f"topology devices must be densely indexed"
                )

    @classmethod
    def uniform(cls, n: int) -> "VirtualTopology":
        """``n`` physical devices identical to the planned GPU."""
        return cls(tuple(PhysicalDevice(i) for i in range(n)))

    @classmethod
    def heterogeneous(
        cls, flops_scales: Sequence[float],
        memory_scales: Optional[Sequence[float]] = None,
    ) -> "VirtualTopology":
        """One device per scale; memory defaults to the planned GPU's."""
        if memory_scales is None:
            memory_scales = [1.0] * len(flops_scales)
        if len(memory_scales) != len(flops_scales):
            raise ValueError(
                f"{len(flops_scales)} FLOPs scales but "
                f"{len(memory_scales)} memory scales"
            )
        return cls(tuple(
            PhysicalDevice(i, flops_scale=f, memory_scale=m)
            for i, (f, m) in enumerate(zip(flops_scales, memory_scales))
        ))

    @property
    def n_physical(self) -> int:
        return len(self.devices)

    @property
    def is_uniform(self) -> bool:
        return all(
            d.flops_scale == 1.0 and d.memory_scale == 1.0
            for d in self.devices
        )

    def flops_scales(self) -> tuple[float, ...]:
        return tuple(d.flops_scale for d in self.devices)

    def device_memory(self, base_bytes: int) -> list[int]:
        """Exact per-physical-device capacity in bytes."""
        return [d.memory_bytes(base_bytes) for d in self.devices]

    @cached_property
    def fingerprint(self) -> str:
        """Content address of every device's scales.  Cached: the
        topology is frozen."""
        return fingerprint(self.devices)

    def describe(self) -> str:
        return ", ".join(
            f"gpu{d.index}[x{d.flops_scale:g} flops, "
            f"x{d.memory_scale:g} mem]"
            for d in self.devices
        )


@dataclass(frozen=True)
class DeviceBinding:
    """A total map from logical devices onto a physical topology.

    ``assignment[logical] = physical``.  Constructors cover the three
    bind shapes: :meth:`identity` (bit-identical execution),
    :meth:`pack` (round-robin time-slice onto fewer devices),
    :meth:`heterogeneous` (same count, rescaled devices); plus
    :meth:`from_mapping` for explicit maps and :meth:`embed` for placing
    a small plan inside a larger server's device range.
    """

    topology: VirtualTopology
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.assignment:
            raise ValueError("a binding needs at least one logical device")
        n = self.topology.n_physical
        for logical, physical in enumerate(self.assignment):
            if not 0 <= physical < n:
                raise ValueError(
                    f"logical{logical} bound to gpu{physical}, outside "
                    f"the physical range [0, {n})"
                )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DeviceBinding":
        """``n`` logical devices onto ``n`` identical physical devices."""
        return cls(VirtualTopology.uniform(n), tuple(range(n)))

    @classmethod
    def pack(cls, n_logical: int,
             topology: "VirtualTopology") -> "DeviceBinding":
        """Round-robin ``n_logical`` devices onto the topology.

        With equal counts this is the identity assignment; with fewer
        physical devices, logical device ``i`` lands on physical
        ``i % n_physical`` (deterministic time-slice multiplexing).
        """
        n = topology.n_physical
        return cls(topology, tuple(i % n for i in range(n_logical)))

    @classmethod
    def heterogeneous(
        cls, flops_scales: Sequence[float],
        memory_scales: Optional[Sequence[float]] = None,
    ) -> "DeviceBinding":
        """Identity assignment onto a same-count heterogeneous topology."""
        topology = VirtualTopology.heterogeneous(flops_scales,
                                                 memory_scales)
        return cls(topology, tuple(range(topology.n_physical)))

    @classmethod
    def from_mapping(cls, mapping: dict[int, int], n_logical: int,
                     topology: Optional[VirtualTopology] = None,
                     ) -> "DeviceBinding":
        """Explicit map; devices absent from ``mapping`` bind in place."""
        assignment = tuple(
            mapping.get(logical, logical) for logical in range(n_logical)
        )
        if topology is None:
            topology = VirtualTopology.uniform(max(assignment) + 1)
        return cls(topology, assignment)

    @classmethod
    def embed(cls, n_logical: int, n_physical: int) -> "DeviceBinding":
        """Place an ``n_logical``-device plan in a larger device range.

        The service's stale-plan rung uses this: a cached 2-GPU plan
        served on a 4-GPU request keeps its bindings and widens the
        graph's device range so per-device metric arrays line up.
        """
        if n_logical > n_physical:
            raise ValueError(
                f"cannot embed {n_logical} logical devices into "
                f"{n_physical} physical ones; use pack() to time-slice"
            )
        return cls(VirtualTopology.uniform(n_physical),
                   tuple(range(n_logical)))

    # -- properties -----------------------------------------------------------

    @property
    def n_logical(self) -> int:
        return len(self.assignment)

    @property
    def n_physical(self) -> int:
        return self.topology.n_physical

    @property
    def injective(self) -> bool:
        return len(set(self.assignment)) == len(self.assignment)

    @property
    def identity_assignment(self) -> bool:
        return self.assignment == tuple(range(self.n_physical))

    @property
    def is_identity(self) -> bool:
        """True iff binding changes nothing: uniform topology, 1:1 map."""
        return self.identity_assignment and self.topology.is_uniform

    def mapping(self) -> dict[int, int]:
        return {logical: physical
                for logical, physical in enumerate(self.assignment)}

    def logical_on(self, physical: int) -> tuple[int, ...]:
        """Logical devices time-sliced onto one physical device."""
        return tuple(
            logical for logical, p in enumerate(self.assignment)
            if p == physical
        )

    # -- application ----------------------------------------------------------

    def apply(self, graph: TaskGraph) -> TaskGraph:
        """Rewrite the graph's device bindings onto physical devices.

        Identity bindings return the input graph unchanged (bit-identity
        by construction); everything else goes through the shared
        :func:`apply_device_mapping` rewrite.
        """
        if graph.n_devices != self.n_logical:
            raise ValueError(
                f"binding covers {self.n_logical} logical devices, "
                f"graph uses {graph.n_devices}"
            )
        if self.identity_assignment and self.n_physical == graph.n_devices:
            return graph
        return apply_device_mapping(graph, self.mapping(), self.n_physical)

    def device_memory(self, base_bytes: int) -> list[int]:
        """Exact per-physical-device memory capacity in bytes."""
        return self.topology.device_memory(base_bytes)

    @cached_property
    def fingerprint(self) -> str:
        """Content address of the assignment and the topology's devices.
        Cached: the binding is frozen, and a fleet bind's memo key reads
        it once per certify call."""
        return fingerprint(self.assignment, self.topology.devices)

    def describe(self) -> str:
        slices = "; ".join(
            f"gpu{p} <- {{{', '.join(f'log{x}' for x in self.logical_on(p))}}}"
            for p in range(self.n_physical)
            if self.logical_on(p)
        )
        kind = ("identity" if self.is_identity
                else "time-slice" if not self.injective
                else "relabel" if self.topology.is_uniform
                else "heterogeneous")
        return (f"{kind} binding of {self.n_logical} logical onto "
                f"{self.n_physical} physical device(s): {slices}")
