"""Logical devices, physical devices, and the binding between them.

Harmony's task graphs are *late bound* (Section 4.3.2): tasks carry a
device binding, not an identity, so the schedule's structure (task order,
dependencies, move lists) is valid under any device assignment.  The
Scheduler plans on *logical* devices ``0..k-1``, uniform by construction
(the plan's capacity fit and timing model assume the server spec's GPU);
this module maps them onto real ones:

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

:meth:`DeviceBinding.apply` is the one graph rewrite in the codebase:
``bind``, the fault runner's rebind onto spares, the elastic replanner's
survivor relabel and the service's stale-plan rung all build a binding
and apply it.  Kept free of runtime/scheduler imports so faults,
elastic, and service layers can use it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from repro.common.fingerprint import fingerprint
from repro.core.types import Channel, Move, TaskGraph


@dataclass(frozen=True)
class PhysicalDevice:
    """One real GPU, relative to the planned spec.

    ``flops_scale`` rescales compute speed (2.0 = twice as fast);
    ``memory_scale`` rescales capacity.  Memory is derived from the
    scale's exact integer ratio, so capacity checks stay integer-exact
    (the project linter forbids float capacity math in this module).
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
        """Exact scaled capacity, ``floor(scale * base)`` over the
        scale's exact value: the same bytes as ``int(Fraction(scale) *
        base)`` for a non-negative base, in integer arithmetic."""
        num, den = self.memory_scale.as_integer_ratio()
        return base_bytes * num // den


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
    :meth:`from_mapping` for explicit maps.  :meth:`pack` onto a larger
    uniform topology places a small plan inside a larger server's device
    range.
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
                     topology: VirtualTopology) -> "DeviceBinding":
        """Explicit map; devices absent from ``mapping`` bind in place.

        ``mapping`` applies simultaneously, so a target may also be a
        source: ``{0: 1, 1: 0}`` swaps two devices.
        """
        assignment = tuple(
            mapping.get(logical, logical) for logical in range(n_logical)
        )
        return cls(topology, assignment)

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
    def is_permutation(self) -> bool:
        """True iff ``n`` logical devices map one-to-one onto ``n``
        physical ones: the bound graph is the logical one relabeled."""
        return self.n_physical == self.n_logical and self.injective

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
        by construction).  Otherwise a new graph spans the physical
        range: every task and move peer follows the assignment, and a
        P2P move whose endpoints now share a device becomes LOCAL (the
        transfer disappears; the analyzer rejects same-device P2P).
        """
        if graph.n_devices != self.n_logical:
            raise ValueError(
                f"binding covers {self.n_logical} logical devices, "
                f"graph uses {graph.n_devices}"
            )
        if self.identity_assignment and self.n_physical == graph.n_devices:
            return graph
        mapping = self.mapping()
        task_device = {
            t.tid: mapping.get(t.device, t.device) for t in graph.tasks
        }

        def remap(move: Move, device: int) -> Move:
            peer = move.peer
            if peer is not None:
                peer = mapping.get(peer, peer)
            if move.channel is Channel.P2P:
                src = (task_device[move.src_task]
                       if move.src_task is not None else peer)
                if src == device:
                    return move._replace(channel=Channel.LOCAL, peer=None)
            return move if peer == move.peer else move._replace(peer=peer)

        rebound = TaskGraph(mode=graph.mode, n_devices=self.n_physical,
                            pageable_swaps=graph.pageable_swaps)
        for task in graph.tasks:
            device = task_device[task.tid]
            rebound.add(replace(
                task, device=device,
                ins=[remap(m, device) for m in task.ins],
                outs=[remap(m, device) for m in task.outs],
            ))
        return rebound

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
