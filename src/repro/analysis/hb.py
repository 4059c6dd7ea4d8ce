"""Static happens-before relation and shared-state race detection.

The Runtime orders work through two mechanisms the task graph does not
spell out: explicit ``src_task`` dependencies (a fetch waits for its
producer's completion or host flush) and per-GPU stream FIFOs (compute,
swap-in, p2p-in, swap-out are each serial queues).  This module derives
the *complete* static happens-before relation from both, then checks
every pair of accesses to shared model state against it:

- three nodes per task: ``F(t)`` (inputs fetched), ``C(t)`` (compute
  complete), ``O(t)`` (outputs flushed to host), chained
  ``F -> C -> O``;
- dependency edges: an in-move with a ``src_task`` waits on ``O(src)``
  when the bytes bounce through the host (the Runtime waits on the
  producer's flush) and on ``C(src)`` for device-resident or p2p data;
- per-device stream FIFO edges between consecutive enqueuers of the
  same stream, mirroring :mod:`repro.analysis.deadlock`'s model.

Accesses to *shared model state* -- weight and optimizer-state tensors,
keyed by ``(family, layer span)`` -- race when two tasks touch an
overlapping span, at least one writes, and neither access happens
before the other:

- ``hb/waw-race``: two unordered writes (e.g. duplicate weight updates
  racing on the same master copy);
- ``hb/war-race``: a write unordered with an *earlier-queued* read --
  the update can clobber weights a compute task is still fetching;
- ``hb/rw-race``: a read unordered with an earlier-queued write -- the
  consumer may observe a half-applied update.

Writes are the explicit W/K out-moves of GPU update tasks plus the
*implicit* in-place mutation a CPU-offloaded UPD performs on pinned host
state (it emits no out-moves; the mutation happens at ``C(t)``).
Per-replica gradient buffers (``DW``) are deliberately not race-checked:
data-parallel replicas each own a private buffer, so cross-device
gradient writes are disjoint by construction.

A cyclic happens-before graph is reported by the deadlock pass; race
detection declines to guess about orderings inside a wedged schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.dataflow import _FAMILY
from repro.analysis.deadlock import _has_host_fetch, _has_p2p_fetch
from repro.analysis.diagnostics import Diagnostic, Severity, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Task, TaskGraph, TaskKind

#: Node kinds: F = inputs fetched, C = compute complete, O = outs flushed.
Node = tuple[str, int]

#: Tensor families treated as shared mutable model state.
_STATE_FAMILIES = ("weights", "optimizer-state")


def _has_host_flush(task: Task) -> bool:
    return any(m.channel.via_host and m.nbytes > 0 for m in task.outs)


@dataclass
class HappensBefore:
    """The transitive happens-before relation over task F/C/O nodes."""

    index: dict[Node, int]
    #: per node, a bitmask of the node indices strictly reachable from it;
    #: empty when the graph is cyclic.
    reach: list[int]
    cyclic: bool

    def happens_before(self, a: Node, b: Node) -> bool:
        """True when ``a`` is ordered strictly before ``b``."""
        if self.cyclic:
            return False
        return bool((self.reach[self.index[a]] >> self.index[b]) & 1)

    def ordered(self, a: Node, b: Node) -> bool:
        """True when the two nodes are ordered either way."""
        return self.happens_before(a, b) or self.happens_before(b, a)


def build_happens_before(ctx: AnalysisContext) -> HappensBefore:
    """Derive the full static happens-before relation for ``ctx.graph``.

    Combines explicit ``src_task`` dependencies with the per-device
    stream FIFO orderings the Runtime imposes.  The Executor's slot
    throttle only adds ordering between tasks the FIFOs already order,
    so this relation is exact for may-happen-in-parallel queries.
    """
    graph = ctx.graph
    n_tasks = len(graph.tasks)
    index: dict[Node, int] = {}
    for task in graph.tasks:
        for phase in ("F", "C", "O"):
            index[(phase, task.tid)] = len(index)

    succ: list[list[int]] = [[] for _ in range(len(index))]
    indeg = [0] * len(index)

    def add(src: Node, dst: Node) -> None:
        succ[index[src]].append(index[dst])
        indeg[index[dst]] += 1

    for task in graph.tasks:
        add(("F", task.tid), ("C", task.tid))
        add(("C", task.tid), ("O", task.tid))
        for move in task.ins:
            if move.src_task is None or not 0 <= move.src_task < n_tasks:
                continue  # structure pass reports dangling sources
            phase = "O" if move.channel.via_host else "C"
            add((phase, move.src_task), ("F", task.tid))

    for device_tasks in ctx.device_order():
        prev: dict[str, Optional[int]] = {
            "compute": None, "swap_in": None, "p2p_in": None,
            "swap_out": None,
        }

        def chain(stream: str, phase: str, tid: int) -> None:
            if prev[stream] is not None:
                add((phase, prev[stream]), (phase, tid))
            prev[stream] = tid

        for task in device_tasks:
            if not task.on_cpu:
                chain("compute", "C", task.tid)
            if _has_host_fetch(task):
                chain("swap_in", "F", task.tid)
            if _has_p2p_fetch(task):
                chain("p2p_in", "F", task.tid)
            if _has_host_flush(task):
                chain("swap_out", "O", task.tid)

    # Kahn topological order; a leftover node means a cycle (the
    # deadlock pass names it -- reachability is meaningless then).
    order: list[int] = [i for i, d in enumerate(indeg) if d == 0]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                order.append(nxt)
    if len(order) < len(index):
        return HappensBefore(index=index, reach=[], cyclic=True)

    reach = [0] * len(index)
    for node in reversed(order):
        mask = 0
        for nxt in succ[node]:
            mask |= reach[nxt] | (1 << nxt)
        reach[node] = mask
    return HappensBefore(index=index, reach=reach, cyclic=False)


@dataclass(frozen=True)
class _Access:
    task: Task
    node: Node          # where in the task's lifecycle the access lands
    family: str
    first_layer: int
    last_layer: int
    write: bool
    what: str           # human-readable access description

    def overlaps(self, other: "_Access") -> bool:
        return (self.first_layer <= other.last_layer
                and other.first_layer <= self.last_layer)


def _state_accesses(graph: TaskGraph) -> list["_Access"]:
    """Every read/write of shared model state, with its lifecycle node."""
    accesses: list[_Access] = []
    for task in graph.tasks:
        for move in task.ins:
            family = _FAMILY[move.tensor]
            if move.nbytes > 0 and family in _STATE_FAMILIES:
                accesses.append(_Access(
                    task, ("F", task.tid), family,
                    task.first_layer, task.last_layer, write=False,
                    what=f"reads {family} via {move.label or move.tensor.name}",
                ))
        for move in task.outs:
            family = _FAMILY[move.tensor]
            if move.nbytes > 0 and family in _STATE_FAMILIES:
                accesses.append(_Access(
                    task, ("O", task.tid), family,
                    task.first_layer, task.last_layer, write=True,
                    what=f"writes {family} via "
                         f"{move.label or move.tensor.name}",
                ))
        if task.kind is TaskKind.UPD and task.on_cpu:
            # A CPU-offloaded update mutates pinned host state in place;
            # there is no out-move to anchor the write to.
            for family in _STATE_FAMILIES:
                accesses.append(_Access(
                    task, ("C", task.tid), family,
                    task.first_layer, task.last_layer, write=True,
                    what=f"updates host {family} in place",
                ))
    return accesses


@register
class RacePass(AnalysisPass):
    name = "hb"
    rules = ("hb/waw-race", "hb/war-race", "hb/rw-race")

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        hb = build_happens_before(ctx)
        if hb.cyclic:
            return  # the deadlock pass owns cycle reporting
        accesses = _state_accesses(ctx.graph)
        writes = [a for a in accesses if a.write]
        for write in writes:
            for other in accesses:
                if other.task.tid == write.task.tid:
                    continue
                if other.write and other.task.tid < write.task.tid:
                    continue  # write/write pairs reported once
                if other.family != write.family:
                    continue
                if not write.overlaps(other):
                    continue
                if hb.ordered(write.node, other.node):
                    continue
                yield self._race(write, other)

    @staticmethod
    def _race(write: _Access, other: _Access) -> Diagnostic:
        if other.write:
            rule, hazard = "hb/waw-race", "two unordered writes"
        elif other.task.tid < write.task.tid:
            rule, hazard = "hb/war-race", "a write unordered with an " \
                                          "earlier-queued read"
        else:
            rule, hazard = "hb/rw-race", "a read unordered with an " \
                                         "earlier-queued write"
        first, second = sorted(
            (write, other), key=lambda a: a.task.tid
        )
        span = (f"layers {first.first_layer}..{first.last_layer}"
                if first.first_layer != first.last_layer
                else f"layer {first.first_layer}")
        return Diagnostic(
            rule, Severity.ERROR,
            f"{task_ref(first.task.tid)} {first.what} while "
            f"{task_ref(second.task.tid)} {second.what} "
            f"(overlapping {span}; {hazard} on shared "
            f"{first.family})",
            task=second.task.tid, device=second.task.device,
            hint="add a dependency move (or queue both on one stream) so "
                 "every reader/writer pair of shared state is ordered",
        )
