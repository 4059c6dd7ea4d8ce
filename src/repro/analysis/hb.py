"""Static shared-state race detection over the Runtime's wait graph.

The Runtime orders work through two mechanisms the task graph does not
spell out: explicit ``src_task`` dependencies (a fetch waits for its
producer's completion or host flush) and per-GPU stream FIFOs (compute,
swap-in, p2p-in, swap-out are each serial queues), both declared in
:mod:`repro.core.waits`.  The one wait graph
(:func:`repro.analysis.deadlock.build_happens_before`, shared with the
deadlock pass) models both; its transitive closure is the static
happens-before relation this pass checks every pair of accesses to
shared model state against.  Slot grants order no particular pair of
tasks, so they add nothing to it.

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

A deadlocked wait graph is reported by the deadlock pass; race
detection declines to guess about orderings inside a wedged schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.dataflow import _FAMILY
from repro.analysis.deadlock import Node, build_happens_before
from repro.analysis.diagnostics import Diagnostic, Severity, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Task, TaskGraph, TaskKind

#: Tensor families treated as shared mutable model state.
_STATE_FAMILIES = ("weights", "optimizer-state")


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
