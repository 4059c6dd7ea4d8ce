"""The Runtime's wait graph, and stream-aware deadlock detection.

The Runtime is more ordered than the task graph's explicit dependencies:
each GPU issues its tasks in list order, every per-GPU stream is a FIFO
(an operation blocks the whole stream until its own dependencies fire),
and a task issues nothing until it holds one of its device's task
slots.  A schedule can therefore be acyclic in its ``src_task`` edges
yet still deadlock, because an operation queued *earlier* waits
(transitively) on one queued *behind* it.

:func:`build_happens_before` builds the one wait graph every ordering
question is answered on.  It reads every rule from
:mod:`repro.core.waits`, the declaration the Executor runs by:

- three nodes per task: ``F(t)`` (all input fetches complete), ``C(t)``
  (compute complete) and ``O(t)`` (outputs flushed), chained
  ``F -> C -> O``.  They are numbered ``base``, ``base + 1`` and
  ``base + 2``, ``base`` three times the task's position among distinct
  tids, so edges and slot gates are built with integer arithmetic;
  :attr:`HappensBefore.index` maps ``(phase, tid)`` to those numbers for
  the race pass and for naming a cycle;
- dependency edges: an in-move with a ``src_task`` waits on ``O(src)``
  when the Runtime waits on the producer's flush, and on ``C(src)`` when
  it waits on the producer's completion or one of its microbatches;
- per-device stream FIFO edges between consecutive tasks that occupy
  the compute (``C``), swap-in and p2p-in (``F``) and swap-out (``O``)
  streams; CPU-offloaded updates run off the compute stream;
- slot grants: ``F(t)`` also waits until :func:`~repro.core.waits.slot_wait`
  of the tasks issued ahead of it on its device have computed.  A grant
  waits on any k of n earlier tasks, which no single edge can express.

One Kahn sweep honours both kinds of wait.  What it cannot complete is
a deadlock: the ``deadlock`` pass reports a cycle of waits through it,
naming ``gpu<d>.slots`` where a task waits for its slot.  The sweep's
order, reversed, feeds the race pass's (:mod:`repro.analysis.hb`) reach
bitmasks over the dependency and FIFO edges only, so a slot never
claims an ordering the Runtime does not guarantee.

The graph keeps one fetch node per task, so it is conservative: it may
reject a schedule whose fetches on separate streams would have run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, stream_ref, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Task
from repro.core.waits import (
    FLUSHED,
    OUT_STREAM,
    SLOT_LANE,
    compute_lane,
    compute_stream,
    fetch_lane,
    fetch_streams,
    flushes,
    producer_wait,
    slot_wait,
    task_slots,
)

#: Node kinds: F = inputs fetched, C = compute complete, O = outs flushed.
Node = tuple[str, int]

_PHASES = ("F", "C", "O")
#: A task's node numbers are ``base + offset``, ``offset`` its phase's
#: position in :data:`_PHASES`.
_F, _C, _O = range(3)


@dataclass
class HappensBefore:
    """The wait graph over task F/C/O nodes and its transitive order."""

    index: dict[Node, int]
    succ: list[list[int]]
    #: a cycle of waits the sweep could not complete, else None: each
    #: node, in edge order, with the lane it waits in
    cycle: Optional[list[tuple[Node, str]]]
    #: node indices in the sweep's order (every predecessor first)
    order: list[int]
    _reach: Optional[list[int]] = field(default=None, init=False, repr=False)

    @property
    def cyclic(self) -> bool:
        return self.cycle is not None

    @property
    def reach(self) -> list[int]:
        """Per node, a bitmask of the node indices strictly reachable
        from it; built on first use (only race queries need it)."""
        if self._reach is None:
            reach = [0] * len(self.succ)
            for node in reversed(self.order):
                mask = 0
                for nxt in self.succ[node]:
                    mask |= reach[nxt] | (1 << nxt)
                reach[node] = mask
            self._reach = reach
        return self._reach

    def happens_before(self, a: Node, b: Node) -> bool:
        """True when ``a`` is ordered strictly before ``b``; a deadlocked
        graph orders nothing (the deadlock pass owns it)."""
        if self.cyclic:
            return False
        return bool((self.reach[self.index[a]] >> self.index[b]) & 1)

    def ordered(self, a: Node, b: Node) -> bool:
        """True when the two nodes are ordered either way."""
        return self.happens_before(a, b) or self.happens_before(b, a)


def build_happens_before(ctx: AnalysisContext) -> HappensBefore:
    """The wait graph of ``ctx.graph``, built once per context."""
    return ctx.memo(_wait_graph)


def _queues(task: Task) -> Iterator[tuple[int, str]]:
    """``(node offset, stream)`` of every FIFO stream ``task`` occupies."""
    for stream in fetch_streams(task):
        yield _F, stream
    stream = compute_stream(task)
    if stream is not None:
        yield _C, stream
    if flushes(task):
        yield _O, OUT_STREAM


def _wait_graph(ctx: AnalysisContext) -> HappensBefore:
    graph = ctx.graph
    base: dict[int, int] = {}
    tasks: dict[int, Task] = {}
    for task in graph.tasks:
        tasks[task.tid] = task
        base.setdefault(task.tid, 3 * len(base))
    succ: list[list[int]] = [[] for _ in range(3 * len(base))]

    for task in graph.tasks:
        fetched = base[task.tid]
        succ[fetched].append(fetched + _C)
        succ[fetched + _C].append(fetched + _O)
        for move in task.ins:
            src = move.src_task
            if src not in tasks:
                continue  # structure pass reports dangling sources
            wait = producer_wait(move, task, tasks[src], None)
            succ[base[src] + (_O if wait == FLUSHED else _C)].append(fetched)

    for device_tasks in ctx.device_order():
        last: dict[str, int] = {}
        for task in device_tasks:
            node = base[task.tid]
            for offset, stream in _queues(task):
                if stream in last:
                    succ[last[stream] + offset].append(node + offset)
                last[stream] = node

    order = _sweep(ctx, base, succ)
    index = {(phase, tid): node + offset
             for tid, node in base.items()
             for offset, phase in enumerate(_PHASES)}
    cycle = None
    if len(order) < len(succ):
        cycle = _stalled_cycle(ctx, index, succ, tasks, set(order))
    return HappensBefore(index=index, succ=succ, order=order, cycle=cycle)


def _sweep(ctx: AnalysisContext, base: dict[int, int],
           succ: list[list[int]]) -> list[int]:
    """Kahn's algorithm over ``succ``, with each device's slot grants as
    counted gates on its ``F`` nodes: the nodes in completion order."""
    slots = task_slots(ctx.prefetch)
    indeg = [0] * len(succ)
    for nexts in succ:
        for nxt in nexts:
            indeg[nxt] += 1
    gated = [[base[t.tid] for t in tasks] for tasks in ctx.device_order()]
    # Per node, the device whose slot its completion frees, else -1.
    frees = [-1] * len(succ)
    for device, fetches in enumerate(gated):
        for node in fetches:
            indeg[node] += 1  # its slot grant
            frees[node + _C] = device
    granted, freed = [0] * len(gated), [0] * len(gated)
    ready = deque(i for i, n in enumerate(indeg) if not n)

    def arrive(node: int) -> None:
        indeg[node] -= 1
        if not indeg[node]:
            ready.append(node)

    def grant(device: int) -> None:
        fetches = gated[device]
        while (granted[device] < len(fetches)
               and freed[device] >= slot_wait(granted[device], slots)):
            arrive(fetches[granted[device]])
            granted[device] += 1

    for device in range(len(gated)):
        grant(device)
    order: list[int] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for nxt in succ[node]:
            arrive(nxt)
        device = frees[node]
        if device >= 0:
            freed[device] += 1
            grant(device)
    return order


def _stalled_cycle(ctx: AnalysisContext, index: dict[Node, int],
                   succ: list[list[int]], tasks: dict[int, Task],
                   finished: set[int]) -> list[tuple[Node, str]]:
    """A cycle of waits the sweep never completed: walk back from the
    first stalled node, each step to a wait that never completed, until
    a node repeats.  A node whose edges all completed waits for its
    slot, held by an earlier task of its device that never computed."""
    preds: list[list[int]] = [[] for _ in succ]
    for src, nexts in enumerate(succ):
        for nxt in nexts:
            preds[nxt].append(src)
    slots = {index["F", t.tid]: (device_tasks, k)
             for device_tasks in ctx.device_order()
             for k, t in enumerate(device_tasks)}
    nodes = list(index)
    node = min(i for i in range(len(succ)) if i not in finished)
    seen: dict[int, int] = {}
    path: list[tuple[int, str]] = []
    while node not in seen:
        seen[node] = len(path)
        phase, tid = nodes[node]
        blockers = [p for p in preds[node] if p not in finished]
        if blockers:
            lane = (fetch_lane(tasks[tid]) if phase == "F"
                    else compute_lane(tasks[tid]) if phase == "C"
                    else OUT_STREAM)
            blocker = min(blockers)
        else:
            device_tasks, position = slots[node]
            lane = SLOT_LANE
            blocker = next((index["C", t.tid]
                            for t in device_tasks[:position]
                            if index["C", t.tid] not in finished), None)
        path.append((node, lane))
        if blocker is None:
            # Tasks sharing a tid share one F node, so its slot may have
            # no holder: the waits walked so far are the cycle.
            node = path[0][0]
            break
        node = blocker
    waits = path[seen[node]:]
    waits.reverse()  # edge order: each node precedes the next
    start = waits.index(min(waits))
    return [(nodes[i], lane) for i, lane in waits[start:] + waits[:start]]


@register
class DeadlockPass(AnalysisPass):
    name = "deadlock"
    rules = ("deadlock/cycle",)

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        cycle = build_happens_before(ctx).cycle
        if cycle is not None:
            yield self._cycle_diagnostic(ctx, cycle)

    def _cycle_diagnostic(
        self, ctx: AnalysisContext, cycle: list[tuple[Node, str]]
    ) -> Diagnostic:
        graph = ctx.graph
        tids: list[int] = []
        lanes: list[str] = []
        for (_phase, tid), lane in cycle:
            if tid not in tids:
                tids.append(tid)
            name = stream_ref(graph.tasks[tid].device, lane)
            if name not in lanes:
                lanes.append(name)
        chain = " -> ".join(task_ref(t) for t in tids + tids[:1])
        return Diagnostic(
            "deadlock/cycle", Severity.ERROR,
            f"tasks {chain} can never all make progress "
            f"(cycle across streams {', '.join(lanes)})",
            task=tids[0], device=graph.tasks[tids[0]].device,
            hint="reorder the per-device task lists or break the "
                 "dependency so every fetch waits only on work queued "
                 "ahead of it",
        )
