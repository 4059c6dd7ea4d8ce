"""The Runtime's wait graph, and stream-aware cycle / deadlock detection.

The Runtime is more ordered than the task graph's explicit dependencies:
each GPU issues its tasks in list order, and every per-GPU stream
(compute, swap-in, p2p-in, swap-out) is a FIFO -- an operation blocks
the whole stream until its own dependencies fire.  A schedule can
therefore be acyclic in its ``src_task`` edges yet still deadlock,
because an operation queued *earlier* on a stream waits (transitively)
on one queued *behind* it on the same stream.

:func:`build_happens_before` builds the one wait graph every ordering
question is answered on:

- three nodes per task: ``F(t)`` (all input fetches complete), ``C(t)``
  (compute complete) and ``O(t)`` (outputs flushed to host), chained
  ``F -> C -> O``;
- dependency edges: an in-move with a ``src_task`` waits on ``O(src)``
  when the bytes bounce through the host (the Runtime waits on the
  producer's flush) and on ``C(src)`` for device-resident or p2p data;
- per-device stream FIFO edges between consecutive enqueuers of the
  compute (``C``), swap-in and p2p-in (``F``) and swap-out (``O``)
  streams; CPU-offloaded updates run off the compute stream.

The ``deadlock`` pass reports any cycle in it.  The Executor's slot
throttle only ever *adds* ordering between tasks the FIFO edges already
order, so a cycle here is a deadlock and an acyclic graph is safe for
any slot capacity -- and the race pass (:mod:`repro.analysis.hb`) reads
exact may-happen-in-parallel answers off the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, stream_ref, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Channel, Task

#: Node kinds: F = inputs fetched, C = compute complete, O = outs flushed.
Node = tuple[str, int]

_PHASES = ("F", "C", "O")


def _has_host_fetch(task: Task) -> bool:
    return any(m.channel.via_host and m.nbytes > 0 for m in task.ins)


def _has_p2p_fetch(task: Task) -> bool:
    return any(m.channel is Channel.P2P and m.nbytes > 0 for m in task.ins)


def _has_host_flush(task: Task) -> bool:
    return any(m.channel.via_host and m.nbytes > 0 for m in task.outs)


def fetch_stream(task: Task) -> str:
    """The stream a task's input fetch is named by: ``p2p_in`` when all
    its nonzero fetches are p2p, else ``swap_in``.  The runtime's
    deadlock error and the ``deadlock/cycle`` diagnostic both use it."""
    if _has_p2p_fetch(task) and not _has_host_fetch(task):
        return "p2p_in"
    return "swap_in"


@dataclass
class HappensBefore:
    """The wait graph over task F/C/O nodes and its transitive order."""

    index: dict[Node, int]
    succ: list[list[int]]
    #: the nodes of the first cycle found, else None
    cycle: Optional[list[Node]]
    #: node indices in depth-first post-order (every successor first)
    postorder: list[int]
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
            for node in self.postorder:
                mask = 0
                for nxt in self.succ[node]:
                    mask |= reach[nxt] | (1 << nxt)
                reach[node] = mask
            self._reach = reach
        return self._reach

    def happens_before(self, a: Node, b: Node) -> bool:
        """True when ``a`` is ordered strictly before ``b``; a cyclic
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


def _wait_graph(ctx: AnalysisContext) -> HappensBefore:
    graph = ctx.graph
    index: dict[Node, int] = {}
    for task in graph.tasks:
        for phase in _PHASES:
            index.setdefault((phase, task.tid), len(index))
    succ: list[list[int]] = [[] for _ in range(len(index))]

    def add(src: Node, dst: Node) -> None:
        succ[index[src]].append(index[dst])

    for task in graph.tasks:
        add(("F", task.tid), ("C", task.tid))
        add(("C", task.tid), ("O", task.tid))
        for move in task.ins:
            if ("F", move.src_task) not in index:
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

    cycle, postorder = _depth_first(succ)
    nodes = list(index)
    return HappensBefore(
        index=index, succ=succ, postorder=postorder,
        cycle=None if cycle is None else [nodes[i] for i in cycle],
    )


def _depth_first(
    succ: list[list[int]],
) -> tuple[Optional[list[int]], list[int]]:
    """Iterative DFS: the first cycle found (None if acyclic) and the
    post-order of every node finished before it."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(succ)
    postorder: list[int] = []
    for root in range(len(succ)):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):], postorder
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                node = path.pop()
                stack.pop()
                color[node] = BLACK
                postorder.append(node)
    return None, postorder


@register
class DeadlockPass(AnalysisPass):
    name = "deadlock"
    rules = ("deadlock/cycle",)

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        cycle = build_happens_before(ctx).cycle
        if cycle is not None:
            yield self._cycle_diagnostic(ctx, cycle)

    def _cycle_diagnostic(
        self, ctx: AnalysisContext, cycle: list[Node]
    ) -> Diagnostic:
        graph = ctx.graph
        tids: list[int] = []
        streams: list[str] = []
        for phase, tid in cycle:
            if tid not in tids:
                tids.append(tid)
            task = graph.tasks[tid]
            stream = {"F": fetch_stream(task), "C": "compute",
                      "O": "swap_out"}[phase]
            name = stream_ref(task.device, stream)
            if name not in streams:
                streams.append(name)
        chain = " -> ".join(task_ref(t) for t in tids + tids[:1])
        return Diagnostic(
            "deadlock/cycle", Severity.ERROR,
            f"tasks {chain} can never all make progress "
            f"(cycle across streams {', '.join(streams)})",
            task=tids[0], device=graph.tasks[tids[0]].device,
            hint="reorder the per-device task lists or break the "
                 "dependency so every fetch waits only on work queued "
                 "ahead of it",
        )
