"""Stream-aware cycle / deadlock detection.

The Runtime is more ordered than the task graph's explicit dependencies:
each GPU issues its tasks in list order, and every per-GPU stream
(compute, swap-in, p2p-in) is a FIFO -- an operation blocks the whole
stream until its own dependencies fire.  A schedule can therefore be
acyclic in its ``src_task`` edges yet still deadlock, because a fetch
queued *earlier* on a stream waits (transitively) on a task whose own
fetch is queued *behind* it on the same stream.

This pass builds the complete "can it make progress" graph and reports
any cycle:

- two nodes per task: ``F(t)`` (all input fetches complete) and ``C(t)``
  (compute complete), with ``F(t) -> C(t)``;
- dependency edges ``C(src) -> F(t)`` for every in-move with a
  ``src_task`` (data exists at the source only once the producer ran);
- per-device compute-stream FIFO: ``C(a) -> C(b)`` for consecutive
  GPU-resident tasks (CPU-offloaded updates run off-stream);
- per-device swap-in / p2p-in stream FIFO: ``F(a) -> F(b)`` for
  consecutive tasks that enqueue a fetch on that stream.

The Executor's slot throttle only ever *adds* ordering between tasks the
FIFO edges already order, so a cycle here is a deadlock and an acyclic
graph is safe for any slot capacity.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, stream_ref, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Channel, Task

_Node = tuple[str, int]   # ("F" | "C", tid)


def _has_host_fetch(task: Task) -> bool:
    return any(m.channel.via_host and m.nbytes > 0 for m in task.ins)


def _has_p2p_fetch(task: Task) -> bool:
    return any(m.channel is Channel.P2P and m.nbytes > 0 for m in task.ins)


@register
class DeadlockPass(AnalysisPass):
    name = "deadlock"
    rules = ("deadlock/cycle",)

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        graph = ctx.graph
        n_tasks = len(graph.tasks)
        edges: dict[_Node, list[_Node]] = {}

        def add(src: _Node, dst: _Node) -> None:
            edges.setdefault(src, []).append(dst)
            edges.setdefault(dst, [])

        for task in graph.tasks:
            add(("F", task.tid), ("C", task.tid))
            for move in task.ins:
                if move.src_task is None:
                    continue
                if not 0 <= move.src_task < n_tasks:
                    continue  # structure pass reports dangling sources
                add(("C", move.src_task), ("F", task.tid))

        for device_tasks in ctx.device_order():
            prev_compute = prev_swap = prev_p2p = None
            for task in device_tasks:
                if not task.on_cpu:
                    if prev_compute is not None:
                        add(("C", prev_compute), ("C", task.tid))
                    prev_compute = task.tid
                if _has_host_fetch(task):
                    if prev_swap is not None:
                        add(("F", prev_swap), ("F", task.tid))
                    prev_swap = task.tid
                if _has_p2p_fetch(task):
                    if prev_p2p is not None:
                        add(("F", prev_p2p), ("F", task.tid))
                    prev_p2p = task.tid

        cycle = _find_cycle(edges)
        if cycle is None:
            return
        yield self._cycle_diagnostic(ctx, cycle)

    # -- reporting ---------------------------------------------------------------

    def _cycle_diagnostic(
        self, ctx: AnalysisContext, cycle: list[_Node]
    ) -> Diagnostic:
        graph = ctx.graph
        tids: list[int] = []
        streams: list[str] = []
        for phase, tid in cycle:
            if tid not in tids:
                tids.append(tid)
            task = graph.tasks[tid]
            if phase == "C":
                name = stream_ref(task.device, "compute")
            elif _has_p2p_fetch(task) and not _has_host_fetch(task):
                name = stream_ref(task.device, "p2p_in")
            else:
                name = stream_ref(task.device, "swap_in")
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


def _find_cycle(edges: dict[_Node, list[_Node]]) -> list[_Node] | None:
    """First cycle in ``edges`` as the list of nodes on it, else None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        path: list[_Node] = []
        # Stack of (node, iterator over successors).
        stack: list[tuple[_Node, Iterator[_Node]]] = [
            (root, iter(edges[root]))
        ]
        color[root] = GRAY
        path.append(root)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None
