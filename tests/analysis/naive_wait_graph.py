"""The tuple-keyed wait graph: the reference the integer layout meets.

:func:`repro.analysis.deadlock.build_happens_before` numbers each task's
``F``, ``C`` and ``O`` nodes ``base + 0, 1, 2`` and builds its edges and
slot gates with integer arithmetic.  :func:`reference_wait_graph` below
is the construction it replaced: every edge and slot gate goes through
the ``(phase, tid) -> index`` dict.  The two must agree on ``index``
(insertion order included), ``succ``, ``order`` and ``cycle``.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.context import AnalysisContext
from repro.analysis.deadlock import HappensBefore, Node, _stalled_cycle
from repro.core.types import Task
from repro.core.waits import (
    FLUSHED,
    OUT_STREAM,
    compute_stream,
    fetch_streams,
    flushes,
    producer_wait,
    slot_wait,
    task_slots,
)

_PHASES = ("F", "C", "O")


def _queues(task: Task):
    """``(phase, stream)`` of every FIFO stream ``task`` occupies."""
    for stream in fetch_streams(task):
        yield "F", stream
    stream = compute_stream(task)
    if stream is not None:
        yield "C", stream
    if flushes(task):
        yield "O", OUT_STREAM


def reference_wait_graph(ctx: AnalysisContext) -> HappensBefore:
    graph = ctx.graph
    index: dict[Node, int] = {}
    tasks: dict[int, Task] = {}
    for task in graph.tasks:
        tasks[task.tid] = task
        for phase in _PHASES:
            index.setdefault((phase, task.tid), len(index))
    succ: list[list[int]] = [[] for _ in range(len(index))]

    def add(src: Node, dst: Node) -> None:
        succ[index[src]].append(index[dst])

    for task in graph.tasks:
        add(("F", task.tid), ("C", task.tid))
        add(("C", task.tid), ("O", task.tid))
        for move in task.ins:
            if move.src_task not in tasks:
                continue
            wait = producer_wait(move, task, tasks[move.src_task], None)
            add(("O" if wait == FLUSHED else "C", move.src_task),
                ("F", task.tid))

    for device_tasks in ctx.device_order():
        last: dict[str, int] = {}
        for task in device_tasks:
            for phase, stream in _queues(task):
                if stream in last:
                    add((phase, last[stream]), (phase, task.tid))
                last[stream] = task.tid

    order = _reference_sweep(ctx, index, succ)
    cycle = None
    if len(order) < len(succ):
        cycle = _stalled_cycle(ctx, index, succ, tasks, set(order))
    return HappensBefore(index=index, succ=succ, order=order, cycle=cycle)


def _reference_sweep(ctx: AnalysisContext, index: dict[Node, int],
                     succ: list[list[int]]) -> list[int]:
    slots = task_slots(ctx.prefetch)
    indeg = [0] * len(succ)
    for nexts in succ:
        for nxt in nexts:
            indeg[nxt] += 1
    gated = [[index["F", t.tid] for t in tasks] for tasks in ctx.device_order()]
    for fetches in gated:
        for node in fetches:
            indeg[node] += 1
    frees = {index["C", t.tid]: d
             for d, tasks in enumerate(ctx.device_order()) for t in tasks}
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
        if node in frees:
            freed[frees[node]] += 1
            grant(frees[node])
    return order
