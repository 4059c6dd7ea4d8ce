"""Seeded-defect injectors, for exercising the analyzer end to end.

Each injector corrupts a freshly built (and previously safe) task graph
with exactly one class of bug and names the rules that must catch it.
The CLI's ``check --inject`` flag and the adversarial tests drive these,
so a regression that silences a rule is caught by an exact-id assertion
rather than by a hand-maintained fixture graph.

An injector mutates the graph in place and returns
``(options, expected_rules)`` -- options may differ from the input when
the defect is an ablation inconsistency rather than a graph edit, and
``expected_rules`` lists *every* rule the defect must trip.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.analysis.dataflow import _FAMILY, _producible
from repro.core.taskgraph import ScheduleOptions
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind

_REPRESENTATIVE = {
    "activation": TensorKind.Y,
    "activation-grad": TensorKind.DY,
    "checkpoint": TensorKind.CKPT,
    "weights": TensorKind.W,
    "gradients": TensorKind.DW,
    "optimizer-state": TensorKind.K,
}

Injector = Callable[
    [TaskGraph, ScheduleOptions], tuple[ScheduleOptions, tuple[str, ...]]
]


def _producible_tensor(task: Task) -> TensorKind:
    """A tensor kind ``task`` can legally produce."""
    return _REPRESENTATIVE[sorted(_producible(task))[0]]


def _first_update(graph: TaskGraph) -> Task:
    return next(t for t in graph.tasks if t.kind is TaskKind.UPD)


def _append_task(graph: TaskGraph, **kwargs) -> Task:
    return graph.add(Task(tid=len(graph.tasks), **kwargs))


def inject_cycle(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Make an early task wait on a later one queued behind it."""
    early = next(t for t in graph.tasks if not t.on_cpu)
    late = next(
        t for t in graph.tasks
        if t.device == early.device and t.tid > early.tid and not t.on_cpu
    )
    early.ins.append(Move(
        _producible_tensor(late), 1, Channel.MSG,
        src_task=late.tid, label="injected-backward-dep",
    ))
    return options, ("deadlock/cycle",)


def inject_use_before_produce(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Swap in a tensor family its producer never staged on the host."""
    for producer in graph.tasks:
        if producer.tid == len(graph.tasks) - 1:
            continue  # the consumer must come later in program order
        staged = {
            _FAMILY[move.tensor]
            for move in producer.outs
            if move.channel.via_host and move.nbytes > 0
        }
        unstaged = sorted(_producible(producer) - staged)
        if unstaged:
            consumer = graph.tasks[-1]
            consumer.ins.append(Move(
                _REPRESENTATIVE[unstaged[0]], 1, Channel.SWAP,
                src_task=producer.tid, label="injected-phantom-stash",
            ))
            return options, ("dataflow/use-before-produce",)
    raise RuntimeError("every task stages everything it can produce")


def inject_over_capacity(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Inflate one task's planned working set past any real GPU."""
    task = next(t for t in graph.tasks if not t.on_cpu)
    task.resident_bytes = 1 << 50  # 1 PiB
    return options, ("capacity/gpu",)


def inject_illegal_p2p(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Pull over a p2p path from a GPU the PCIe tree does not wire."""
    task = next(t for t in graph.tasks if not t.on_cpu)
    task.ins.append(Move(
        TensorKind.X, 1, Channel.P2P,
        peer=graph.n_devices + 7, label="injected-ghost-peer",
    ))
    return options, ("channel/bad-peer",)


def inject_ablation(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Claim an optimization is off that the graph plainly uses."""
    if any(len(t.microbatches) > 1 for t in graph.tasks if not t.on_cpu):
        return replace(options, grouping=False), ("ablation/grouping",)
    # Single-microbatch graphs: misstate the offload switch instead.
    return (
        replace(options, offload_optimizer=not options.offload_optimizer),
        ("ablation/offload",),
    )


def inject_war_race(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Unmoor an update from the backward pass that feeds it.

    Stripping the UPD task's dependency moves leaves its in-place write
    to shared model state unordered with the compute tasks still reading
    those weights -- the update can clobber state mid-read.
    """
    update = next(
        t for t in graph.tasks if t.kind is TaskKind.UPD and t.ins
    )
    update.ins.clear()
    return options, ("hb/war-race",)


def inject_rw_race(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Queue a late consumer of weights an update writes concurrently.

    The appended reader fetches the updated layers' weights with no
    dependency on the update task, so it may observe a half-applied
    update.
    """
    update = _first_update(graph)
    reader = _append_task(
        graph,
        kind=TaskKind.FWD,
        first_layer=update.first_layer,
        last_layer=update.last_layer,
        device=(update.device + 1) % graph.n_devices,
        microbatches=(1,),
        resident_bytes=1,
        label="injected-stale-reader",
    )
    reader.ins.append(Move(
        TensorKind.W, 1, Channel.SHM, label="injected-unordered-read",
    ))
    return options, ("hb/rw-race",)


def inject_waw_race(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Duplicate an update so two writers race on one state slice.

    The twin shares the original's dependencies (so neither is ordered
    after the other) and its layer span (so ownership is also released
    twice).
    """
    update = _first_update(graph)
    twin = _append_task(
        graph,
        kind=TaskKind.UPD,
        first_layer=update.first_layer,
        last_layer=update.last_layer,
        device=update.device,
        microbatches=update.microbatches,
        on_cpu=update.on_cpu,
        label="injected-twin-update",
    )
    twin.ins.extend(update.ins)
    return options, ("hb/waw-race", "lifetime/double-release")


def inject_double_release(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Release update ownership of one state slice twice, in order.

    Unlike the WAW twin, this duplicate *depends on* the original, so
    the writes are ordered and only the ownership discipline is broken.
    """
    update = _first_update(graph)
    twin = _append_task(
        graph,
        kind=TaskKind.UPD,
        first_layer=update.first_layer,
        last_layer=update.last_layer,
        device=update.device,
        microbatches=update.microbatches,
        on_cpu=update.on_cpu,
        label="injected-second-release",
    )
    twin.ins.append(Move(
        TensorKind.W, 0, Channel.LOCAL,
        src_task=update.tid, label="dep:injected",
    ))
    return options, ("lifetime/double-release",)


def inject_use_after_evict(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Consume a device-resident boundary after its window rotated out.

    The appended consumer claims the first task's output is still
    resident, but an unrelated group's window is granted in between --
    by then the Executor has freed the producer's boundary allocation.
    """
    producer = next(
        t for t in graph.tasks if not t.on_cpu and t.kind is TaskKind.FWD
    )
    consumer = _append_task(
        graph,
        kind=TaskKind.FWD,
        first_layer=producer.first_layer,
        last_layer=producer.last_layer,
        device=producer.device,
        microbatches=(1,),
        resident_bytes=1,
        label="injected-evicted-reuse",
    )
    consumer.ins.append(Move(
        TensorKind.Y, 1, Channel.LOCAL,
        src_task=producer.tid, label="injected-stale-resident",
    ))
    return options, ("lifetime/use-after-evict",)


def inject_use_before_fetch(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Consume bytes as device-resident that nothing ever put there."""
    task = next(t for t in graph.tasks if not t.on_cpu)
    task.ins.append(Move(
        TensorKind.X, 1, Channel.LOCAL, label="injected-phantom-resident",
    ))
    return options, ("lifetime/use-before-fetch",)


def inject_capacity_growth(
    graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Stash a checkpoint so large the host bound breaks at N = 1."""
    task = next(t for t in graph.tasks if not t.on_cpu)
    task.outs.append(Move(
        TensorKind.CKPT, 1 << 50, Channel.MSG,
        label="injected-stash-bomb",
    ))
    return options, ("capacity/host",)


#: Defect name -> injector, one per seeded defect kind.
INJECTIONS: dict[str, Injector] = {
    "cycle": inject_cycle,
    "use-before-produce": inject_use_before_produce,
    "over-capacity": inject_over_capacity,
    "illegal-p2p": inject_illegal_p2p,
    "ablation": inject_ablation,
    "war-race": inject_war_race,
    "rw-race": inject_rw_race,
    "waw-race": inject_waw_race,
    "double-release": inject_double_release,
    "use-after-evict": inject_use_after_evict,
    "use-before-fetch": inject_use_before_fetch,
    "capacity-growth": inject_capacity_growth,
}


def inject(
    name: str, graph: TaskGraph, options: ScheduleOptions
) -> tuple[ScheduleOptions, tuple[str, ...]]:
    """Apply the named defect; returns (options, expected rule ids)."""
    try:
        injector = INJECTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown defect {name!r}; known: {', '.join(INJECTIONS)}"
        ) from None
    return injector(graph, options)
