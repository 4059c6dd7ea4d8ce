"""Assertable invariants over a recorded execution trace.

These are the properties the Harmony runtime *must* exhibit on every
completed run, fault or no fault -- the test suite's autouse fixture
checks them for every graph any test executes, and ``repro.cli trace``
validates them before writing an export:

- **span exclusivity / FIFO**: ops on one stream never overlap and
  complete in submission order (a CUDA stream is a serial queue);
  compute attempts on one GPU never overlap;
- **dependency order**: a task's compute begins only after the trace
  shows the producer events it waits on, read from
  :mod:`repro.core.waits` (per-microbatch where the executor pipelines
  per microbatch, task-level for state, flush-level for host swaps and
  CPU consumers);
- **byte reconciliation**: bytes moved by transfer spans agree with the
  run's :class:`~repro.runtime.metrics.RunMetrics` swap/p2p accounting;
- **busy reconciliation**: compute span time agrees with the aggregate
  ``compute_busy`` counters;
- **fault-event completeness**: every injected fault and every recovery
  action appears as exactly one trace event and vice versa -- no silent
  recoveries, no phantom events.

All failures raise :class:`TraceInvariantError` naming the offending
events with the same ``t<tid>`` / ``gpu<d>.<lane>`` identifiers the
static analyzer and runtime diagnostics use.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Optional, Sequence

from repro.core.types import TaskGraph
from repro.core.waits import per_task, producer_wait
from repro.trace.events import TraceEvent

_EPS = 1e-9
_SWAP_LANES = ("swap_in", "swap_out")


class TraceInvariantError(AssertionError):
    """A recorded trace violates a runtime invariant."""


def _fail(message: str) -> None:
    raise TraceInvariantError(message)


# -- structural invariants ----------------------------------------------------------


def check_stream_exclusivity(events: Sequence[TraceEvent]) -> None:
    """Stream-op spans on one (device, lane) are disjoint and FIFO."""
    tracks: dict = defaultdict(list)
    for e in events:
        if e.kind == "span" and e.cat == "stream":
            tracks[(e.device, e.lane)].append(e)
    for (device, lane), spans in tracks.items():
        ordered = sorted(spans, key=lambda e: e.seq)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.t0 < prev.t1 - _EPS:
                _fail(
                    f"gpu{device}.{lane}: op {cur.name!r} started at "
                    f"{cur.t0:.6g}s while {prev.name!r} was still running "
                    f"(until {prev.t1:.6g}s) -- stream spans must not overlap"
                )
            if cur.t0 < prev.t0 - _EPS:
                _fail(
                    f"gpu{device}.{lane}: op {cur.name!r} ran before "
                    f"earlier-submitted {prev.name!r} -- FIFO order broken"
                )


def check_compute_exclusivity(events: Sequence[TraceEvent]) -> None:
    """Kernel attempts on one GPU's compute lane never overlap."""
    per_device: dict = defaultdict(list)
    for e in events:
        if e.kind == "span" and e.cat == "compute" and e.lane == "compute":
            per_device[e.device].append(e)
    for device, spans in per_device.items():
        ordered = sorted(spans, key=lambda e: (e.t0, e.seq))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.t0 < prev.t1 - _EPS:
                _fail(
                    f"gpu{device}.compute: {cur.name!r} ([{cur.t0:.6g}, "
                    f"{cur.t1:.6g}]s) overlaps {prev.name!r} "
                    f"([{prev.t0:.6g}, {prev.t1:.6g}]s)"
                )


# -- dependency order ---------------------------------------------------------------


def _first_attempt_computes(events: Sequence[TraceEvent]) -> dict:
    """(tid, mb) -> start times of first-attempt compute spans, in order."""
    out: dict = defaultdict(list)
    for e in sorted(events, key=lambda e: e.seq):
        if e.kind != "span" or e.cat != "compute":
            continue
        meta = e.meta_dict()
        if int(meta.get("attempt", 0)) != 0:
            continue
        out[(e.tid, int(meta.get("mb", 0)))].append(e.t0)
    return out


def _task_instants(events: Sequence[TraceEvent]) -> dict:
    """(tid, name) -> fire times of task lifecycle instants, in order."""
    out: dict = defaultdict(list)
    for e in sorted(events, key=lambda e: e.seq):
        if e.kind == "instant" and e.cat == "task":
            out[(e.tid, e.name)].append(e.t0)
    return out


def check_dependencies(events: Sequence[TraceEvent],
                       graph: TaskGraph) -> None:
    """Every compute span starts at/after its producers' trace events.

    Reads the Runtime's dependency rules from
    :func:`repro.core.waits.producer_wait`, the declaration the Executor
    runs by: a fetch waits on the producer's ``flushed`` or ``done``
    instant, or on the ``mb<j>`` instant of the microbatch that covers
    its chunk.  Occurrences pair up positionally across iterations.
    """
    computes = _first_attempt_computes(events)
    instants = _task_instants(events)
    for task in graph.tasks:
        for move in task.ins:
            if move.src_task is None:
                continue
            producer = graph[move.src_task]
            mbs = ([None] if per_task(move)
                   else range(len(task.microbatches)))
            self_deps = {}
            for mb in mbs:
                wait = producer_wait(move, task, producer, mb)
                self_deps[mb] = wait if isinstance(wait, str) else f"mb{wait}"
            for mb, dep_name in self_deps.items():
                dep_times = instants.get((producer.tid, dep_name), [])
                if not dep_times:
                    continue  # producer events evicted (ring) or unfired
                mbs = ([mb] if mb is not None else sorted(
                    i for t, i in computes if t == task.tid
                ))
                for i in mbs:
                    starts = computes.get((task.tid, i), [])
                    for k, start in enumerate(starts):
                        if k >= len(dep_times):
                            break
                        if start < dep_times[k] - _EPS:
                            _fail(
                                f"t{task.tid} mb{i} computed at "
                                f"{start:.6g}s before its dependency "
                                f"t{producer.tid}.{dep_name} fired at "
                                f"{dep_times[k]:.6g}s (move "
                                f"{move.label!r}, occurrence {k})"
                            )


# -- accounting reconciliation -----------------------------------------------------


def check_bytes(events: Sequence[TraceEvent], metrics,
                iterations: int = 1) -> None:
    """Transfer-span bytes reconcile with RunMetrics swap/p2p totals.

    Multi-iteration metrics are per-iteration floor-divided averages, so
    the tolerance is the worst-case rounding loss across counters.
    """
    swap = p2p = 0
    for e in events:
        if e.kind != "span" or e.cat != "xfer":
            continue
        if e.lane in _SWAP_LANES:
            swap += e.nbytes
        elif e.lane.startswith("p2p"):
            p2p += e.nbytes
    n = len(metrics.gpus)
    swap_tol = 2 * n * max(0, iterations - 1)
    p2p_tol = n * max(0, iterations - 1)
    expected_swap = metrics.global_swap_bytes * iterations
    if abs(swap - expected_swap) > swap_tol:
        _fail(
            f"trace swap bytes {swap} != metrics global swap "
            f"{metrics.global_swap_bytes} x {iterations} iteration(s) "
            f"(tolerance {swap_tol})"
        )
    expected_p2p = metrics.global_p2p_bytes * iterations
    if abs(p2p - expected_p2p) > p2p_tol:
        _fail(
            f"trace p2p bytes {p2p} != metrics global p2p "
            f"{metrics.global_p2p_bytes} x {iterations} iteration(s) "
            f"(tolerance {p2p_tol})"
        )


def check_compute_busy(events: Sequence[TraceEvent], metrics,
                       iterations: int = 1, rel: float = 1e-9) -> None:
    """Compute-span time per device reconciles with ``compute_busy``."""
    gpu_busy: Counter = Counter()
    cpu_busy: Counter = Counter()
    for e in events:
        if e.kind == "span" and e.cat == "compute":
            (cpu_busy if e.lane == "cpu" else gpu_busy)[e.device] += (
                e.duration
            )
    for device, g in enumerate(metrics.gpus):
        for measured, aggregate, what in (
            (gpu_busy.get(device, 0.0), g.compute_busy, "compute"),
            (cpu_busy.get(device, 0.0), g.cpu_busy, "cpu"),
        ):
            expected = aggregate * iterations
            tol = rel * max(1.0, abs(expected))
            if abs(measured - expected) > tol:
                _fail(
                    f"gpu{device} trace {what} busy {measured!r}s != "
                    f"aggregate {aggregate!r}s x {iterations} iteration(s)"
                )


def check_network_reconciliation(events: Sequence[TraceEvent],
                                 link_bytes: dict) -> None:
    """Per-network-link byte totals from cluster-lane transfer spans
    reconcile exactly with the fabric's own counters.

    ``link_bytes`` maps network link names to the bytes the cluster
    runner read back from the fabric's :class:`~repro.sim.links.Link`
    counters; every cross-server transfer span (``cat == "xfer"`` on the
    ``cluster`` lane) names its hops in the ``links`` meta, so each hop's
    traced total must equal the counter -- a transfer recorded but not
    accounted (or vice versa) fails here.
    """
    seen: Counter = Counter()
    for e in events:
        if e.kind != "span" or e.cat != "xfer" or e.lane != "cluster":
            continue
        links = e.meta_dict().get("links", "")
        if not links:
            continue
        for name in links.split("+"):
            seen[name] += e.nbytes
    for name in sorted(set(seen) | set(link_bytes)):
        traced = seen.get(name, 0)
        counted = link_bytes.get(name, 0)
        if traced != counted:
            _fail(
                f"network link {name!r}: trace shows {traced} bytes, "
                f"fabric counted {counted} -- cluster byte "
                f"reconciliation broken"
            )


# -- fault-event completeness -------------------------------------------------------


def check_fault_events(events: Sequence[TraceEvent], metrics,
                       elastic: bool = True) -> None:
    """Injected faults and recovery actions match trace events 1:1.

    Equality is checked in both directions: a counter without its events
    means silent recovery; events without counters mean phantom faults.
    """
    counts: Counter = Counter()
    migrations = 0
    for e in events:
        if e.kind == "instant":
            if e.cat in ("fault", "rebind", "restart", "replan"):
                counts[e.cat] += 1
            elif e.cat in ("retry", "fallback"):
                counts[(e.cat, e.name)] += 1
        elif e.kind == "span" and e.cat == "migration":
            migrations += 1
    rec = metrics.recovery
    expectations = [
        ("fault deliveries", counts["fault"], rec.faults_injected),
        ("transfer retries", counts[("retry", "transfer")],
         rec.transfer_retries),
        ("compute retries", counts[("retry", "compute")],
         rec.compute_retries),
        ("p2p fallbacks", counts[("fallback", "p2p")], rec.p2p_fallbacks),
        ("rebinds", counts["rebind"], rec.rebinds),
        ("restarts", counts["restart"], rec.restarts),
    ]
    if elastic:
        expectations += [
            ("replans", counts["replan"], metrics.elastic.replans),
            ("migration moves", migrations, metrics.elastic.migrations),
        ]
    for what, traced, counted in expectations:
        if traced != counted:
            _fail(
                f"{what}: trace shows {traced}, metrics counted {counted} "
                f"-- {'silent recovery' if traced < counted else 'phantom events'}"
            )


# -- the full battery --------------------------------------------------------------


def check_trace(
    events: Sequence[TraceEvent],
    graph: Optional[TaskGraph] = None,
    metrics=None,
    iterations: int = 1,
    dropped: int = 0,
) -> None:
    """Run every applicable invariant over ``events``.

    ``graph`` enables the dependency check; ``metrics`` enables byte /
    busy / fault-event reconciliation.  A ring-mode trace that dropped
    events (``dropped > 0``) keeps only the structural checks --
    accounting cannot reconcile against half a timeline.
    """
    check_stream_exclusivity(events)
    check_compute_exclusivity(events)
    if dropped:
        return
    if graph is not None:
        check_dependencies(events, graph)
    if metrics is not None:
        check_bytes(events, metrics, iterations=iterations)
        check_compute_busy(events, metrics, iterations=iterations)
        check_fault_events(events, metrics)
