"""The Runtime executor: runs a task graph on the simulated server.

Execution model (Section 4.4 of the paper):

- one runtime process per GPU, each owning five streams (compute, swap-in,
  swap-out, p2p-in, p2p-out) plus a host-side lane for CPU-offloaded
  weight updates;
- prefetch with double buffering: a task's inputs are fetched while the
  previous task computes, throttled by fetch "slots" (two with prefetch
  enabled, one without);
- per-microbatch pipelining: a task's microbatch *i* computes as soon as
  its input chunk *i* has arrived, which is what makes the wrap-around
  pipeline actually pipeline;
- receiver-driven p2p: the consuming GPU pulls activation chunks over the
  PCIe tree, contending on shared links with everyone else's swaps.

State tensors (weights, gradients, optimizer state) move once per task;
activation-family tensors (X/Y/DY/CKPT) move per microbatch.

Fault tolerance: when a :class:`~repro.faults.injector.FaultInjector` is
attached, it arms its link degradation on the server, and every transfer
and compute attempt first asks it for an injected fault.  Transient
transfer faults retry with exponential backoff; a p2p path that stays
faulted degrades to a host-staged swap route (the bytes re-accounted as
swap traffic, riding the same contended links real swaps use); crashed
compute attempts retry from their still-resident inputs.
Faults that exhaust the :class:`~repro.faults.policy.RecoveryPolicy`
propagate as typed :class:`~repro.common.errors.FaultError` through the
simulator's failure machinery -- never as a hang, which the simulator
watchdog (``DEFAULT_MAX_STEPS`` engine steps) additionally enforces.
With no injector attached the fault hooks are never consulted and
execution is bit-identical to the pre-fault runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.analysis.diagnostics import stream_ref, task_ref
from repro.common.backoff import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_TRANSFER_RETRIES,
    exponential,
)
from repro.common.errors import (
    FaultError,
    HostOutOfMemoryError,
    SchedulingError,
    SimulationError,
    TransferFaultError,
)
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind
from repro.core.waits import (
    DONE,
    FLUSHED,
    OUT_STREAM,
    SLOT_LANE,
    compute_lane,
    compute_stream,
    fetch_lane,
    fetch_stream,
    per_task,
    producer_wait,
    task_slots,
)
from repro.hardware.server import ServerSpec, SimulatedServer
from repro.runtime.metrics import GpuMetrics, RecoveryMetrics, RunMetrics
from repro.runtime.timemodel import TrueTimeModel
from repro.sim.engine import Resource, SimEvent, Simulator
from repro.sim.links import Route, transfer
from repro.sim.stream import Stream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.faults.injector import FaultInjector
    from repro.faults.policy import RecoveryPolicy

#: Watchdog bound on engine steps per run: generous enough that no
#: legitimate schedule in the repository comes within two orders of
#: magnitude, small enough that a leaked process surfaces as a typed
#: error in bounded wall time.
DEFAULT_MAX_STEPS = 50_000_000


def _chunk_sizes(nbytes: int, microbatches: tuple[int, ...]) -> list[int]:
    """Split a per-microbatch move's bytes proportionally to the group."""
    total = sum(microbatches)
    if total == 0:
        return [0 for _ in microbatches]
    chunks = [nbytes * u // total for u in microbatches]
    chunks[-1] += nbytes - sum(chunks)
    return chunks


class _TaskRuntime:
    """Live bookkeeping for one task: its synchronization events."""

    __slots__ = ("task", "mb_done", "done", "outs_flushed", "state_ready",
                 "input_ready")

    def __init__(self, sim: Simulator, task: Task):
        self.task = task
        ref = task_ref(task.tid)
        self.mb_done = [
            SimEvent(sim, name=f"{ref}.mb{i}_done")
            for i in range(len(task.microbatches))
        ]
        self.done = SimEvent(sim, name=f"{ref}.done")
        self.outs_flushed = SimEvent(sim, name=f"{ref}.outs_flushed")
        self.state_ready: Optional[SimEvent] = None
        self.input_ready: list[SimEvent] = []


class Executor:
    """Executes one iteration of a task graph and reports metrics."""

    def __init__(
        self,
        server: SimulatedServer,
        time_model: TrueTimeModel,
        prefetch: bool = True,
        host_state_bytes: int = 0,
        faults: Optional["FaultInjector"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
    ):
        self.server = server
        self.sim = server.sim
        self.time_model = time_model
        self.prefetch = prefetch
        self.host_state_bytes = host_state_bytes
        self.faults = faults if (faults is not None and faults.enabled) else None
        if self.faults is not None:
            self.faults.arm(server)
        if self.faults is not None and recovery is None:
            from repro.faults.policy import RecoveryPolicy as _Policy

            recovery = _Policy()
        self.policy = recovery

    # -- public -----------------------------------------------------------------

    def run(self, graph: TaskGraph, iterations: int = 1) -> RunMetrics:
        """Execute ``iterations`` back-to-back training iterations.

        Synchronous SGD requires iteration ``i+1``'s forward pass to see
        iteration ``i``'s updated weights, so consecutive iterations are
        separated by a flush barrier on the final weight-update tasks --
        matching the paper's per-iteration pipeline flush.  The reported
        ``iteration_time`` is the steady-state average.
        """
        if iterations < 1:
            raise SchedulingError("need at least one iteration")
        if graph.n_devices > self.server.spec.n_gpus:
            raise SchedulingError(
                f"graph targets {graph.n_devices} GPUs, server has "
                f"{self.server.spec.n_gpus}"
            )
        self._check_host_memory(graph)

        sim = self.sim
        # Every device swaps both ways (pageable swaps through the
        # staging engine); p2p and relay routes are taken per transfer.
        server, pageable = self.server, graph.pageable_swaps
        self._swap_in = [server.route(None, d, pageable)
                         for d in range(graph.n_devices)]
        self._swap_out = [server.route(d, None, pageable)
                          for d in range(graph.n_devices)]
        self.metrics = [GpuMetrics() for _ in range(graph.n_devices)]
        self.recovery = RecoveryMetrics()
        self._resident = [0] * graph.n_devices

        slots = [
            Resource(sim, capacity=task_slots(self.prefetch), name=f"slots{d}")
            for d in range(graph.n_devices)
        ]
        barrier: Optional[SimEvent] = None
        for _iteration in range(iterations):
            self.runtimes = [_TaskRuntime(sim, task) for task in graph.tasks]
            for device, tasks in enumerate(graph.per_device()):
                sim.process(
                    self._driver(device, tasks, slots[device], barrier),
                    name=f"runtime{device}",
                )
            update_flushes = [
                self.runtimes[t.tid].outs_flushed
                for t in graph.tasks
                if t.kind is TaskKind.UPD
            ]
            barrier = sim.all_of(update_flushes or
                                 [rt.outs_flushed for rt in self.runtimes],
                                 name="iteration-barrier")
            sim.run(max_steps=DEFAULT_MAX_STEPS)
            self._check_completion()

        end_time = sim.now
        for g in self.metrics:
            g.per_iteration(iterations)
        if self.faults is not None:
            self.recovery.faults_injected += self.faults.total_injected
        run = RunMetrics(
            mode=graph.mode,
            minibatch=self._minibatch_of(graph),
            iteration_time=end_time / iterations,
            gpus=self.metrics,
            host_peak_bytes=self._host_peak,
            recovery=self.recovery,
        )
        return run

    def _check_completion(self) -> None:
        """Every task must have run to completion when the event heap drains.

        A drained simulator with unfinished tasks means the schedule
        deadlocked (a fetch or compute waited on an event that can never
        fire).  The error names the stalled tasks and streams with the
        same ``t<tid>`` / ``gpu<d>.<lane>`` identifiers the static
        analyzer's diagnostics use, so the two reports line up: a task
        never granted a slot waits on ``gpu<d>.slots``, and a CPU update
        computes on ``gpu<d>.cpu``.
        """
        stuck = [rt for rt in self.runtimes if not rt.done.fired]
        if not stuck:
            return
        details = []
        for rt in stuck[:6]:
            task = rt.task
            if rt.state_ready is None:  # never granted a slot
                where = f"waiting on {stream_ref(task.device, SLOT_LANE)}"
            elif not rt.state_ready.fired or any(
                    not event.fired for event in rt.input_ready):
                stream = stream_ref(task.device, fetch_lane(task))
                where = f"fetching inputs on {stream}"
            else:
                lane = stream_ref(task.device, compute_lane(task))
                where = f"computing on {lane}"
            details.append(f"{task_ref(task.tid)} stalled {where}")
        more = len(stuck) - len(details)
        if more > 0:
            details.append(f"+{more} more")
        raise SimulationError(
            f"schedule deadlocked: {len(stuck)} task(s) never completed "
            f"({'; '.join(details)}); run the static analyzer "
            "(repro.analysis) on this graph to locate the cycle"
        )

    # -- host memory -------------------------------------------------------------

    def _check_host_memory(self, graph: TaskGraph) -> None:
        """Model state plus all live checkpoint stash must fit host RAM.

        This is the bound that fails ZeRO-Infinity at 40B parameters in
        Figure 15 while Harmony, with its leaner working set, trains on.
        """
        peak = self.host_state_bytes + graph.checkpoint_stash_bytes()
        capacity = self.server.spec.host.memory_bytes
        if peak > capacity:
            raise HostOutOfMemoryError(
                f"host working set {peak / 2**30:.1f} GiB exceeds CPU memory "
                f"{capacity / 2**30:.1f} GiB"
            )
        self._host_peak = peak

    @staticmethod
    def _minibatch_of(graph: TaskGraph) -> int:
        fwd_like = [
            t for t in graph.tasks
            if t.kind is TaskKind.BWD
        ]
        if not fwd_like:
            return 0
        last = max(t.last_layer for t in fwd_like)
        return sum(
            t.group_samples for t in fwd_like if t.last_layer == last
        )

    @staticmethod
    def _chain(source: SimEvent, target: SimEvent,
               notify: Optional[Callable[[], None]] = None) -> None:
        """Fire ``target`` when ``source`` fires, propagating failure.

        A bare ``add_callback(lambda _v: target.succeed())`` would mask a
        failed source (the callback receives the exception as its value),
        silently completing work that actually died -- exactly the hang-
        or-lie failure mode the fault machinery must never produce.

        ``notify`` (trace hooks) runs just before the success relay; it
        rides the relay callback that exists anyway, so attaching it never
        changes which events have waiters (and therefore never converts an
        unhandled failure into a handled one).
        """

        def relay(_value: object) -> None:
            if source.failed:
                target.fail(source.exception)
            else:
                if notify is not None:
                    notify()
                target.succeed()

        source.add_callback(relay)

    def _task_tick(self, device: int, tid: int,
                   name: str) -> Callable[[], None]:
        """A ``task``-lifecycle instant emitter, traced or not.

        The closure reads ``sim.trace`` when it fires and records nothing
        when no recorder is attached then, so a recorder attached after
        executor construction still sees the ticks.
        """

        def tick() -> None:
            trace = self.sim.trace
            if trace is not None:
                trace.instant("task", name, self.sim.now, device, "compute",
                              tid)

        return tick

    # -- per-device driver ---------------------------------------------------------

    def _driver(self, device: int, tasks: list[Task], slots: Resource,
                barrier: Optional[SimEvent] = None) -> Generator:
        if barrier is not None:
            yield barrier  # previous iteration's weight updates visible
        for task in tasks:
            yield slots.request()
            rt = self.runtimes[task.tid]
            self._track_alloc(device, task)
            self._submit_fetch(device, rt)
            self._submit_compute(device, rt)
            rt.done.add_callback(lambda _v, s=slots, d=device, t=task: (
                s.release(), self._track_free(d, t)
            ))
            self._submit_outs(device, rt)

    def _track_alloc(self, device: int, task: Task) -> None:
        self._resident[device] += task.resident_bytes
        metrics = self.metrics[device]
        metrics.peak_resident_bytes = max(
            metrics.peak_resident_bytes, self._resident[device]
        )

    def _track_free(self, device: int, task: Task) -> None:
        self._resident[device] -= task.resident_bytes

    # -- fault-aware transfer -----------------------------------------------------

    def _transfer(self, route: Route, nbytes: int, device: int,
                  stream: str, label: str) -> Generator:
        """One logical transfer, retried on the fixed backoff schedule.

        Without an injector this is exactly :func:`repro.sim.links.transfer`
        (zero overhead when faults are off).  With one, each attempt asks
        the injector for a fault; transient faults back off exponentially
        (:mod:`repro.common.backoff`'s ``DEFAULT_TRANSFER_RETRIES`` and
        ``DEFAULT_BACKOFF_BASE``) and retry, and a fault on the last
        permitted attempt propagates as :class:`TransferFaultError` for
        the caller (p2p fallback, or the simulator's failure machinery)
        to handle.

        The occupied wall time (queueing plus hold, success or not) is
        accounted per device as ``swap_busy`` / ``p2p_busy`` so overlap
        analytics have an aggregate to reconcile against.
        """
        start = self.sim.now
        if self.faults is None:
            yield from transfer(self.sim, route, nbytes, label=label,
                                device=device, lane=stream)
            self._account_held(device, stream, start)
            return
        try:
            attempt = 0
            while True:
                fault = self.faults.transfer_fault(
                    device, stream, label, attempt
                )
                try:
                    yield from transfer(self.sim, route, nbytes, fault=fault,
                                        label=label, device=device,
                                        lane=stream)
                    return
                except TransferFaultError:
                    if attempt >= DEFAULT_TRANSFER_RETRIES:
                        raise
                    self.recovery.transfer_retries += 1
                    trace = self.sim.trace
                    if trace is not None:
                        trace.instant("retry", "transfer", self.sim.now,
                                      device=device, lane=stream, label=label,
                                      attempt=attempt)
                    yield self.sim.timeout(
                        exponential(attempt, DEFAULT_BACKOFF_BASE))
                    attempt += 1
        finally:
            self._account_held(device, stream, start)

    def _account_held(self, device: int, stream: str, start: float) -> None:
        held = self.sim.now - start
        busy = self.metrics[device]
        if stream.startswith("p2p"):
            busy.p2p_busy += held
        else:
            busy.swap_busy += held

    # -- fetch side -------------------------------------------------------------------

    def _dep_event(self, move: Move, consumer: Task, mb_index: Optional[int]) -> Optional[SimEvent]:
        """The event that makes ``move``'s data available at its source."""
        if move.src_task is None:
            return None
        producer = self.runtimes[move.src_task]
        wait = producer_wait(move, consumer, producer.task, mb_index)
        if wait == FLUSHED:
            return producer.outs_flushed
        if isinstance(wait, int):
            return producer.mb_done[wait]
        return producer.done

    def _p2p_source(self, device: int, move: Move) -> int:
        src_device = (
            self.runtimes[move.src_task].task.device
            if move.src_task is not None else move.peer
        )
        if src_device is None:
            raise SchedulingError(f"p2p move {move.label!r} has no source")
        return src_device

    def _fetch_op(self, device: int, move: Move, nbytes: int,
                  dep: Optional[SimEvent], label: str = "") -> Generator:
        label = label or move.label
        if dep is not None:
            yield dep
        if move.channel is Channel.LOCAL or nbytes == 0:
            return
        if move.channel is Channel.MSG and move.src_task is not None:
            yield from self._relay(self.runtimes[move.src_task].task.device,
                                   device, nbytes, label)
            return
        if move.channel is Channel.P2P:
            src_device = self._p2p_source(device, move)
            try:
                yield from self._transfer(
                    self.server.route(src_device, device), nbytes, device,
                    "p2p_in", label)
            except TransferFaultError:
                assert self.policy is not None
                if not self.policy.p2p_fallback:
                    raise
                # Graceful degradation: stage the chunk through host memory
                # on the swap route.  Bytes are re-accounted as swap traffic
                # on both endpoints (they now ride the contended host links)
                # and no longer count as p2p.
                yield from self._relay(src_device, device, nbytes,
                                       f"{label}~fallback")
                self.recovery.p2p_fallbacks += 1
                self.recovery.fallback_bytes += nbytes
                trace = self.sim.trace
                if trace is not None:
                    trace.instant("fallback", "p2p", self.sim.now,
                                  device=device, lane="swap_in", label=label,
                                  nbytes=nbytes, src=src_device)
                return
            self.metrics[device].p2p_in_bytes += nbytes
            return
        yield from self._transfer(self._swap_in[device], nbytes, device,
                                  "swap_in", label)
        self.metrics[device].swap_in_bytes += nbytes

    def _relay(self, src: int, dst: int, nbytes: int,
               label: str) -> Generator:
        """Host-staged relay GPU ``src`` -> host -> GPU ``dst`` (message
        passing, and the p2p fallback): both PCIe hops plus the host-side
        copy on ``dst``'s swap-in stream, accounted as swap traffic on
        both endpoints."""
        server = self.server
        yield from self._transfer(server.route(src, None, True), nbytes, dst,
                                  "swap_in", label)
        yield from self._transfer(server.route(None, dst), nbytes, dst,
                                  "swap_in", f"{label}^")
        self.metrics[src].swap_out_bytes += nbytes
        self.metrics[dst].swap_in_bytes += nbytes

    def _submit_fetch(self, device: int, rt: _TaskRuntime) -> None:
        task = rt.task
        streams = self.server.streams[device]
        state_events: list[SimEvent] = []
        mb_events: list[list[SimEvent]] = [[] for _ in task.microbatches]

        for move in task.ins:
            stream = fetch_stream(move)
            queue = None if stream is None else getattr(streams, stream)
            if per_task(move):
                state_events.append(self._fetch(
                    device, task, move, queue, None, move.nbytes, move.label))
                continue
            chunks = _chunk_sizes(move.nbytes, task.microbatches)
            for i, chunk in enumerate(chunks):
                mb_events[i].append(self._fetch(
                    device, task, move, queue, i, chunk, f"{move.label}#{i}"))

        rt.state_ready = self.sim.all_of(state_events)
        rt.input_ready = [
            self.sim.all_of([rt.state_ready] + events) for events in mb_events
        ]

    def _fetch(self, device: int, task: Task, move: Move,
               queue: Optional[Stream], mb_index: Optional[int], nbytes: int,
               label: str) -> SimEvent:
        """One fetch queued on ``queue``; with no stream to occupy, an
        event that fires with the producer event it waits on."""
        dep = self._dep_event(move, task, mb_index)
        if queue is None:
            event = SimEvent(self.sim)
            if dep is None:
                event.succeed()
            else:
                self._chain(dep, event)
            return event
        return queue.submit(
            self._fetch_op(device, move, nbytes, dep, label=label), label=label)

    # -- compute side ------------------------------------------------------------------

    def _compute_attempt(self, device: int, rt: _TaskRuntime, index: int,
                         duration: float) -> Generator:
        """Run one microbatch's kernels, retrying injected crashes.

        A crash wastes a fraction of the attempt's compute time (counted
        as busy -- the GPU really ran those kernels) and retries from the
        task's inputs, which are still resident on the device.  A crash on
        the final permitted attempt raises :class:`TaskCrashError`.
        """
        task = rt.task
        attempt = 0
        while self.faults is not None:
            crash = self.faults.crash_fault(task.tid, device, index, attempt)
            if crash is None:
                break
            start = self.sim.now
            yield self.sim.timeout(duration * crash.fraction)
            self.metrics[device].compute_busy += self.sim.now - start
            trace = self.sim.trace
            if trace is not None:
                trace.span("compute", f"{task.label}#{index}", start,
                           self.sim.now, device, "compute", task.tid,
                           mb=index, attempt=attempt, crashed=1)
            assert self.policy is not None
            if attempt >= self.policy.max_task_retries:
                raise crash.error
            self.recovery.compute_retries += 1
            if trace is not None:
                trace.instant("retry", "compute", self.sim.now,
                              device=device, lane="compute", tid=task.tid,
                              mb=index, attempt=attempt)
            attempt += 1
        start = self.sim.now
        yield self.sim.timeout(duration)
        self.metrics[device].compute_busy += self.sim.now - start
        trace = self.sim.trace
        if trace is not None:
            trace.span("compute", f"{task.label}#{index}", start,
                       self.sim.now, device, "compute", task.tid,
                       mb=index, attempt=attempt)

    def _submit_compute(self, device: int, rt: _TaskRuntime) -> None:
        task = rt.task
        streams = self.server.streams[device]
        if task.kind is TaskKind.UPD:
            self._submit_update(device, rt)
            return

        def mb_op(index: int, u: int) -> Generator:
            yield rt.input_ready[index]
            duration = self.time_model.microbatch_time(task, u)
            if self.faults is not None:
                lost = self.faults.lost_fault(device)
                if lost is not None:
                    # Dead hardware: the kernel launch surfaces the loss.
                    # Not retryable on this device -- escalation (rebind,
                    # elastic re-plan) happens above the iteration.
                    raise lost
                duration *= self.faults.compute_multiplier(device)
            yield from self._compute_attempt(device, rt, index, duration)
            trace = self.sim.trace
            if trace is not None:
                trace.instant("task", f"mb{index}", self.sim.now, device,
                              "compute", task.tid)
            rt.mb_done[index].succeed()

        for i, u in enumerate(task.microbatches):
            streams.compute.submit(mb_op(i, u), label=f"{task.label}#{i}")
        self._chain(self.sim.all_of(rt.mb_done), rt.done,
                    notify=self._task_tick(device, task.tid, DONE))

    def _submit_update(self, device: int, rt: _TaskRuntime) -> None:
        task = rt.task
        streams = self.server.streams[device]
        duration = self.time_model.update_time(task)
        if self.faults is not None and not task.on_cpu:
            duration *= self.faults.compute_multiplier(device)

        def op() -> Generator:
            yield rt.input_ready[0] if rt.input_ready else rt.state_ready
            if self.faults is not None and not task.on_cpu:
                # CPU-offloaded updates survive a dead GPU (the host
                # process is fine); on-GPU updates cannot run on a corpse.
                lost = self.faults.lost_fault(device)
                if lost is not None:
                    raise lost
            start = self.sim.now
            yield self.sim.timeout(duration)
            if task.on_cpu:
                self.metrics[device].cpu_busy += self.sim.now - start
            else:
                self.metrics[device].compute_busy += self.sim.now - start
            trace = self.sim.trace
            if trace is not None:
                lane = compute_lane(task)
                trace.span("compute", task.label, start, self.sim.now,
                           device, lane, task.tid, mb=0, attempt=0)
                for i in range(len(rt.mb_done)):
                    trace.instant("task", f"mb{i}", self.sim.now, device,
                                  lane, task.tid)
                trace.instant("task", DONE, self.sim.now, device, lane,
                              task.tid)
            for event in rt.mb_done:
                event.succeed()
            rt.done.succeed()

        # CPU updates run off the GPU's compute stream so they overlap GPU
        # work; on-GPU updates occupy the compute stream like any kernel.
        if compute_stream(task) is None:
            self.sim.process(op(), name=f"cpu-upd{task.tid}")
        else:
            streams.compute.submit(op(), label=task.label)

    # -- output side --------------------------------------------------------------------

    def _out_op(self, device: int, move: Move, nbytes: int,
                after: SimEvent, label: str = "") -> Generator:
        yield after
        if move.channel is Channel.LOCAL or nbytes == 0:
            return
        yield from self._transfer(self._swap_out[device], nbytes, device,
                                  "swap_out", label or move.label)
        self.metrics[device].swap_out_bytes += nbytes

    def _submit_outs(self, device: int, rt: _TaskRuntime) -> None:
        task = rt.task
        queue = getattr(self.server.streams[device], OUT_STREAM)
        events: list[SimEvent] = []
        for move in task.outs:
            if per_task(move):
                events.append(queue.submit(
                    self._out_op(device, move, move.nbytes, rt.done),
                    label=move.label,
                ))
            else:
                chunks = _chunk_sizes(move.nbytes, task.microbatches)
                for i, chunk in enumerate(chunks):
                    label = f"{move.label}#{i}"
                    events.append(queue.submit(
                        self._out_op(device, move, chunk, rt.mb_done[i],
                                     label=label),
                        label=label,
                    ))
        gate = self.sim.all_of(events + [rt.done])
        self._chain(gate, rt.outs_flushed,
                    notify=self._task_tick(device, task.tid, FLUSHED))


def run_phase(
    spec: ServerSpec,
    graph: TaskGraph,
    time_model: TrueTimeModel,
    iterations: int = 1,
    prefetch: bool = True,
    host_state_bytes: int = 0,
    faults: Optional["FaultInjector"] = None,
    recovery: Optional["RecoveryPolicy"] = None,
    trace=None,
    failed: Optional[RecoveryMetrics] = None,
) -> RunMetrics:
    """Run ``graph`` as one simulated phase on a fresh server.

    Builds a fresh :class:`Simulator` (with ``trace`` attached) and a
    :class:`SimulatedServer` of ``spec``, and runs ``iterations``
    iterations through :meth:`Executor.run` with ``faults`` armed on
    that server.
    Success or not, the phase's virtual time really elapsed, so the
    recorder's base advances by it and later phases continue the global
    timeline.  When the phase dies of a :class:`FaultError`, its partial
    recovery effort and injected faults fold into ``failed`` before the
    error propagates.
    """
    sim = Simulator()
    sim.trace = trace
    live = SimulatedServer(sim, spec)
    executor = Executor(
        live, time_model, prefetch=prefetch, host_state_bytes=host_state_bytes,
        faults=faults, recovery=recovery,
    )
    try:
        return executor.run(graph, iterations=iterations)
    except FaultError:
        if failed is not None:
            partial = getattr(executor, "recovery", None)
            if partial is not None:
                failed.accumulate(partial)
            if faults is not None:
                failed.faults_injected += faults.total_injected
        raise
    finally:
        if trace is not None:
            trace.advance(sim.now)
