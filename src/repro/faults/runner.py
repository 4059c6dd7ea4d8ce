"""Fault-tolerant execution: checkpoint/restart, re-bind, invariants.

The :class:`FaultTolerantRunner` wraps the plain executor with the two
recovery mechanisms that live *above* a single iteration:

- **iteration-boundary checkpoint/restart** -- synchronous SGD flushes all
  state to host at every iteration boundary (that is the Harmony execution
  model), so the last completed iteration is always a consistent
  checkpoint.  An iteration attempt killed by an escalated fault is simply
  re-run at once on a fresh simulated server, with fresh (still
  seed-deterministic) fault dice for the ``(iteration, attempt)`` context
  -- otherwise the identical fault would deterministically recur forever;
- **late-binding re-bind** -- tasks carry a device *binding*, not an
  identity (Section 4.3.2's late binding), so at an iteration boundary the
  tasks of a dead GPU, or of one persistently slowed by
  :data:`~repro.faults.policy.REBIND_THRESHOLD` or more, can be re-bound
  to a healthy spare device.  P2P moves whose endpoints collapse onto one
  device become LOCAL (no traffic), exactly the transformation
  :func:`repro.elastic.rebind.rebind_graph` performs.  Re-binding repeats
  as often as trouble appears: a second device degrading later in the run
  is rescued exactly like the first, as long as spares remain;
- **elastic re-plan** -- when a device is permanently *lost* (or a
  degraded device has struck out past the health monitor's patience) and
  no spare exists, the runner escalates past binding patches entirely:
  the Harmony scheduler re-plans on the surviving device subset
  (:class:`repro.elastic.ElasticReplanner`), the re-planned graph is
  verified strictly against the reduced spec, and the checkpointed
  model/optimizer state migrates from the old packing to the new one
  over the real simulated links
  (:class:`repro.runtime.migration.MigrationExecutor`, a
  :func:`~repro.runtime.migration.run_transfers` phase) -- the
  migration's time and bytes land in
  :class:`~repro.runtime.metrics.ElasticMetrics`.

The escalation ladder, cheapest rung first: transfer retry -> p2p->swap
fallback -> compute retry -> iteration restart -> re-bind -> re-plan.

The runner audits every completed iteration with
:func:`check_byte_invariants`: whatever faults were injected and
recovered, the bytes that actually moved must still reconcile with the
task graph's static totals (fallback traffic re-accounted, nothing lost,
nothing double-counted).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import (
    FaultError,
    ReproError,
    SchedulingError,
    SimulationError,
    UnrecoveredFaultError,
)
from repro.core.types import Channel, TaskGraph
from repro.elastic.migration import plan_migration
from repro.elastic.rebind import rebind_graph
from repro.faults.injector import FaultInjector
from repro.faults.monitor import DeviceHealthMonitor
from repro.faults.plan import FaultPlan
from repro.faults.policy import REBIND_THRESHOLD, RecoveryPolicy
from repro.hardware.server import ServerSpec
from repro.runtime.executor import run_phase
from repro.runtime.metrics import (
    ElasticMetrics,
    GpuMetrics,
    RecoveryMetrics,
    RunMetrics,
)
from repro.runtime.migration import MigrationExecutor
from repro.runtime.timemodel import TrueTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.elastic.replanner import ElasticReplanner

__all__ = [
    "FaultTolerantRunner",
    "RunnerState",
    "check_byte_invariants",
    "rebind_graph",  # re-exported from repro.elastic.rebind
]


class RunnerState:
    """Recovery state carried across :meth:`FaultTolerantRunner.run` calls.

    The runner is normally self-contained: one ``run()`` call owns the
    health monitor, the dead/retired device sets, and the current
    (possibly rebound or re-planned) graph.  A caller that steps a run
    iteration-by-iteration -- the cluster runner interleaves per-server
    compute with cross-server communication every iteration -- passes a
    ``RunnerState`` instead, so strikes, losses, and graph rescues
    persist between calls exactly as they would inside one long run.
    ``graph`` holds the current executable graph after each call; the
    caller passes it back in as the next call's input graph.
    """

    def __init__(self, patience: int):
        self.monitor = DeviceHealthMonitor(patience)
        self.dead: set[int] = set()
        self.retired: set[int] = set()
        self.graph: Optional[TaskGraph] = None


def check_byte_invariants(graph: TaskGraph, metrics: RunMetrics) -> None:
    """Reconcile one iteration's measured traffic with the graph's totals.

    Holds fault or no fault:

    - p2p bytes that actually moved, plus bytes rescued by the
      p2p->host-staged fallback, equal the graph's static p2p total;
    - swap bytes equal the graph's static host-link total, plus the extra
      relay leg of each MSG move (the executor counts both hops of the
      GPU->host->GPU relay), plus *twice* the fallback bytes (a fallback
      rides both hops of the same relay route).

    Raises :class:`~repro.common.errors.SimulationError` on mismatch --
    a recovery path that lost or double-counted traffic.
    """
    fallback = metrics.recovery.fallback_bytes
    actual_p2p = metrics.global_p2p_bytes
    expected_p2p = graph.p2p_bytes()
    if actual_p2p + fallback != expected_p2p:
        raise SimulationError(
            f"p2p byte accounting broken: moved {actual_p2p} + fallback "
            f"{fallback} != static {expected_p2p}"
        )
    msg_relay = sum(
        m.nbytes
        for task in graph.tasks
        for m in task.ins
        if m.channel is Channel.MSG and m.src_task is not None
    )
    actual_swap = metrics.global_swap_bytes
    expected_swap = graph.global_swap_bytes() + msg_relay + 2 * fallback
    if actual_swap != expected_swap:
        raise SimulationError(
            f"swap byte accounting broken: moved {actual_swap} != static "
            f"{graph.global_swap_bytes()} + msg relay {msg_relay} + "
            f"2*fallback {2 * fallback}"
        )


class FaultTolerantRunner:
    """Run a task graph under a fault plan, recovering where policy allows.

    Each iteration attempt is one
    :func:`~repro.runtime.executor.run_phase` on a fresh simulator and
    server -- the simulated analog of restarting from the
    iteration-boundary checkpoint.  This is timing-faithful because
    iterations are flush-separated anyway (synchronous SGD): the plain
    multi-iteration executor also starts every iteration from an all-idle,
    all-flushed state.  Without an enabled plan, the whole run is one
    plain phase.  A bound plan needs no binding here: ``spec`` is its
    physical machine, its FLOPs scales are in ``time_model``, and its
    memory scales were certified by the analyzer when it was bound.
    """

    def __init__(
        self,
        spec: ServerSpec,
        time_model: TrueTimeModel,
        plan: Optional[FaultPlan],
        policy: Optional[RecoveryPolicy] = None,
        prefetch: bool = True,
        host_state_bytes: int = 0,
        replanner: Optional["ElasticReplanner"] = None,
        trace=None,
    ):
        self.spec = spec
        self.time_model = time_model
        self.plan = plan
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.prefetch = prefetch
        self.host_state_bytes = host_state_bytes
        #: elastic escalation target; None leaves only rebind-level rescue
        #: (anything with ``.replan(survivors) -> ElasticPlan`` works)
        self.replanner = replanner
        #: optional :class:`~repro.trace.recorder.TraceRecorder`; attached
        #: to every attempt's fresh simulator and advanced by each phase's
        #: duration so all attempts/migrations form one global timeline
        self.trace = trace

    def _mark(self, cat: str, name: str, **meta) -> None:
        """A run-level control instant at the current global trace time."""
        if self.trace is not None:
            self.trace.instant(cat, name, 0.0, lane="run", **meta)

    # -- execution ----------------------------------------------------------------

    def _phase(self, graph: TaskGraph, iterations: int = 1,
               faults: Optional[FaultInjector] = None,
               failed: Optional[RecoveryMetrics] = None) -> RunMetrics:
        """One executor phase on a fresh simulated server (the restart
        from the iteration-boundary checkpoint)."""
        return run_phase(
            self.spec, graph, self.time_model,
            iterations=iterations,
            prefetch=self.prefetch,
            host_state_bytes=self.host_state_bytes,
            faults=faults,
            recovery=self.policy,
            trace=self.trace,
            failed=failed,
        )

    # -- rescue (re-bind and elastic escalation) ----------------------------------

    def _rescue(
        self,
        current: TaskGraph,
        iteration: int,
        attempt: int,
        recovery: RecoveryMetrics,
        elastic: ElasticMetrics,
        monitor: DeviceHealthMonitor,
        dead: set[int],
        retired: set[int],
    ) -> TaskGraph:
        """Rescue ``current`` from dead/degraded devices before an attempt.

        Called at every iteration boundary (``attempt == 0``) and again
        between restart attempts (``attempt > 0``) so a mid-iteration GPU
        loss is recovered on the very next attempt instead of burning the
        whole restart budget.  The ladder, cheapest rung first:

        1. **re-bind**: troubled in-use devices (lost first, then
           persistently degraded by ``REBIND_THRESHOLD`` or more) move 1:1
           onto idle healthy spares -- repeatable, every boundary;
        2. **re-plan**: devices still stranded after re-binding escalate.
           A *lost* device escalates immediately (dead hardware earns no
           patience); a *degraded* one only after ``replan_patience``
           consecutive strikes on the health monitor.  The scheduler
           re-plans on the survivors and state migrates to the new
           packing at real link cost.

        A device dying at iteration ``i`` is only treated as detected
        once an attempt of iteration ``i`` has actually failed -- the
        loss surfaces as a :class:`GpuLostError` first, like real XID
        detection, so the injected fault is observed, counted, and then
        recovered.
        """
        probe = FaultInjector(self.plan, context=(iteration, attempt))
        horizon = iteration if attempt > 0 else iteration - 1
        for device, death in probe.lost_gpus(self.spec.n_gpus):
            if death <= horizon and device not in dead:
                dead.add(device)
                elastic.devices_lost += 1
                monitor.forget(device)
        used = {t.device for t in current.tasks}
        degraded: dict[int, float] = {}
        if iteration > 0 and attempt == 0 and self.policy.rebind:
            degraded = {
                device: multiplier
                for device, multiplier, persistent in
                probe.degraded_gpus(self.spec.n_gpus)
                if persistent
                and multiplier >= REBIND_THRESHOLD
                and device not in dead and device not in retired
            }
        # Rung 1: 1:1 re-bind onto idle healthy spares, lost devices first.
        if self.policy.rebind:
            spares = [
                d for d in range(self.spec.n_gpus)
                if d not in used and d not in dead and d not in retired
                and d not in degraded
            ]
            mapping: dict[int, int] = {}
            troubled = sorted(dead & used) + sorted(
                d for d in degraded if d in used
            )
            for device in troubled:
                if not spares:
                    break
                mapping[device] = spares.pop(0)
            if mapping:
                current = rebind_graph(current, mapping,
                                       n_devices=self.spec.n_gpus)
                recovery.rebinds += len(mapping)
                for src, dst in sorted(mapping.items()):
                    self._mark("rebind", f"gpu{src}->gpu{dst}",
                               iteration=iteration)
                used = {t.device for t in current.tasks}
        # Rung 2: elastic re-plan for whoever re-binding could not save.
        stranded_lost = sorted(dead & used)
        condemned: set[int] = set()
        if iteration > 0 and attempt == 0:
            for device in sorted(used - dead):
                if monitor.observe(device, device in degraded,
                                   window=iteration):
                    condemned.add(device)
        if not stranded_lost and not condemned:
            return current
        if (
            not self.policy.elastic
            or self.replanner is None
            or elastic.replans >= self.policy.max_replans
        ):
            # No re-plan available: a stranded loss keeps failing until
            # the restart budget surfaces it as UnrecoveredFaultError; a
            # stranded straggler just runs slow (degradation, not death).
            return current
        survivors = [
            d for d in range(self.spec.n_gpus)
            if d not in dead and d not in retired and d not in condemned
        ]
        try:
            eplan = self.replanner.replan(survivors)
            moves = plan_migration(
                current, eplan.graph, eplan.plan.profiles, lost=dead,
            )
            report = MigrationExecutor(
                self.spec, p2p=eplan.plan.options.p2p, trace=self.trace,
            ).run(moves)
        except FaultError:
            raise
        except ReproError as exc:
            stranded = stranded_lost or sorted(condemned)
            raise UnrecoveredFaultError(
                f"elastic re-plan on {len(survivors)} survivor(s) failed "
                f"at iteration {iteration}: {exc}",
                entity=f"gpu{stranded[0]}" if stranded else "",
            ) from exc
        for device in condemned:
            retired.add(device)
            monitor.forget(device)
        elastic.replans += 1
        self._mark("replan", eplan.graph.mode, iteration=iteration,
                   survivors=len(survivors))
        if eplan.mode_switched:
            elastic.mode_switches += 1
        elastic.migrations += report.n_moves
        elastic.migration_time += report.time
        elastic.migration_p2p_bytes += report.p2p_bytes
        elastic.migration_host_bytes += report.host_bytes
        return eplan.graph

    def run(self, graph: TaskGraph, iterations: int = 1,
            start_iteration: int = 0,
            state: Optional[RunnerState] = None) -> RunMetrics:
        """Execute ``iterations`` iterations under the fault plan.

        ``start_iteration`` offsets the iteration numbering: fault-plan
        contexts, loss-detection horizons, and monitor windows all use
        the absolute iteration number, so a caller stepping the run one
        iteration per call (passing a shared ``state``) sees exactly the
        faults and escalations a single ``run(iterations=N)`` call would
        -- run-scoped losses persist, strikes accumulate, and the rescued
        graph carries forward through ``state.graph``.
        """
        if iterations < 1:
            raise SchedulingError("need at least one iteration")
        if self.plan is None or not self.plan.enabled:
            # Zero-overhead path: no injector, no recovery machinery --
            # the plain executor phase.
            metrics = self._phase(graph, iterations=iterations)
            if state is not None:
                state.graph = graph
            return metrics

        if state is None:
            state = RunnerState(self.policy.replan_patience)
        recovery = RecoveryMetrics()
        elastic = ElasticMetrics()
        monitor = state.monitor
        dead = state.dead
        retired = state.retired
        gpus = [GpuMetrics() for _ in range(self.spec.n_gpus)]
        total_time = 0.0
        host_peak = 0
        minibatch = 0
        current = graph

        def rescue(iteration: int, attempt: int) -> None:
            # Migration is wall-clock the run really spends: fold the
            # phase's virtual time into the total alongside iterations.
            nonlocal current, total_time
            before = elastic.migration_time
            current = self._rescue(current, iteration, attempt, recovery,
                                   elastic, monitor, dead, retired)
            total_time += elastic.migration_time - before

        for iteration in range(start_iteration, start_iteration + iterations):
            rescue(iteration, 0)
            metrics: Optional[RunMetrics] = None
            for attempt in range(self.policy.max_iteration_restarts + 1):
                try:
                    # A failed attempt's recovery effort and injected
                    # faults still happened: they fold into ``recovery``.
                    metrics = self._phase(
                        current, failed=recovery, faults=FaultInjector(
                            self.plan, context=(iteration, attempt)),
                    )
                except FaultError as exc:
                    recovery.faults_fatal += 1
                    if attempt >= self.policy.max_iteration_restarts:
                        raise UnrecoveredFaultError(
                            f"iteration {iteration} failed "
                            f"{attempt + 1} attempt(s); last fault: {exc}",
                            entity=getattr(exc, "entity", ""),
                        ) from exc
                    recovery.restarts += 1
                    self._mark("restart", f"iteration{iteration}",
                               attempt=attempt, cause=type(exc).__name__)
                    rescue(iteration, attempt + 1)
                    continue
                break
            assert metrics is not None
            check_byte_invariants(current, metrics)
            recovery.accumulate(metrics.recovery)
            for device, g in enumerate(metrics.gpus):
                gpus[device].accumulate(g)
            total_time += metrics.iteration_time
            host_peak = max(host_peak, metrics.host_peak_bytes)
            minibatch = metrics.minibatch
        state.graph = current
        for g in gpus:
            g.per_iteration(iterations)
        return RunMetrics(
            mode=graph.mode,
            minibatch=minibatch,
            iteration_time=total_time / iterations,
            gpus=gpus,
            host_peak_bytes=host_peak,
            recovery=recovery,
            elastic=elastic,
        )
