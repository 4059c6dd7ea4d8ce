"""Cluster execution under failure domains: the server-level ladder.

The :class:`ClusterRunner` drives a :class:`~repro.cluster.placement.ClusterPlan`
iteration by iteration.  Each cluster iteration has three phases:

1. **boundary** -- detect whole-server crashes (seeded, run-scoped, like
   GPU loss one level down) and re-plan on the survivors when the
   current placement uses a dead or retired server.  Re-planning
   migrates checkpointed stage state over the real network links (a
   :func:`~repro.runtime.migration.run_transfers` phase), sourcing a
   dead owner's state from its replica buddy;
2. **compute** -- every stage runs one iteration of its own per-server
   fault-tolerant runner (:class:`~repro.faults.runner.FaultTolerantRunner`
   stepped with a shared :class:`~repro.faults.runner.RunnerState`), so
   the whole intra-server ladder -- transfer retry, p2p fallback,
   compute retry, restart, rebind, elastic re-plan -- still applies
   inside each machine.  A stage that exhausts its inner ladder
   escalates here: the server is condemned, the cluster re-plans on the
   survivors, and the iteration retries once on the new placement;
3. **comm** -- the cross-server traffic of the iteration (pipeline
   boundary activations and gradients, or the DP ring all-reduce, plus
   buddy checkpoint replication) moves over the simulated network
   fabric in another transfer phase, with seeded NIC/switch degradation
   armed and partition windows pre-checked: a cut pair stalls the phase
   until the window heals (bounded by ``MAX_PARTITION_WAIT``, then a
   typed failure).

Both network phases move :class:`~repro.elastic.migration.MigrationMove`
lists between servers, and every phase reconciles each network link's
byte counter against the bytes its moves routed over it.

The escalation ladder one level up from the per-server one, cheapest
rung first: intra-server recovery -> replica restore + cross-server
re-plan -> pipeline stage shrink -> typed
:class:`~repro.common.errors.ClusterFaultError`.  Every outcome is
typed; nothing hangs (every phase simulator runs under a watchdog, every
stall scan is bounded).

Timing model: pipeline stages execute sequentially within a cluster
iteration (the conservative GPipe-style flush -- no cross-iteration
overlap), DP replicas execute concurrently; the cluster iteration time
is the stage sum (pp) or max (dp) plus communication, stalls, and
migration.  Failed compute attempts contribute no time (fail-stop at
the boundary); their recovery effort still lands in the counters.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.common.errors import (
    ClusterFaultError,
    FaultError,
    ReproError,
    UnrecoveredFaultError,
)
from repro.cluster.fabric import ClusterFabric
from repro.cluster.faults import ClusterFaultPlan, ClusterFaultSpec, ClusterInjector
from repro.cluster.placement import ClusterPlan, ClusterPlanner
from repro.elastic.migration import MigrationMove
from repro.elastic.replanner import ElasticReplanner
from repro.faults.monitor import ServerHealthMonitor
from repro.faults.runner import FaultTolerantRunner, RunnerState
from repro.runtime.metrics import (
    ClusterMetrics,
    ElasticMetrics,
    RecoveryMetrics,
    RunMetrics,
)
from repro.runtime.migration import run_transfers
from repro.runtime.timemodel import KernelTimes, TrueTimeModel
from repro.sim.engine import Simulator


def _moving(moves: list[MigrationMove]) -> list[MigrationMove]:
    """The moves that put bytes on the network."""
    return [m for m in moves if m.src != m.dst and m.nbytes > 0]


def _migration_span(move: MigrationMove) -> tuple[str, dict]:
    # cat "cluster", not "migration": the fault-event invariant pairs
    # "migration" spans 1:1 with per-server elastic counters, and
    # cross-server moves are counted separately in
    # ClusterMetrics.migration_moves.
    return "cluster", {"kind_": "migration", "src": move.src,
                       "dst": move.dst}


#: consecutive degraded iterations (heavy inner recovery) before a
#: *live* server is retired; a crashed or hard-failed server escalates
#: immediately, like GPU loss one level down
SERVER_PATIENCE = 2
#: virtual seconds a comm phase may stall waiting for a partition window
#: to heal before the run fails typed
MAX_PARTITION_WAIT = 1.0
#: total partition stalls tolerated per run
MAX_PARTITION_STALLS = 8


class ClusterRunner:
    """Run cluster iterations under a cluster fault plan, recovering
    where the ladder allows; every outcome is typed.

    Each stage's per-server runner uses the default
    :class:`~repro.faults.policy.RecoveryPolicy`, and every pipeline
    stage replicates its checkpoint to a buddy server each iteration
    (the state source for whole-server-loss recovery).
    ``max_cluster_replans`` bounds the cluster-level re-plans per run.
    """

    def __init__(
        self,
        planner: ClusterPlanner,
        fault_plan: Optional[ClusterFaultPlan] = None,
        *,
        trace=None,
        max_cluster_replans: int = 4,
    ):
        if max_cluster_replans < 0:
            raise ValueError("max_cluster_replans must be >= 0")
        self.planner = planner
        self.fault_plan = (
            fault_plan if fault_plan is not None
            else ClusterFaultPlan(ClusterFaultSpec.none())
        )
        self.trace = trace
        self.max_cluster_replans = max_cluster_replans
        self.metrics = ClusterMetrics()
        self.monitor: ServerHealthMonitor = ServerHealthMonitor(
            SERVER_PATIENCE
        )
        self.dead: set[int] = set()
        self.retired: set[int] = set()
        #: current plan's stage index -> buddy server holding its replica
        self.replicas: dict[int, int] = {}
        self.injector = ClusterInjector(self.fault_plan)
        #: accumulated per-network-link goodput across all phases, for
        #: byte reconciliation against the trace
        self.network_link_bytes: Counter[str] = Counter()
        self._plan: Optional[ClusterPlan] = None
        self._runtimes: list[tuple[FaultTolerantRunner, RunnerState]] = []

    # -- trace helpers ------------------------------------------------------------

    def _mark(self, name: str, **meta) -> None:
        """A cluster-level control instant at the current global time."""
        if self.trace is not None:
            self.trace.instant("cluster", name, 0.0, lane="cluster", **meta)

    # -- plan binding -------------------------------------------------------------

    def _survivors(self) -> tuple[int, ...]:
        gone = self.dead | self.retired
        return tuple(
            s for s in range(self.planner.cluster.n_servers) if s not in gone
        )

    def _bind(self, plan: ClusterPlan) -> None:
        """Install a plan: build one stepped per-server runner per stage."""
        self._plan = plan
        self._runtimes = []
        for stage in plan.stages:
            spec = self.planner.cluster.servers[stage.server]
            time_model = TrueTimeModel(
                KernelTimes(stage.plan.decomposed, spec.gpu), spec.host,
                n_gpus=spec.n_gpus,
            )
            runner = FaultTolerantRunner(
                spec, time_model, self.fault_plan.server_plan(stage.server),
                prefetch=stage.harmony.options.prefetch,
                host_state_bytes=stage.harmony.host_state_bytes,
                replanner=ElasticReplanner(stage.harmony),
                trace=None,  # device ids collide across servers; the
                # cluster lane carries the cross-server timeline instead
            )
            state = RunnerState(runner.policy.replan_patience)
            self._runtimes.append((runner, state))
        self.replicas = {}

    # -- fabric + connectivity ----------------------------------------------------

    def _await_connectivity(
        self, pairs: set[tuple[int, int]], t_global: float, what: str,
    ) -> float:
        """Stall until no needed pair is partitioned; typed on budget.

        The scan walks partition-state change points (window-epoch
        boundaries / scripted window edges), so it terminates after at
        most ``MAX_PARTITION_WAIT / interval`` steps -- never a hang.
        """
        if not self.fault_plan.enabled or not pairs:
            return t_global
        t = t_global
        epochs = 0
        while self.fault_plan.partition_blocked(pairs, t):
            nxt = self.fault_plan.next_partition_change(t)
            if nxt is None or nxt - t_global > MAX_PARTITION_WAIT:
                self.metrics.partition_stalls += 1
                self.metrics.partition_epochs += max(epochs, 1)
                raise ClusterFaultError(
                    f"network partition blocking {what} did not heal within "
                    f"{MAX_PARTITION_WAIT:g}s "
                    f"(cut pairs: {sorted(pairs)})",
                    entity="net.partition",
                )
            epochs += 1
            t = nxt
        if epochs:
            stall = t - t_global
            self.metrics.partition_stalls += 1
            self.metrics.partition_stall_time += stall
            self.metrics.partition_epochs += epochs
            self._mark("partition-stall", stall=stall, what=what)
            if self.trace is not None:
                self.trace.advance(stall)
            if self.metrics.partition_stalls > MAX_PARTITION_STALLS:
                raise ClusterFaultError(
                    f"partition stall budget exhausted "
                    f"({self.metrics.partition_stalls} > "
                    f"{MAX_PARTITION_STALLS})",
                    entity="net.partition",
                )
        return t

    def _run_transfers(self, moves: list[MigrationMove], t_global: float,
                       span=None) -> float:
        """Run cross-server moves as one transfer phase on a fresh fabric
        (armed with seeded degradation and the partition guard as of
        global time ``t_global``); returns the phase duration."""

        def fabric(sim: Simulator) -> ClusterFabric:
            built = ClusterFabric(sim, self.planner.cluster)
            if self.fault_plan.enabled:
                self.injector.arm(built, offset=t_global)
            return built

        time, link_bytes = run_transfers(
            moves, fabric,
            lambda built, m: [(built.route(m.src, m.dst), m.label)],
            lane="cluster", trace=self.trace, span=span,
        )
        self.network_link_bytes.update(link_bytes)
        return time

    # -- boundary: crash detection + re-plan --------------------------------------

    def _detect_crashes(self, iteration: int) -> None:
        if not self.fault_plan.enabled:
            return
        for server in range(self.planner.cluster.n_servers):
            if server in self.dead:
                continue
            death = self.fault_plan.server_crash(server)
            if death is not None and death <= iteration:
                self.dead.add(server)
                self.metrics.servers_lost += 1
                self.metrics.server_crashes += 1
                self.monitor.forget(server)
                self._mark(f"s{server}-crash", iteration=iteration)

    def _replan(self, iteration: int, t_global: float) -> float:
        """Re-plan on the survivors and migrate state; typed on failure."""
        survivors = self._survivors()
        if not survivors:
            raise ClusterFaultError(
                f"all {self.planner.cluster.n_servers} servers lost by "
                f"iteration {iteration}",
                entity="cluster",
            )
        if self.metrics.cluster_replans >= self.max_cluster_replans:
            raise ClusterFaultError(
                f"cluster re-plan budget exhausted "
                f"({self.max_cluster_replans}) at iteration {iteration}",
                entity="cluster",
            )
        old = self._plan
        assert old is not None
        try:
            new = self.planner.plan_for(survivors)
        except FaultError:
            raise
        except ReproError as exc:
            raise ClusterFaultError(
                f"cluster re-plan on {len(survivors)} survivor(s) failed "
                f"at iteration {iteration}: {exc}",
                entity="cluster",
            ) from exc
        gone = self.dead | self.retired
        moves, restores, lost = self.planner.migration_moves(
            old, new, gone, self.replicas,
        )
        for stage, reason in lost:
            if reason == "replica-dead":
                raise ClusterFaultError(
                    f"stage {stage} state lost at iteration {iteration}: "
                    f"owner and replica buddy both dead",
                    entity=f"stage{stage}",
                )
            # no-replica: the owner crashed before the first replication
            # round ever ran -- the stage re-initializes locally from the
            # iteration-0 checkpoint baseline (zero network bytes).
            restores += 1
            self._mark(f"stage{stage}-reinit", iteration=iteration)
        pairs = {(m.src, m.dst) for m in moves}
        t_global = self._await_connectivity(pairs, t_global, "migration")
        real = _moving(moves)
        duration = self._run_transfers(real, t_global, span=_migration_span)
        self.metrics.migration_moves += len(real)
        self.metrics.migration_network_bytes += sum(m.nbytes for m in moves)
        self.metrics.migration_time += duration
        t_global += duration
        self.metrics.cluster_replans += 1
        self.metrics.state_restores += restores
        if len(new.stages) < len(old.stages):
            self.metrics.stage_shrinks += 1
            self._mark("stage-shrink", before=len(old.stages),
                       after=len(new.stages))
        self._mark("replan", iteration=iteration,
                   survivors=len(survivors), stages=len(new.stages))
        self._bind(new)
        return t_global

    def _boundary(self, iteration: int, t_global: float) -> float:
        self._detect_crashes(iteration)
        plan = self._plan
        assert plan is not None
        gone = self.dead | self.retired
        if gone & set(plan.servers):
            t_global = self._replan(iteration, t_global)
        return t_global

    # -- compute phase ------------------------------------------------------------

    def _compute(
        self, iteration: int, t_global: float,
        recovery: RecoveryMetrics, elastic: ElasticMetrics,
    ) -> tuple[float, int]:
        """One cluster iteration of per-server compute.

        Returns ``(new t_global, host peak bytes)``.  A stage whose inner
        ladder is exhausted condemns its server, re-plans, and retries
        the iteration on the new placement; the retry loop is bounded by
        the re-plan budget (each retry permanently removes a server).
        """
        while True:
            plan = self._plan
            assert plan is not None
            times: list[tuple[int, float]] = []
            host_peak = 0
            failed: Optional[int] = None
            try:
                for stage, (runner, state) in zip(plan.stages,
                                                  self._runtimes):
                    failed = stage.server
                    graph = (
                        state.graph if state.graph is not None
                        else stage.plan.graph
                    )
                    m = runner.run(graph, iterations=1,
                                   start_iteration=iteration, state=state)
                    recovery.accumulate(m.recovery)
                    elastic.accumulate(m.elastic)
                    host_peak = max(host_peak, m.host_peak_bytes)
                    times.append((stage.server, m.iteration_time))
                    # Soft signal: heavy inner recovery earns a strike;
                    # enough consecutive strikes retire the server at
                    # this boundary (re-plan fires below via retry or at
                    # the next iteration's boundary check).
                    degraded = m.recovery.restarts > 0
                    if (self.monitor.observe(stage.server, degraded,
                                             window=iteration)
                            and stage.server not in self.retired):
                        self.retired.add(stage.server)
                        self.metrics.servers_retired += 1
                        self.monitor.forget(stage.server)
                        self._mark(f"s{stage.server}-retired",
                                   iteration=iteration)
            except UnrecoveredFaultError as exc:
                # The server's whole intra-server ladder failed: condemn
                # it (dead hardware semantics -- no patience) and retry
                # the iteration on a re-planned placement.
                assert failed is not None
                if failed not in self.retired:
                    self.retired.add(failed)
                    self.metrics.servers_retired += 1
                self.monitor.forget(failed)
                self._mark(f"s{failed}-failed", iteration=iteration,
                           cause=type(exc).__name__)
                t_global = self._replan(iteration, t_global)
                continue
            break
        if plan.mode == "pp":
            # Conservative GPipe-style flush: stages run sequentially.
            t = 0.0
            for server, duration in times:
                if self.trace is not None:
                    self.trace.span("cluster", f"s{server}.compute",
                                    t, t + duration, lane="cluster",
                                    iteration=iteration)
                t += duration
            phase = t
        else:
            # DP replicas run concurrently; the slowest paces the step.
            for server, duration in times:
                if self.trace is not None:
                    self.trace.span("cluster", f"s{server}.compute",
                                    0.0, duration, lane="cluster",
                                    iteration=iteration)
            phase = max((d for _, d in times), default=0.0)
        if self.trace is not None:
            self.trace.advance(phase)
        return t_global + phase, host_peak

    # -- comm phase ---------------------------------------------------------------

    def _comm_moves(self) -> tuple[list[MigrationMove], int,
                                   dict[int, int]]:
        """The iteration's cross-server traffic: ``(moves, replication
        bytes, new replica map)``."""
        plan = self._plan
        assert plan is not None
        moves: list[MigrationMove] = []
        repl_bytes = 0
        replicas: dict[int, int] = {}
        stages = plan.stages
        if plan.mode == "pp":
            for k in range(len(stages) - 1):
                src, dst = stages[k].server, stages[k + 1].server
                nbytes = stages[k].boundary_out_bytes
                moves.append(MigrationMove(src, dst, nbytes,
                                           f"act.s{src}->s{dst}"))
                moves.append(MigrationMove(dst, src, nbytes,
                                           f"grad.s{dst}->s{src}"))
            if len(stages) > 1:
                for k, stage in enumerate(stages):
                    buddy = stages[(k + 1) % len(stages)].server
                    if buddy == stage.server:
                        continue
                    replicas[k] = buddy
                    moves.append(MigrationMove(
                        stage.server, buddy, stage.state_bytes,
                        f"repl.stage{k}",
                    ))
                    repl_bytes += stage.state_bytes
        else:
            n = len(stages)
            if n > 1:
                # Ring all-reduce: each participant ships 2(n-1)/n of the
                # gradient bytes to its ring successor per iteration.
                ring = int(
                    2 * (n - 1) * self.planner.model.weight_bytes / n
                )
                for i, stage in enumerate(stages):
                    dst = stages[(i + 1) % n].server
                    moves.append(MigrationMove(
                        stage.server, dst, ring,
                        f"allreduce.s{stage.server}->s{dst}",
                    ))
            # DP state is replicated by construction: no explicit moves.
        return moves, repl_bytes, replicas

    def _comm(self, iteration: int, t_global: float) -> float:
        moves, repl_bytes, replicas = self._comm_moves()
        real = _moving(moves)
        pairs = {(m.src, m.dst) for m in real}
        t_global = self._await_connectivity(pairs, t_global,
                                            f"iteration {iteration} comm")
        duration = self._run_transfers(real, t_global)
        self.metrics.network_bytes += sum(m.nbytes for m in real)
        self.metrics.replication_bytes += repl_bytes
        self.replicas = replicas
        return t_global + duration

    # -- the run loop -------------------------------------------------------------

    def run(self, iterations: int = 1) -> RunMetrics:
        """Execute ``iterations`` cluster iterations under the fault plan.

        Every outcome is typed: success returns metrics; an exhausted
        recovery ladder raises :class:`ClusterFaultError` (or the inner
        typed fault); an accounting violation raises
        :class:`SimulationError`.  Nothing hangs: all phase simulators
        run under watchdogs and all stall scans are bounded.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        plan = self.planner.plan_for(self._survivors())
        self._bind(plan)
        recovery = RecoveryMetrics()
        elastic = ElasticMetrics()
        t_global = 0.0
        host_peak = 0
        try:
            for iteration in range(iterations):
                t_global = self._boundary(iteration, t_global)
                t_global, peak = self._compute(iteration, t_global,
                                               recovery, elastic)
                host_peak = max(host_peak, peak)
                t_global = self._comm(iteration, t_global)
        finally:
            self.metrics.nic_degrade_epochs = len(self.injector.nic_epochs)
            self.metrics.switch_flap_epochs = len(self.injector.switch_epochs)
        if self.trace is not None:
            from repro.trace.invariants import check_network_reconciliation

            check_network_reconciliation(self.trace.events,
                                         self.network_link_bytes)
        assert self._plan is not None
        return RunMetrics(
            mode=f"cluster-{self.planner.mode}",
            minibatch=self.planner.minibatch,
            iteration_time=t_global / iterations,
            gpus=[],  # per-GPU detail lives in the per-server runs
            host_peak_bytes=host_peak,
            recovery=recovery,
            elastic=elastic,
            cluster=self.metrics,
        )
