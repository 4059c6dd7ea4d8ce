"""Execution metrics collected by the Runtime.

Everything the paper's figures plot comes from here: iteration time (and
thus throughput), per-GPU swap-in/out volume, global swap volume, p2p
volume, per-stream busy time, and memory high-water marks.  Fault-tolerant
runs additionally report recovery counters (retries, p2p->swap fallbacks,
re-binds, restarts) through :class:`RecoveryMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.trace.analytics import TraceAnalytics


@dataclass
class _Accumulating:
    """Counters that fold across iterations, restarts and stages."""

    def accumulate(self, other: "_Accumulating") -> None:
        """Fold ``other`` in: every field sums, except the
        ``peak_resident_bytes`` high-water mark, which takes the max."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(mine, theirs)
                    if f.name == "peak_resident_bytes" else mine + theirs)


@dataclass
class GpuMetrics(_Accumulating):
    """Per-GPU counters for one iteration."""

    swap_in_bytes: int = 0
    swap_out_bytes: int = 0
    p2p_in_bytes: int = 0
    compute_busy: float = 0.0
    cpu_busy: float = 0.0
    #: wall time the swap engine was occupied (queueing + link holds)
    swap_busy: float = 0.0
    #: wall time the p2p engine was occupied (queueing + link holds)
    p2p_busy: float = 0.0
    peak_resident_bytes: int = 0

    @property
    def swap_bytes(self) -> int:
        return self.swap_in_bytes + self.swap_out_bytes

    def per_iteration(self, iterations: int) -> None:
        """Turn counters summed over ``iterations`` iterations into
        per-iteration figures (byte counts floor-divide); the
        ``peak_resident_bytes`` high-water mark stays as it is."""
        for f in fields(self):
            if f.name != "peak_resident_bytes":
                value = getattr(self, f.name)
                setattr(self, f.name, value // iterations
                        if f.type == "int" else value / iterations)


@dataclass
class RecoveryMetrics(_Accumulating):
    """Every recovery action a fault-tolerant run took, by mechanism.

    ``faults_injected`` counts fault deliveries by the chaos engine
    (transfer faults, crashes, degraded-link path acquisitions, straggler
    GPUs, pressure epochs); the remaining counters say what the runtime
    did about them.  ``faults_fatal`` counts fault escalations that killed
    a whole iteration attempt (each one pairs with a restart, except the
    last when the run ultimately failed).
    """

    transfer_retries: int = 0
    compute_retries: int = 0
    p2p_fallbacks: int = 0
    fallback_bytes: int = 0
    rebinds: int = 0
    restarts: int = 0
    faults_injected: int = 0
    faults_fatal: int = 0

    @property
    def total_actions(self) -> int:
        return (
            self.transfer_retries + self.compute_retries + self.p2p_fallbacks
            + self.rebinds + self.restarts
        )

    @property
    def any(self) -> bool:
        return self.total_actions > 0 or self.faults_injected > 0

    def describe(self) -> str:
        return (
            f"faults {self.faults_injected} injected / "
            f"{self.faults_fatal} fatal; recovery: "
            f"{self.transfer_retries} transfer retries, "
            f"{self.compute_retries} compute retries, "
            f"{self.p2p_fallbacks} p2p->swap fallbacks "
            f"({self.fallback_bytes / 2**20:.2f} MiB), "
            f"{self.rebinds} rebinds, {self.restarts} restarts"
        )


@dataclass
class ElasticMetrics(_Accumulating):
    """Every elastic action a run took: re-plans and state migration.

    All zeros unless the escalation ladder actually reached a re-plan --
    the bit-identity guarantee for fault-free (and spare-rescued) runs
    depends on this staying pay-for-use.
    """

    #: full scheduler re-invocations on a reduced device set
    replans: int = 0
    #: devices permanently lost during the run
    devices_lost: int = 0
    #: re-plans that had to change execution mode (e.g. DP -> PP)
    mode_switches: int = 0
    #: aggregated migration moves executed across all re-plans
    migrations: int = 0
    #: virtual seconds spent migrating state (included in total run time)
    migration_time: float = 0.0
    #: migration bytes that rode surviving p2p paths
    migration_p2p_bytes: int = 0
    #: migration bytes that rode host links (restores, spills, relays)
    migration_host_bytes: int = 0

    @property
    def migration_bytes(self) -> int:
        return self.migration_p2p_bytes + self.migration_host_bytes

    @property
    def any(self) -> bool:
        return (
            self.replans > 0 or self.devices_lost > 0
            or self.migrations > 0
        )

    def describe(self) -> str:
        switches = (
            f" ({self.mode_switches} mode switch(es))"
            if self.mode_switches else ""
        )
        return (
            f"elastic: {self.devices_lost} device(s) lost, "
            f"{self.replans} re-plan(s){switches}; migration "
            f"{self.migrations} moves, {self.migration_time:.3f}s, "
            f"p2p {self.migration_p2p_bytes / 2**20:.2f} MiB, "
            f"host {self.migration_host_bytes / 2**20:.2f} MiB"
        )


@dataclass
class ClusterMetrics(_Accumulating):
    """Every cluster-level fault and recovery action a run took.

    Pay-for-use like :class:`ElasticMetrics`: all zeros on a single-server
    run (the field stays ``None`` on :class:`RunMetrics` there), and the
    per-category fault counters double as the ``--json`` chaos report's
    cluster section.
    """

    #: servers permanently crashed (injected whole-server loss)
    servers_lost: int = 0
    #: servers retired by the server health monitor (struck out)
    servers_retired: int = 0
    #: cluster-level re-plans (stage remap / reshard on the survivors)
    cluster_replans: int = 0
    #: re-plans that reduced the pipeline stage count
    stage_shrinks: int = 0
    #: comm phases stalled waiting for a partition window to heal
    partition_stalls: int = 0
    #: virtual seconds spent stalled on partitions (in total run time)
    partition_stall_time: float = 0.0
    #: cross-server bytes moved (activations, gradients, allreduce,
    #: replication) over the network fabric
    network_bytes: int = 0
    #: subset of ``network_bytes`` that was buddy checkpoint replication
    replication_bytes: int = 0
    #: state-migration moves executed over network links after re-plans
    migration_moves: int = 0
    #: migration bytes that rode the network fabric
    migration_network_bytes: int = 0
    #: virtual seconds spent in cross-server state migration
    migration_time: float = 0.0
    #: stage states restored from a buddy replica (owner was dead)
    state_restores: int = 0
    # -- injected cluster faults, by category (the chaos report's counts) --
    server_crashes: int = 0
    partition_epochs: int = 0
    nic_degrade_epochs: int = 0
    switch_flap_epochs: int = 0

    @property
    def any(self) -> bool:
        return (
            self.servers_lost > 0 or self.servers_retired > 0
            or self.cluster_replans > 0 or self.partition_stalls > 0
            or self.network_bytes > 0 or self.migration_moves > 0
            or self.server_crashes > 0 or self.partition_epochs > 0
            or self.nic_degrade_epochs > 0 or self.switch_flap_epochs > 0
        )

    def fault_counts(self) -> dict[str, int]:
        """Injected cluster faults by category (for the chaos report)."""
        return {
            "server_crash": self.server_crashes,
            "partition": self.partition_epochs,
            "nic_degrade": self.nic_degrade_epochs,
            "switch_flap": self.switch_flap_epochs,
        }

    def describe(self) -> str:
        return (
            f"cluster: {self.servers_lost} server(s) lost "
            f"(+{self.servers_retired} retired), "
            f"{self.cluster_replans} cluster re-plan(s) "
            f"({self.stage_shrinks} stage shrink(s), "
            f"{self.state_restores} replica restore(s)); "
            f"network {self.network_bytes / 2**20:.2f} MiB "
            f"(repl {self.replication_bytes / 2**20:.2f} MiB), migration "
            f"{self.migration_moves} moves / "
            f"{self.migration_network_bytes / 2**20:.2f} MiB / "
            f"{self.migration_time:.3f}s; "
            f"{self.partition_stalls} partition stall(s) "
            f"({self.partition_stall_time:.3f}s); faults "
            f"{self.server_crashes} crash, {self.partition_epochs} "
            f"partition, {self.nic_degrade_epochs} nic, "
            f"{self.switch_flap_epochs} switch epochs"
        )


@dataclass
class RunMetrics:
    """One iteration's results."""

    mode: str
    minibatch: int
    iteration_time: float
    gpus: list[GpuMetrics] = field(default_factory=list)
    host_peak_bytes: int = 0
    recovery: RecoveryMetrics = field(default_factory=RecoveryMetrics)
    elastic: ElasticMetrics = field(default_factory=ElasticMetrics)
    #: Derived timeline analytics, present when the run was traced
    #: (:mod:`repro.trace`).  When set, the fraction accessors below use
    #: exact interval arithmetic over the trace instead of aggregate
    #: counters.
    trace: Optional["TraceAnalytics"] = None
    #: Cluster-level counters, present when these metrics describe a
    #: multi-server :class:`repro.cluster.ClusterRunner` run.
    cluster: Optional[ClusterMetrics] = None

    @property
    def throughput(self) -> float:
        """Samples per second.  0.0 on a degenerate (zero-duration) run."""
        if self.iteration_time <= 0:
            return 0.0
        return self.minibatch / self.iteration_time

    @property
    def global_swap_bytes(self) -> int:
        """Aggregate CPU<->GPU traffic across all GPUs (Figure 10c)."""
        return sum(g.swap_bytes for g in self.gpus)

    @property
    def global_p2p_bytes(self) -> int:
        return sum(g.p2p_in_bytes for g in self.gpus)

    def idle_fraction(self, gpu: int) -> float:
        """Fraction of the iteration ``gpu`` spent idle.

        With trace analytics attached this is exact (the complement of
        the measure of the union of the device's compute spans over the
        traced window); otherwise it falls back to the aggregate busy
        counter, which agrees on any run where attempts never overlap --
        i.e. always, since the compute lane is serial; the trace test
        suite asserts the two paths coincide on fault-free runs.

        0.0 on a degenerate run (no virtual time elapsed): an idle
        fraction of an instantaneous run is meaningless, and callers
        plotting it want a finite number, not a ZeroDivisionError.
        """
        if self.trace is not None and gpu < self.trace.n_devices:
            return self.trace.idle_fraction(gpu)
        if self.iteration_time <= 0:
            return 0.0
        busy = self.gpus[gpu].compute_busy
        return max(0.0, 1.0 - busy / self.iteration_time)

    def overlap_fraction(self, gpu: int) -> float:
        """Fraction of ``gpu``'s swap/p2p engine time hidden under compute.

        This is the number Harmony's double-buffered prefetch exists to
        maximize.  Exact (measure of compute spans intersect swap holds,
        over the swap hold time) when trace analytics are attached;
        without a trace only an upper bound is computable from
        aggregates -- ``min(compute_busy, swap_busy) / swap_busy`` --
        and that bound is returned.
        """
        if self.trace is not None and gpu < self.trace.n_devices:
            return self.trace.overlap_fraction(gpu)
        g = self.gpus[gpu]
        if g.swap_busy <= 0:
            return 0.0
        return min(g.compute_busy, g.swap_busy) / g.swap_busy

    def describe(self) -> str:
        lines = [
            f"{self.mode}: iteration {self.iteration_time:.3f}s, "
            f"{self.throughput:.2f} samples/s, "
            f"global swap {self.global_swap_bytes / 2**30:.2f} GiB, "
            f"p2p {self.global_p2p_bytes / 2**30:.2f} GiB"
        ]
        for i, g in enumerate(self.gpus):
            lines.append(
                f"  gpu{i}: swap in {g.swap_in_bytes / 2**30:.2f} GiB / "
                f"out {g.swap_out_bytes / 2**30:.2f} GiB, "
                f"idle {self.idle_fraction(i) * 100:.0f}%"
            )
        if self.recovery.any:
            lines.append(f"  {self.recovery.describe()}")
        if self.elastic.any:
            lines.append(f"  {self.elastic.describe()}")
        if self.cluster is not None and self.cluster.any:
            lines.append(f"  {self.cluster.describe()}")
        if self.trace is not None:
            lines.extend(
                "  " + line for line in self.trace.describe().splitlines()
            )
        return "\n".join(lines)
