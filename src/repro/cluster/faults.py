"""Cluster-scoped fault models: what can kill a whole failure domain.

Extends the per-server taxonomy (:mod:`repro.faults.plan`) one level up.
All decisions are the same *stateless* hash draws
(:mod:`repro.common.chaos`): a decision depends only on ``(seed, fault
kind, entity labels, epoch)``, never on question order, so a cluster
chaos run is byte-for-byte reproducible from its seed alone.

The cluster fault taxonomy (DESIGN.md section 14):

- **whole-server crash** -- a machine permanently dies at an iteration
  boundary (power/kernel/fabric failure); its pipeline stage must be
  restored from a replica on a survivor;
- **network partition** -- for a time window, the servers split into two
  disconnected components; transfers across the cut cannot start until
  the window heals (the runner stalls, bounded by policy);
- **NIC degradation** -- a server's NIC runs at reduced bandwidth for an
  epoch (flaky optics, congestion); lazy time-indexed multiplier exactly
  like PCIe link flapping;
- **switch flap** -- the shared switch fabric degrades for an epoch,
  slowing *all* cross-server traffic at once.

Each server also carries its own inner :class:`~repro.faults.FaultSpec`
(GPU losses, stragglers, transfer faults...), derived per-server from the
cluster seed, so intra-server chaos and cluster chaos compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.common.chaos import (
    ChaosPlan,
    ChaosSpec,
    Scripted,
    factor,
    interval,
    rate,
)
from repro.faults.plan import FaultPlan, FaultSpec


@dataclass(frozen=True)
class ClusterFaultSpec(ChaosSpec):
    """Rates and magnitudes for each cluster fault class (rates in [0, 1])."""

    #: probability a given server permanently crashes during the run
    server_crash_rate: float = rate()
    #: probability a given window epoch is a network partition
    partition_rate: float = rate()
    #: virtual seconds per partition window epoch
    partition_interval: float = interval(0.05)
    #: probability a NIC direction spends a given epoch degraded
    nic_degrade_rate: float = rate()
    #: bandwidth multiplier while a NIC is degraded
    nic_degrade_factor: float = factor(0.25)
    #: virtual seconds per NIC degradation epoch
    nic_flap_interval: float = interval(0.05)
    #: probability the switch spends a given epoch degraded
    switch_flap_rate: float = rate()
    #: bandwidth multiplier while the switch is degraded
    switch_flap_factor: float = factor(0.5)
    #: per-server (intra-machine) fault mix
    inner: FaultSpec = field(default_factory=FaultSpec)

    @classmethod
    def cluster_chaos(cls, intensity: float = 1.0) -> "ClusterFaultSpec":
        """The standard cluster chaos mix, scaled by ``intensity``.

        At intensity 1.0 a multi-server run typically sees a partition
        window or two, flapping NICs, and a whole-server crash every few
        seeds -- enough to exercise every cluster recovery rung without
        making completion unlikely.  The inner per-server mix runs at
        half intensity so cluster-level faults dominate the storm.
        """
        clamp = cls.scaled(intensity)
        return cls(
            server_crash_rate=clamp(0.25),
            partition_rate=clamp(0.15),
            nic_degrade_rate=clamp(0.10),
            switch_flap_rate=clamp(0.10),
            inner=FaultSpec.chaos(0.5 * intensity),
        )


class ClusterFaultPlan(ChaosPlan[ClusterFaultSpec]):
    """A seeded, reproducible oracle for every cluster fault decision."""

    # -- per-server inner chaos --------------------------------------------------

    def server_plan(self, server: int) -> FaultPlan:
        """The inner (intra-server) fault plan for ``server``.

        Seeds are derived per server from the cluster seed, so two
        servers never see correlated inner dice and the whole cluster
        run still reproduces from one number.
        """
        derived = int(self.draw("server-seed", server) * 2**31)
        return FaultPlan(self.spec.inner, seed=derived)

    # -- whole-server crash ------------------------------------------------------

    def server_crash(self, server: int) -> Optional[int]:
        """Iteration at which ``server`` permanently crashes, or None.

        Run-scoped like GPU loss: dead hardware stays dead across
        retries.  Drawn from ``[1, 4]`` so a crash always strikes after
        at least one healthy iteration established the replica baseline.
        """
        if not self.hit(self.spec.server_crash_rate, "server-loss", server):
            return None
        return 1 + int(self.draw("server-loss-iter", server) * 4.0)

    # -- network partition -------------------------------------------------------

    def partition_sides(self, now: float) -> Optional[int]:
        """The active partition epoch at ``now``, or None if connected."""
        epoch = int(math.floor(now / self.spec.partition_interval))
        if self.hit(self.spec.partition_rate, "partition", epoch):
            return epoch
        return None

    def partitioned(self, a: int, b: int, now: float) -> bool:
        """Are servers ``a`` and ``b`` in different components at ``now``?

        During an active partition epoch every server is hashed onto one
        of two sides; a pair is cut iff the sides differ.  Side draws are
        epoch-scoped, so consecutive partition windows can cut different
        pairs.
        """
        if a == b:
            return False
        epoch = self.partition_sides(now)
        if epoch is None:
            return False
        side = lambda s: int(self.draw("partition-side", epoch, s) * 2)  # noqa: E731
        return side(a) != side(b)

    def partition_blocked(self, pairs: Iterable[tuple[int, int]],
                          now: float) -> bool:
        """Is any of ``pairs`` cut by a partition at ``now``?"""
        return any(self.partitioned(a, b, now) for a, b in pairs)

    def next_partition_change(self, now: float) -> Optional[float]:
        """The next time the partition state can change after ``now``.

        The base plan flips only at window-epoch boundaries; scripted
        plans override this with their window edges.  Always strictly
        greater than ``now``, so heal scans make progress.
        """
        interval = self.spec.partition_interval
        return (math.floor(now / interval) + 1.0) * interval

    # -- link degradation --------------------------------------------------------

    def nic_degradation(self, server: int, direction: str, epoch: int,
                        context: tuple = ()) -> float:
        """Bandwidth multiplier for one NIC direction during ``epoch``."""
        return self.scale(self.spec.nic_degrade_rate,
                          self.spec.nic_degrade_factor,
                          "nic-flap", context, server, direction, epoch)

    def switch_degradation(self, epoch: int, context: tuple = ()) -> float:
        """Bandwidth multiplier for the shared switch during ``epoch``."""
        return self.scale(self.spec.switch_flap_rate,
                          self.spec.switch_flap_factor,
                          "switch-flap", context, epoch)


@dataclass(frozen=True)
class PartitionWindow:
    """A scripted partition: servers in ``side`` vs everyone else."""

    t0: float
    t1: float
    side: frozenset[int]

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise ValueError(f"empty partition window [{self.t0}, {self.t1})")

    def cuts(self, a: int, b: int, now: float) -> bool:
        return (
            self.t0 <= now < self.t1
            and ((a in self.side) != (b in self.side))
        )


class ScriptedClusterFaultPlan(Scripted, ClusterFaultPlan):
    """Cluster fault decisions spelled out explicitly (for tests).

    ``crashes`` maps ``server -> death iteration``; ``partitions`` is a
    sequence of :class:`PartitionWindow` (or ``(t0, t1, side_iterable)``
    tuples); ``server_plans`` overrides the inner plan per server.
    """

    def __init__(
        self,
        crashes: Optional[dict[int, int]] = None,
        partitions: Sequence = (),
        server_plans: Optional[dict[int, FaultPlan]] = None,
        spec: Optional[ClusterFaultSpec] = None,
        seed: int = 0,
    ):
        super().__init__(spec if spec is not None else ClusterFaultSpec(),
                         seed=seed)
        self.crashes = dict(crashes or {})
        self.windows = [
            w if isinstance(w, PartitionWindow)
            else PartitionWindow(w[0], w[1], frozenset(w[2]))
            for w in partitions
        ]
        self.server_plans = dict(server_plans or {})

    def server_plan(self, server: int) -> FaultPlan:
        if server in self.server_plans:
            return self.server_plans[server]
        return super().server_plan(server)

    def server_crash(self, server: int) -> Optional[int]:
        if server in self.crashes:
            return self.crashes[server]
        return super().server_crash(server)

    def partitioned(self, a: int, b: int, now: float) -> bool:
        if any(w.cuts(a, b, now) for w in self.windows):
            return True
        return super().partitioned(a, b, now)

    def next_partition_change(self, now: float) -> Optional[float]:
        edges = [t for w in self.windows for t in (w.t0, w.t1) if t > now]
        base = super().next_partition_change(now)
        if self.spec.partition_rate > 0 and base is not None:
            edges.append(base)
        if not edges:
            # No seeded partitions and no scripted edge ahead: the state
            # never changes again.
            return None
        return min(edges)


class ClusterInjector:
    """Arms a comm-phase fabric with seeded degradation and counts epochs.

    Comm phases run on private simulators whose clocks start at zero;
    ``offset`` maps local time back to the run's global clock so epoch
    draws line up across phases.  Distinct degraded ``(link, epoch)``
    pairs are accumulated across all phases the injector arms, feeding
    :class:`~repro.runtime.metrics.ClusterMetrics` fault counters.
    """

    def __init__(self, plan: ClusterFaultPlan, context: tuple = ()):
        self.plan = plan
        self.context = context
        self.nic_epochs: set[tuple[int, str, int]] = set()
        self.switch_epochs: set[int] = set()

    def arm(self, fabric, offset: float = 0.0) -> None:
        """Attach degradation closures and the partition guard."""
        for server, link in enumerate(fabric.nic_up):
            link.degradation = self._nic(server, "up", offset)
        for server, link in enumerate(fabric.nic_down):
            link.degradation = self._nic(server, "down", offset)
        fabric.switch.degradation = self._switch(offset)
        fabric.partition = (
            lambda a, b, now: self.plan.partitioned(a, b, now + offset)
        )

    def _nic(self, server: int, direction: str, offset: float):
        interval = self.plan.spec.nic_flap_interval
        def degradation(now: float) -> float:
            epoch = int(math.floor((now + offset) / interval))
            factor = self.plan.nic_degradation(server, direction, epoch,
                                               self.context)
            if factor < 1.0:
                self.nic_epochs.add((server, direction, epoch))
            return factor
        return degradation

    def _switch(self, offset: float):
        interval = self.plan.spec.nic_flap_interval
        def degradation(now: float) -> float:
            epoch = int(math.floor((now + offset) / interval))
            factor = self.plan.switch_degradation(epoch, self.context)
            if factor < 1.0:
                self.switch_epochs.add(epoch)
            return factor
        return degradation
