"""The cluster network fabric: NIC links, the shared switch, routing.

Every server gets a full-duplex NIC pair (``s<i>.nic.up`` toward the
switch, ``s<i>.nic.down`` from it); one shared ``net.switch`` link
carries all cross-server traffic, so concurrent transfers between
different server pairs still contend -- the cluster-scale analog of the
paper's oversubscribed PCIe uplink.  Links are
:class:`~repro.sim.links.NetworkLink` instances, so the fault subsystem's
degradation hooks and the byte counters work unchanged.

An optional *partition guard* models network partitions: when armed
(a callable ``(src, dst, now) -> bool``), :meth:`ClusterFabric.route`
raises :class:`~repro.common.errors.NetworkPartitionError` for pairs in
different components instead of returning a route.  The cluster runner
pre-checks partitions and stalls until the window heals, so an armed
guard firing means the stall logic is broken -- it turns a silent wrong
schedule into a typed error.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import NetworkPartitionError, SimulationError
from repro.cluster.spec import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.links import NetworkLink, Route


class ClusterFabric:
    """The instantiated network: per-server NIC pairs plus the switch."""

    def __init__(self, sim: Simulator, spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        net = spec.network
        self.nic_up = [
            NetworkLink(sim, f"s{i}.nic.up", net.bandwidth, net.latency)
            for i in range(spec.n_servers)
        ]
        self.nic_down = [
            NetworkLink(sim, f"s{i}.nic.down", net.bandwidth, net.latency)
            for i in range(spec.n_servers)
        ]
        self.switch = NetworkLink(sim, "net.switch", net.switch_bandwidth)
        #: optional partition oracle ``(src, dst, now) -> bool``; armed by
        #: the chaos injector for comm phases
        self.partition: Optional[Callable[[int, int, float], bool]] = None
        #: routes by ``(src, dst)``, each built on first use
        self._routes: dict[tuple[int, int], Route] = {}

    def _check(self, server: int) -> None:
        if not 0 <= server < self.spec.n_servers:
            raise SimulationError(
                f"server s{server} out of range "
                f"(cluster has {self.spec.n_servers})"
            )

    def route(self, src: int, dst: int) -> Route:
        """Host-to-host network route from server ``src`` to ``dst``.

        Zero hops for ``src == dst`` (co-located endpoints move no
        network bytes).  Raises :class:`NetworkPartitionError` when an
        armed partition guard puts the pair in different components.
        Each route is built on the first call and reused.
        """
        self._check(src)
        self._check(dst)
        if (src != dst and self.partition is not None
                and self.partition(src, dst, self.sim.now)):
            raise NetworkPartitionError(
                f"s{src} and s{dst} are in different partition components "
                f"at t={self.sim.now:.6g}",
                entity=f"s{src}->s{dst}",
            )
        route = self._routes.get((src, dst))
        if route is None:
            hops = ([] if src == dst else
                    [self.nic_up[src], self.switch, self.nic_down[dst]])
            route = self._routes[src, dst] = Route(hops)
        return route

    def network_links(self) -> list[NetworkLink]:
        """All fabric links in canonical (name-stable) order."""
        return [*self.nic_up, *self.nic_down, self.switch]

    def bytes_by_link(self) -> dict[str, int]:
        """Per-link goodput counters, keyed by link name."""
        return {link.name: link.bytes_moved for link in self.network_links()}
