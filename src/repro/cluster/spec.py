"""Multi-server cluster descriptions: servers joined by a network.

A :class:`ClusterSpec` joins several
:class:`~repro.hardware.server.ServerSpec` machines through a
:class:`NetworkSpec` -- per-server full-duplex NIC links feeding a shared
switch, each modeled as a :class:`~repro.sim.links.NetworkLink` with the
same bandwidth arbitration the PCIe tree uses plus propagation latency.
A :class:`~repro.cluster.fabric.ClusterFabric` binds the network to a
simulator for the cross-server hops.

The routing model is host-to-host: Harmony's execution model flushes all
state to host memory at every iteration boundary (synchronous SGD), so
cross-server traffic -- pipeline activations, DP all-reduce shards,
checkpoint replicas, migrated state -- always originates and terminates
in host RAM.  A cross-server path is therefore
``[src NIC up, switch, dst NIC down]`` (:meth:`ClusterFabric.route`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.units import GB
from repro.hardware.server import ServerSpec, four_gpu_commodity_server


@dataclass(frozen=True)
class NetworkSpec:
    """The cluster interconnect: NIC and switch capacity plus latency.

    Bandwidths are bytes/second per direction; ``latency`` is the per-NIC
    propagation delay added to every network hold (switch latency is
    folded into the NIC figure, which is how datacenter RTTs are usually
    quoted).  The switch is a single shared full-duplex fabric: all
    cross-server transfers contend on it, the cluster analog of the
    paper's oversubscribed PCIe uplink.
    """

    #: per-server NIC bandwidth, bytes/s each direction
    bandwidth: float = 25 * GB / 8
    #: per-hop propagation delay on NIC links, seconds
    latency: float = 10e-6
    #: shared switch fabric bandwidth, bytes/s each direction
    switch_bandwidth: float = 100 * GB / 8

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError(
                f"NIC bandwidth must be positive, got {self.bandwidth}"
            )
        if self.switch_bandwidth <= 0:
            raise SimulationError(
                f"switch bandwidth must be positive, got {self.switch_bandwidth}"
            )
        if self.latency < 0:
            raise SimulationError(
                f"network latency cannot be negative, got {self.latency}"
            )

    def describe(self) -> str:
        return (
            f"{self.bandwidth * 8 / GB:.0f} Gb/s NICs, "
            f"{self.switch_bandwidth * 8 / GB:.0f} Gb/s switch, "
            f"{self.latency * 1e6:.0f}us latency"
        )


#: 25 GbE with a 100 GbE switch: the commodity-cluster baseline.
ETH_25G = NetworkSpec()

#: 100 GbE with a 400 GbE switch: the upgraded fabric.
ETH_100G = NetworkSpec(bandwidth=100 * GB / 8, latency=5e-6,
                       switch_bandwidth=400 * GB / 8)


@dataclass(frozen=True)
class ClusterSpec:
    """Several servers joined by a network: the multi-machine testbed."""

    servers: tuple[ServerSpec, ...]
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if not self.servers:
            raise SimulationError("a cluster needs at least one server")

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def total_gpus(self) -> int:
        return sum(s.n_gpus for s in self.servers)

    def describe(self) -> str:
        return (
            f"{self.n_servers} server(s) / {self.total_gpus} GPUs over "
            f"{self.network.describe()}:\n" + "\n".join(
                f"  s{i}: {s.describe()}" for i, s in enumerate(self.servers)
            )
        )


def homogeneous_cluster(
    n_servers: int,
    server: ServerSpec = None,  # type: ignore[assignment]
    network: NetworkSpec = ETH_25G,
) -> ClusterSpec:
    """``n_servers`` identical machines (default: the paper's testbed)."""
    if n_servers < 1:
        raise SimulationError(f"need at least one server, got {n_servers}")
    spec = server if server is not None else four_gpu_commodity_server()
    return ClusterSpec(servers=tuple(spec for _ in range(n_servers)),
                       network=network)

