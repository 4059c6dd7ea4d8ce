"""Server presets and the instantiated simulated server.

:class:`ServerSpec` is the static description users hand to Harmony's
Scheduler (GPU count/type, host memory, topology); :class:`SimulatedServer`
binds that spec to a simulator instance with live links, routes and
streams for the Runtime to execute against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from repro.common.fingerprint import fingerprint
from repro.hardware.gpu import GTX_1080TI, GpuSpec
from repro.hardware.host import COMMODITY_XEON_18C, COMMODITY_XEON_36C, HostSpec
from repro.hardware.interconnect import PcieTree, TopologySpec
from repro.sim.engine import Simulator
from repro.sim.links import Link, Route
from repro.sim.stream import StreamSet


@dataclass(frozen=True)
class ServerSpec:
    """Static machine description consumed by the Scheduler."""

    n_gpus: int
    gpu: GpuSpec = GTX_1080TI
    host: HostSpec = COMMODITY_XEON_18C
    topology: TopologySpec = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.topology is None:
            object.__setattr__(
                self, "topology", TopologySpec(n_gpus=self.n_gpus)
            )
        if self.topology.n_gpus != self.n_gpus:
            raise ValueError(
                f"topology describes {self.topology.n_gpus} GPUs, "
                f"server has {self.n_gpus}"
            )

    @cached_property
    def fingerprint(self) -> str:
        """Content address of the whole machine: GPU count, GPU and host
        specs and the PCIe topology, every field walked.  Cached: the
        spec is frozen, and a plan key is made per request."""
        return fingerprint(self)

    @property
    def collective_gpu_memory(self) -> int:
        return self.n_gpus * self.gpu.memory_bytes

    def with_gpus(self, n_gpus: int) -> "ServerSpec":
        """The same machine with ``n_gpus`` GPUs (``self`` if unchanged).

        Per-GPU and host specs are unchanged; the PCIe tree keeps its
        shape (switch fan-out, link bandwidths) with more or fewer
        leaves.
        """
        if n_gpus == self.n_gpus:
            return self
        return ServerSpec(
            n_gpus=n_gpus,
            gpu=self.gpu,
            host=self.host,
            topology=replace(self.topology, n_gpus=n_gpus),
        )

    def describe(self) -> str:
        return (
            f"{self.n_gpus}x {self.gpu.name} "
            f"({self.gpu.memory_bytes // 2**30} GiB each), "
            f"{self.host.cores}-core host with "
            f"{self.host.memory_bytes // 2**30} GiB RAM"
        )


def four_gpu_commodity_server() -> ServerSpec:
    """The paper's main testbed: 4x GTX-1080Ti, 18-core Xeon, 374 GB RAM."""
    return ServerSpec(n_gpus=4, gpu=GTX_1080TI, host=COMMODITY_XEON_18C)


def eight_gpu_commodity_server() -> ServerSpec:
    """The scaling testbed of Section 5.7: 8 GPUs, 36 cores, 750 GB RAM."""
    return ServerSpec(
        n_gpus=8,
        gpu=GTX_1080TI,
        host=COMMODITY_XEON_36C,
        topology=TopologySpec(n_gpus=8, gpus_per_switch=4),
    )


class SimulatedServer:
    """Live server: links, routes and per-GPU stream sets.

    One instance per simulated run; the Runtime executes task graphs
    against it and metrics are read back from streams/links afterwards.
    It holds no memory model: GPU and host capacity are the analyzer's
    ``capacity`` pass to certify, and the Executor's host check is the
    one capacity bound enforced during a run.

    Every route a run takes is built once, on first use, by
    :meth:`route`, and kept for the run.  Routes hold live links, so the
    table belongs to this server and nothing is shared across runs.
    """

    def __init__(self, sim: Simulator, spec: ServerSpec):
        self.sim = sim
        self.spec = spec
        self.tree = PcieTree(sim, spec.topology)
        self.streams = [
            StreamSet(sim, f"gpu{g}", device=g) for g in range(spec.n_gpus)
        ]
        # Shared pageable-staging engine (a host DRAM memcpy lane) that
        # LMS-style on-demand swaps must traverse; pinned transfers skip it.
        self.pageable_staging = Link(
            sim, "host-staging", spec.host.pageable_copy_bandwidth
        )
        self._routes: dict[tuple[Optional[int], Optional[int], bool],
                           Route] = {}

    def route(self, src: Optional[int], dst: Optional[int],
              staged: bool = False) -> Route:
        """The route from ``src`` to ``dst``, each a GPU index or None for
        host memory: host -> GPU, GPU -> host, or GPU -> GPU (zero hops
        when ``src == dst``).  ``staged`` appends the pageable staging
        engine, as every pageable swap and every host relay's down leg
        takes it.  Built on the first call and reused for the run.
        """
        key = (src, dst, staged)
        route = self._routes.get(key)
        if route is None:
            tree = self.tree
            if src is None:
                hops = tree.host_to_gpu(dst)  # type: ignore[arg-type]
            elif dst is None:
                hops = tree.gpu_to_host(src)
            else:
                hops = tree.gpu_to_gpu(src, dst)
            if staged:
                hops = hops + [self.pageable_staging]
            route = self._routes[key] = Route(hops)
        return route

    def compute_time(self, flops: float) -> float:
        return self.spec.gpu.compute_time(flops)
