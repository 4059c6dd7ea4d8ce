"""PCIe tree topology (Figure 2a of the paper).

The commodity server wires GPUs under PCIe switches; each GPU has a
dedicated x16 leaf link, switches share an uplink to the host root complex.
With four GPUs behind one uplink the host link is 4:1 oversubscribed --
the bottleneck that throttles data-parallel swapping in Figure 2(b).

Every hop is modeled as a pair of directed :class:`~repro.sim.links.Link`
objects (PCIe is full duplex), so swap-in and swap-out traffic overlap but
same-direction transfers from sibling GPUs contend.

Paths:

- GPU -> host: leaf up-link, then every switch uplink up to the root.
- host -> GPU: the reverse.
- GPU -> GPU (p2p): up-links to the lowest common ancestor switch, then
  down-links; two GPUs under the same switch never touch the host uplink,
  which is why Harmony's p2p transfers sidestep the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.common.errors import SimulationError
from repro.common.units import GB
from repro.sim.engine import Simulator
from repro.sim.links import Link

# PCIe 3.0 x16 is 16 GB/s raw per direction; DMA/protocol overhead caps
# achievable throughput around 80% of that (the usual measured 12-13 GB/s
# for large pinned transfers).
PCIE3_X16_BW = int(0.8 * 16 * GB)  # effective bytes/s, one direction

# The oversubscribed switch uplink of a single-root quad-GPU box delivers
# markedly less than line rate under concurrent multi-GPU load (root-port
# arbitration, DMA-engine sharing): ~8 GB/s aggregate is the commonly
# measured figure on ESC8000-class servers.
PCIE3_SHARED_UPLINK_BW = 8 * GB

# NVLink 2.0 delivers 25 GB/s per direction per link.  The paper's
# footnote 3 notes NVLink "will only enhance Harmony's advantages due to
# p2p transfers"; the optional NVLink mesh below lets us test that claim.
NVLINK2_BW = 25 * GB


@dataclass(frozen=True)
class TopologySpec:
    """Shape of the PCIe tree.

    ``gpus_per_switch`` controls oversubscription: ``n_gpus`` GPUs behind
    ``ceil(n_gpus / gpus_per_switch)`` switches, each switch with one
    uplink of ``uplink_bandwidth``.
    """

    n_gpus: int
    gpus_per_switch: int = 4
    leaf_bandwidth: float = PCIE3_X16_BW
    uplink_bandwidth: float = PCIE3_SHARED_UPLINK_BW
    # > 0 adds a dedicated all-pairs NVLink mesh for GPU-GPU transfers
    # (DGX-style); swaps to host still ride the PCIe tree.
    nvlink_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise SimulationError("topology needs at least one GPU")
        if self.gpus_per_switch < 1:
            raise SimulationError("gpus_per_switch must be >= 1")
        if self.nvlink_bandwidth < 0:
            raise SimulationError("nvlink bandwidth cannot be negative")

    @property
    def has_nvlink(self) -> bool:
        return self.nvlink_bandwidth > 0

    @property
    def n_switches(self) -> int:
        return -(-self.n_gpus // self.gpus_per_switch)

    def switch_of(self, gpu: int) -> int:
        if not 0 <= gpu < self.n_gpus:
            raise SimulationError(f"gpu index {gpu} out of range")
        return gpu // self.gpus_per_switch


class PcieTree:
    """Instantiated tree: directed links bound to a simulator."""

    def __init__(self, sim: Simulator, spec: TopologySpec):
        self.sim = sim
        self.spec = spec
        self.leaf_up = [
            Link(sim, f"gpu{g}.up", spec.leaf_bandwidth) for g in range(spec.n_gpus)
        ]
        self.leaf_down = [
            Link(sim, f"gpu{g}.down", spec.leaf_bandwidth) for g in range(spec.n_gpus)
        ]
        self.uplink_up = [
            Link(sim, f"sw{s}.up", spec.uplink_bandwidth)
            for s in range(spec.n_switches)
        ]
        self.uplink_down = [
            Link(sim, f"sw{s}.down", spec.uplink_bandwidth)
            for s in range(spec.n_switches)
        ]
        # Directed NVLink mesh: one link per ordered GPU pair.
        self.nvlink: dict[tuple[int, int], Link] = {}
        if spec.has_nvlink:
            for src in range(spec.n_gpus):
                for dst in range(spec.n_gpus):
                    if src != dst:
                        self.nvlink[(src, dst)] = Link(
                            sim, f"nv{src}->{dst}", spec.nvlink_bandwidth
                        )

    def gpu_to_host(self, gpu: int) -> list[Link]:
        switch = self.spec.switch_of(gpu)
        return [self.leaf_up[gpu], self.uplink_up[switch]]

    def host_to_gpu(self, gpu: int) -> list[Link]:
        switch = self.spec.switch_of(gpu)
        return [self.uplink_down[switch], self.leaf_down[gpu]]

    def gpu_to_gpu(self, src: int, dst: int) -> list[Link]:
        """Peer-to-peer path; NVLink when fitted, else the PCIe tree
        (staying below the host when both sit under one switch)."""
        if src == dst:
            return []
        if (src, dst) in self.nvlink:
            return [self.nvlink[(src, dst)]]
        src_switch = self.spec.switch_of(src)
        dst_switch = self.spec.switch_of(dst)
        if src_switch == dst_switch:
            return [self.leaf_up[src], self.leaf_down[dst]]
        return [
            self.leaf_up[src],
            self.uplink_up[src_switch],
            self.uplink_down[dst_switch],
            self.leaf_down[dst],
        ]
