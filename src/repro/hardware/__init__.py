"""Machine model: GPUs, host memory, PCIe tree interconnect, server presets.

The paper evaluates on commodity ASUS ESC8000-class servers with four or
eight GTX-1080Ti GPUs behind a PCIe 3.0 tree.  This package parameterizes
that machine so experiments can sweep GPU count, memory capacity, and link
topology.
"""

from repro.hardware.gpu import GpuSpec, GTX_1080TI
from repro.hardware.host import HostSpec
from repro.hardware.interconnect import PcieTree
from repro.hardware.server import (
    ServerSpec,
    SimulatedServer,
    four_gpu_commodity_server,
    eight_gpu_commodity_server,
)

__all__ = [
    "GpuSpec",
    "GTX_1080TI",
    "HostSpec",
    "PcieTree",
    "ServerSpec",
    "SimulatedServer",
    "four_gpu_commodity_server",
    "eight_gpu_commodity_server",
]
