"""Host (CPU) side of the machine: memory capacity and optimizer compute.

Harmony keeps all model state pinned in host memory and can offload weight
updates to CPU cores (Section 4.4, "optimizer offload").  ZeRO-Infinity
does the same but with a larger working set; Figure 15 shows it exhausting
host memory at 40 B parameters while Harmony still trains; the Runtime's
host check (``Executor._check_host_memory``) is where that run fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GiB


@dataclass(frozen=True)
class HostSpec:
    """CPU sockets and memory of the server."""

    cores: int
    memory_bytes: int
    # Sustained throughput of the vectorized CPU optimizer step, per core.
    # Adam on AVX2 runs around 2-4 GFLOP/s/core for this access pattern.
    optimizer_flops_per_core: float = 3.0e9
    # Aggregate throughput of *pageable* host staging copies (the path
    # IBM-LMS-style on-demand swapping takes): every pageable transfer is
    # a CPU memcpy through DRAM, shared across all GPUs and directions.
    # Pinned, pre-allocated staging (what Harmony's runtime uses) bypasses
    # this and runs at PCIe line rate.
    pageable_copy_bandwidth: float = 6.0e9

    def optimizer_time(self, flops: float, cores_used: int | None = None) -> float:
        """Seconds for a CPU-offloaded optimizer step of ``flops``."""
        cores = self.cores if cores_used is None else min(cores_used, self.cores)
        if cores <= 0:
            raise ValueError("optimizer must use at least one core")
        return flops / (self.optimizer_flops_per_core * cores)


COMMODITY_XEON_18C = HostSpec(cores=18, memory_bytes=374 * GiB)
COMMODITY_XEON_36C = HostSpec(cores=36, memory_bytes=750 * GiB)

