"""Harmony's Runtime (Section 4.4), on the simulated server.

One runtime process per GPU, five CUDA streams each (compute, swap-in,
swap-out, p2p-in, p2p-out), prefetch with double buffering, CPU-offloaded
weight updates, and a central memory accounting pass.  The same executor
runs Harmony task graphs and every baseline's, so throughput and swap
metrics are directly comparable.
"""

from repro.runtime.executor import Executor, run_phase
from repro.runtime.metrics import GpuMetrics, RunMetrics
from repro.runtime.timemodel import KernelTimes, TrueTimeModel

__all__ = [
    "Executor",
    "KernelTimes",
    "run_phase",
    "GpuMetrics",
    "RunMetrics",
    "TrueTimeModel",
]
