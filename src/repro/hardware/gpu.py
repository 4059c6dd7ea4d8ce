"""GPU device model.

A :class:`GpuSpec` carries the two numbers scheduling cares about:
memory capacity and sustained compute throughput.  Nothing allocates
against the capacity at run time; the analyzer's ``capacity`` pass
certifies a schedule's peak residency against it before execution.

The default spec models the paper's GTX-1080Ti: 11 GB of GDDR5X and
11.3 TFLOPS fp32 peak.  Real training kernels sustain well below peak;
``efficiency`` folds that in so profiled layer times land in the same
regime as the paper's measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GiB


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU model."""

    name: str
    memory_bytes: int
    peak_flops: float
    efficiency: float = 0.45

    @property
    def sustained_flops(self) -> float:
        """Throughput a well-tuned dense kernel actually achieves."""
        return self.peak_flops * self.efficiency

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        return flops / self.sustained_flops


GTX_1080TI = GpuSpec(name="GTX-1080Ti", memory_bytes=11 * GiB, peak_flops=11.34e12)

