"""Per-layer analytic cost model.

A layer is the unit the Decomposer extracts and the Profiler measures:
linear layers, transformer blocks, conv+bn+relu triples and residual
adds.  Scheduling only consumes four per-layer quantities -- compute
time, memory footprint, input size, output size -- each a function of
phase (forward/backward/update) and microbatch size.  Costs here are
affine in the microbatch size (``fixed + per_sample * u``), which is also
what lets the Profiler's linear regression interpolate unsampled sizes so
accurately (Section 4.2).

Sizes are bytes; compute is FLOPs (the hardware model converts to time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

FP32_BYTES = 4


class Phase(enum.Enum):
    """The three execution phases of a layer within one iteration."""

    FWD = "forward"
    BWD = "backward"
    UPD = "update"


@dataclass(frozen=True)
class LayerSpec:
    """Analytic description of one layer.

    ``flops_bwd_*`` defaults to twice the forward cost (the usual dgrad +
    wgrad pair); CNN layers override the ratio where the paper notes
    fwd/bwd asymmetry of 2-3x.
    """

    index: int
    name: str
    kind: str
    param_bytes: int
    flops_fwd_per_sample: float
    act_in_bytes_per_sample: int
    act_out_bytes_per_sample: int
    flops_fwd_fixed: float = 0.0
    bwd_flops_ratio: float = 2.0
    workspace_bytes_per_sample: int = 0

    def with_index(self, index: int) -> "LayerSpec":
        return replace(self, index=index)

    # -- state sizes -------------------------------------------------------

    @property
    def grad_bytes(self) -> int:
        """Gradient buffer is the same shape as the weights."""
        return self.param_bytes

    # -- per-phase compute -------------------------------------------------

    def flops(self, phase: Phase, microbatch: int) -> float:
        if microbatch < 0:
            raise ValueError(f"negative microbatch: {microbatch}")
        fwd = self.flops_fwd_fixed + self.flops_fwd_per_sample * microbatch
        if phase is Phase.FWD:
            return fwd
        if phase is Phase.BWD:
            return fwd * self.bwd_flops_ratio
        # Weight update touches each parameter a small constant number of
        # times (Adam: ~10 flops/param).
        return 10.0 * self.param_bytes / FP32_BYTES

    # -- activation sizes ----------------------------------------------------

    def act_in_bytes(self, microbatch: int) -> int:
        return self.act_in_bytes_per_sample * microbatch

    def act_out_bytes(self, microbatch: int) -> int:
        return self.act_out_bytes_per_sample * microbatch

    # -- memory footprints ---------------------------------------------------

    def fwd_memory_bytes(self, microbatch: int) -> int:
        """Resident bytes while this layer's forward kernel runs."""
        return (
            self.param_bytes
            + self.act_in_bytes(microbatch)
            + self.act_out_bytes(microbatch)
            + self.workspace_bytes_per_sample * microbatch
        )

    def bwd_memory_bytes(self, microbatch: int) -> int:
        """Resident bytes during backward: weights + grads + stash + d-acts.

        The stashed (or recomputed) output activation and the incoming
        output-gradient are both alive, as is the produced input-gradient;
        this is why backward footprints run 2-3x forward (Section 4.3.1).
        """
        return (
            self.param_bytes
            + self.grad_bytes
            + self.act_in_bytes(microbatch)
            + 2 * self.act_out_bytes(microbatch)
            + self.act_in_bytes(microbatch)  # produced dX
            + self.workspace_bytes_per_sample * microbatch
        )
