"""Baseline training schemes with per-GPU memory virtualization.

The paper constructs its comparison points by augmenting standard
parallel-training schemes with IBM-LMS-style per-GPU swapping:

- :mod:`~repro.baselines.dp_swap` -- data parallelism + per-GPU swap
  (with gradient accumulation),
- :mod:`~repro.baselines.gpipe_swap` -- GPipe pipeline + per-GPU swap,
  with and without recomputation,
- :mod:`~repro.baselines.pipedream_2bw` -- PipeDream-2BW (1F1B, double
  weight versions) + per-GPU swap, with and without recomputation,
- :mod:`~repro.baselines.zero_infinity` -- a ZeRO-Infinity analog: sharded
  state streamed from host per layer pack per microbatch, CPU optimizer.

Each planner replays its schedule's tensor touches through the
:class:`~repro.memory.swap_manager.LruSwapManager` to derive swap volumes
(reproducing the repeated/unnecessary/unbalanced swaps of Section 2
mechanically, not by hand-coded formulas), then emits a task graph that
the same Runtime executes.
"""

from repro.baselines.base import BaselinePlan, BaselineScheme
from repro.baselines.dp_swap import DpSwapPlanner
from repro.baselines.gpipe_swap import GpipeSwapPlanner
from repro.baselines.pipedream_2bw import PipeDream2BWPlanner
from repro.baselines.zero_infinity import ZeroInfinityPlanner

__all__ = [
    "BaselinePlan",
    "BaselineScheme",
    "DpSwapPlanner",
    "GpipeSwapPlanner",
    "PipeDream2BWPlanner",
    "ZeroInfinityPlanner",
]
