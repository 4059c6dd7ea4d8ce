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

The three LMS schemes share one schedule compiler in
:mod:`~repro.baselines.base`: :class:`~repro.baselines.base.LmsReplay`
replays each forward, backward and update step's tensor touches through
the :class:`~repro.memory.swap_manager.LruSwapManager` to derive its swap
volume (reproducing the repeated/unnecessary/unbalanced swaps of Section
2 mechanically, not by hand-coded formulas),
:func:`~repro.baselines.base.emit_step` turns each step into a task, and
:meth:`~repro.baselines.base.BaselineScheme.assemble` wraps the graph,
which the same Runtime executes, as a :class:`BaselinePlan`.  A scheme
keeps only what differs: DP its layer chunks and ring all-reduce; GPipe
and 2BW, which share one plan body, their step order and weight
versions.  The ZeRO-Infinity analog emits its own pinned, overlapped
transfers and shares the plan assembly.
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
