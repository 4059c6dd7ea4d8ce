"""GP Swap: GPipe pipeline parallelism with per-GPU memory virtualization.

The model is split into N compute-balanced stages pinned one per GPU
(early binding); microbatches flow through all stages' forwards, then all
backwards, with a pipeline flush per iteration.  Stage state that exceeds
GPU memory is virtualized by the LMS replay, which exposes the paper's
*unbalanced swaps* (Section 2, item 4): without recomputation the head
stages stash activations for every in-flight microbatch, so their swap
load -- and hence the pipeline's bottleneck -- is far higher than the
tail's (Figure 2c).

``recompute=True`` gives the GP Swap (R) variant: stages checkpoint only
their input and rematerialize in the backward pass, trading compute for a
large reduction in stash traffic (the (R) bars of Figure 9).

:class:`PipelineSwapScheme` is the plan body GP Swap shares with 2BW Swap
(:mod:`repro.baselines.pipedream_2bw`): the schemes differ only in their
step order, their weight versions and the host state those versions need.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselinePlan,
    BaselineScheme,
    LmsReplay,
    emit_step,
    order_after,
)
from repro.common.errors import SchedulingError
from repro.core.config import Pack, microbatch_group, packs_from_boundaries
from repro.core.types import Channel, Move, TaskKind, TensorKind
from repro.graph.layer import Phase

#: One pipeline step: ("F" or "B", stage, microbatch index).
Step = tuple[str, int, int]


def compute_balanced_stages(profiles, n_stages: int) -> tuple[Pack, ...]:
    """Split layers into ``n_stages`` contiguous stages with near-equal
    total (forward + backward) compute -- how GPipe/PipeDream partition."""
    n_layers = len(profiles)
    if not 1 <= n_stages <= n_layers:
        raise SchedulingError(
            f"cannot split {n_layers} layers into {n_stages} stages"
        )
    times = [
        profiles[i].time(Phase.FWD, 1) + profiles[i].time(Phase.BWD, 1)
        for i in range(n_layers)
    ]
    prefix = np.cumsum(times)
    targets = np.arange(1, n_stages) * (prefix[-1] / n_stages)
    cuts = np.searchsorted(prefix, targets) + 1
    cuts = np.clip(cuts, 1, n_layers - 1)
    boundaries = [0] + sorted(set(int(c) for c in cuts))
    # Degenerate tiny models: cut after the last boundary while layers
    # remain, then at the first unused layers.
    spare = (layer for layer in range(1, n_layers) if layer not in boundaries)
    while len(boundaries) < n_stages:
        if boundaries[-1] + 1 < n_layers:
            boundaries.append(boundaries[-1] + 1)
        else:
            boundaries.append(next(spare))
            boundaries.sort()
    return packs_from_boundaries(boundaries, n_layers)


class PipelineSwapScheme(BaselineScheme):
    """Compute-balanced stages pinned one per GPU, replayed through LMS in
    the order :meth:`steps` gives, then one weight update per stage."""

    #: Weight versions each stage keeps; microbatch ``i`` uses ``i % n``.
    weight_versions = 1
    #: ``notes`` prefix, formatted with ``stages`` and ``microbatches``.
    schedule_notes = ""

    def __init__(self, *args, recompute: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.recompute = recompute
        if recompute:
            self.name = f"{self.name}-r"

    def default_microbatch(self) -> int:
        """Pipelines need several microbatches per stage to fill (GPipe
        recommends m >= 4x the stage count), on top of the memory bound."""
        fit = super().default_microbatch()
        pipelined = max(1, self.minibatch // (4 * self.server.n_gpus))
        return min(fit, pipelined)

    def host_state_bytes(self) -> int:
        return (super().host_state_bytes()
                + (self.weight_versions - 1) * self.model.weight_bytes)

    def steps(self, n_stages: int, n_mbs: int) -> list[Step]:
        """Every forward and backward step, in an order that respects the
        cross-stage data dependencies."""
        raise NotImplementedError

    def version(self, mb: int) -> str:
        """The weight-key suffix microbatch ``mb`` reads."""
        return "" if self.weight_versions == 1 else f"@{mb % self.weight_versions}"

    def plan(self) -> BaselinePlan:
        n = self.server.n_gpus
        u = min(self.microbatch, self.minibatch)
        mbs = microbatch_group(self.minibatch, u)
        stages = compute_balanced_stages(self.profiles, n)
        profiles = self.profiles
        graph = self.new_graph()
        replays = [LmsReplay(self.server.gpu.memory_bytes) for _ in range(n)]
        tids: dict[Step, int] = {}
        last_bwd: dict[int, int] = {}

        for step in self.steps(n, len(mbs)):
            letter, s, i = step
            stage, size = stages[s], mbs[i]
            # A forward takes its input activation from the previous
            # stage, a backward its output gradient from the next one.
            if letter == "F":
                kind, touch, peer = TaskKind.FWD, replays[s].forward, s - 1
                tensor, label = TensorKind.X, "act"
                nbytes = profiles.boundary_in_bytes(stage, size)
            else:
                kind, touch, peer = TaskKind.BWD, replays[s].backward, s + 1
                tensor, label = TensorKind.DY, "grad-act"
                nbytes = profiles.boundary_out_bytes(stage, size)
            traffic = touch(profiles, stage, i, size, self.version(i),
                            self.recompute)
            boundary = [
                Move(tensor=tensor, nbytes=nbytes, channel=Channel.P2P,
                     peer=peer, src_task=tids[(letter, peer, i)], label=label)
            ] if 0 <= peer < n else []
            task = emit_step(
                graph, kind, s, stage, size, traffic, boundary,
                label=f"{letter}{s}mb{i}",
                recompute=self.recompute and letter == "B",
            )
            tids[step] = task.tid
            if letter == "B":
                last_bwd[s] = task.tid

        # Per-stage weight update at iteration end.
        for s, stage in enumerate(stages):
            traffic = replays[s].update(
                profiles, stage, self.model.optimizer_slots, self.version(0)
            )
            emit_step(graph, TaskKind.UPD, s, stage, 1, traffic,
                      [order_after(last_bwd[s])], label=f"U{s}")

        notes = self.schedule_notes.format(stages=n, microbatches=len(mbs))
        return self.assemble(
            graph, u,
            f"{notes}, recompute={'on' if self.recompute else 'off'}",
        )


class GpipeSwapPlanner(PipelineSwapScheme):
    """Plan and run GP Swap / GP Swap (R)."""

    name = "gp-swap"
    schedule_notes = "{stages} stages, {microbatches} microbatches"

    def steps(self, n_stages: int, n_mbs: int) -> list[Step]:
        """All forwards stage-major per microbatch (pipelined by the p2p
        dependencies), then -- after the flush -- all backwards in
        reverse."""
        forwards = [("F", s, i) for i in range(n_mbs) for s in range(n_stages)]
        backwards = [("B", s, i) for i in reversed(range(n_mbs))
                     for s in reversed(range(n_stages))]
        return forwards + backwards
