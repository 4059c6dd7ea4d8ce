"""DP Swap: data parallelism with per-GPU memory virtualization.

Every GPU holds a full model replica and processes ``D/N`` samples per
iteration in microbatches (gradient accumulation), with IBM-LMS-style
swapping standing in for the memory it does not have.  The touch replay
exposes the paper's pathologies mechanically:

- *repeated swaps*: each microbatch's forward and backward re-fetch every
  layer's weights, because the stash evicted them (Section 2, item 1);
- *unnecessary swaps*: gradients and weights bounce to host between the
  backward pass and the end-of-iteration update (item 2);
- *CPU-GPU swaps only*: all N replicas hammer the shared host link with
  identical traffic -- swap volume grows linearly with N (item 3).

Result: swap volume ``(4m+2)N|W|`` plus activation/gradient traffic --
the left bars of Figure 9 and the dominant line of Figure 10.

What is DP's own: the replica's layer chunks (one task per microbatch and
chunk) and the ring all-reduce ahead of each replica's update; the touch
replay, task emission and plan assembly are :mod:`repro.baselines.base`'s.
"""

from __future__ import annotations

from repro.baselines.base import (
    BaselinePlan,
    BaselineScheme,
    LmsReplay,
    emit_step,
    layer_chunks,
    order_after,
)
from repro.core.config import Pack, microbatch_group
from repro.core.types import Channel, Move, TaskKind, TensorKind

__all__ = ["DpSwapPlanner", "layer_chunks"]


class DpSwapPlanner(BaselineScheme):
    """Plan and run DP Swap."""

    name = "dp-swap"

    def plan(self) -> BaselinePlan:
        n = self.server.n_gpus
        if self.minibatch % n:
            raise ValueError("DP minibatch must divide across GPUs")
        share = self.minibatch // n
        u = min(self.microbatch, share)
        mbs = microbatch_group(share, u)
        capacity = self.server.gpu.memory_bytes
        chunks = [Pack(first, last) for first, last
                  in layer_chunks(self.profiles, max_bytes=capacity // 8)]
        profiles = self.profiles
        graph = self.new_graph()
        last_bwd_tid: dict[int, int] = {}

        # Every replica runs all forwards, stashing every activation, then
        # all backwards in reverse, consuming the stash and accumulating
        # dW -- one task per (microbatch, chunk), each ordered after the
        # previous one.
        steps = [("F", i, chunk) for i in range(len(mbs)) for chunk in chunks]
        steps += [("B", i, chunk) for i in reversed(range(len(mbs)))
                  for chunk in reversed(chunks)]
        for gpu in range(n):
            replay = LmsReplay(capacity)
            order: list[Move] = []
            for letter, i, chunk in steps:
                if letter == "F":
                    kind, touch = TaskKind.FWD, replay.forward
                else:
                    kind, touch = TaskKind.BWD, replay.backward
                task = emit_step(
                    graph, kind, gpu, chunk, mbs[i],
                    touch(profiles, chunk, i, mbs[i]), order,
                    label=f"{letter}[{chunk.first}-{chunk.last}]mb{i}@g{gpu}",
                    recompute=False,  # DP Swap stashes; it does not remat
                )
                order = [order_after(task.tid)]
            last_bwd_tid[gpu] = task.tid

        # Allreduce + weight update, per replica.  Ring allreduce: each
        # replica receives ~2(N-1)/N |W| from its peers over p2p before
        # it can apply the averaged gradient.
        whole = Pack(0, len(profiles) - 1)
        ring_bytes = int(2 * (n - 1) / n * profiles.total_param_bytes)
        for gpu in range(n):
            traffic = LmsReplay(capacity).update(
                profiles, whole, self.model.optimizer_slots
            )
            ring = [
                Move(tensor=TensorKind.DW, nbytes=ring_bytes // max(1, n - 1),
                     channel=Channel.P2P, peer=peer,
                     src_task=last_bwd_tid[peer], label=f"allreduce<-g{peer}")
                for peer in range(n) if peer != gpu
            ]
            emit_step(graph, TaskKind.UPD, gpu, whole, 1, traffic, ring,
                      label=f"U@g{gpu}")

        return self.assemble(
            graph, u, f"{len(mbs)} microbatches/GPU, {len(chunks)} layer chunks"
        )
