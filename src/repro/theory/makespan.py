"""The simplified Harmony scheduling problem (Definition A.1).

Input: ``B`` microbatches, ``G`` GPUs, memory ``M`` per GPU, and ``n``
layers with processing times ``p_i`` and weight sizes ``m_i``.  A solution
partitions the layers into contiguous packs; pack ``j`` runs on GPU
``(j-1) mod G`` (round-robin), and microbatch ``b`` of pack ``j`` starts
at the earliest time when that GPU is idle *and* microbatch ``b`` finished
on pack ``j-1``.  Feasibility: every pack's weights fit in ``M``.

The makespan evaluator below implements that definition verbatim, and the
brute-force searcher enumerates all ``2^(n-1)`` contiguous partitions --
practical for the small instances the NP-hardness tests use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.common.errors import SchedulingError


@dataclass(frozen=True)
class LayerItem:
    """One layer of the simplified problem."""

    time: float
    size: float


@dataclass(frozen=True)
class SchedulingInstance:
    """An instance of the Harmony scheduling problem."""

    layers: tuple[LayerItem, ...]
    n_microbatches: int
    n_gpus: int
    memory: float

    def __post_init__(self) -> None:
        if self.n_microbatches < 1 or self.n_gpus < 1 or not self.layers:
            raise SchedulingError("degenerate scheduling instance")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def pack_time(self, pack: Sequence[int]) -> float:
        return sum(self.layers[i].time for i in pack)

    def pack_size(self, pack: Sequence[int]) -> float:
        return sum(self.layers[i].size for i in pack)

    def feasible(self, packs: Sequence[Sequence[int]]) -> bool:
        return all(self.pack_size(pack) <= self.memory for pack in packs)


def contiguous_partitions(n: int) -> Iterator[list[list[int]]]:
    """All contiguous partitions of layers 0..n-1 (2^(n-1) of them)."""
    for cut_mask in itertools.product((False, True), repeat=n - 1):
        packs: list[list[int]] = [[0]]
        for i, cut in enumerate(cut_mask, start=1):
            if cut:
                packs.append([i])
            else:
                packs[-1].append(i)
        yield packs


def makespan(instance: SchedulingInstance, packs: Sequence[Sequence[int]]) -> float:
    """Exact makespan of a feasible packing per Definition A.1.

    ``gpu_free[g]`` tracks when GPU ``g`` next idles; microbatch ``b`` of
    pack ``j`` starts at ``max(gpu_free, done(j-1, b))``.  Work items are
    serviced pack-major per GPU, matching the executions illustrated in
    Figure 17 of the appendix.
    """
    if not instance.feasible(packs):
        raise SchedulingError("packing violates the per-GPU memory bound")
    b_count = instance.n_microbatches
    gpu_free = [0.0] * instance.n_gpus
    prev_done: Optional[list[float]] = None
    finish = 0.0
    for j, pack in enumerate(packs):
        gpu = j % instance.n_gpus
        duration = instance.pack_time(pack)
        done = []
        for b in range(b_count):
            ready = prev_done[b] if prev_done is not None else 0.0
            start = max(gpu_free[gpu], ready)
            end = start + duration
            gpu_free[gpu] = end
            done.append(end)
        prev_done = done
        finish = max(finish, done[-1])
    return finish


def brute_force_optimum(instance: SchedulingInstance) -> tuple[float, list[list[int]]]:
    """Minimum makespan over every feasible contiguous packing."""
    best: Optional[tuple[float, list[list[int]]]] = None
    for packs in contiguous_partitions(instance.n_layers):
        if not instance.feasible(packs):
            continue
        cost = makespan(instance, packs)
        if best is None or cost < best[0]:
            best = (cost, packs)
    if best is None:
        raise SchedulingError("no feasible packing exists")
    return best


def total_processing_time(instance: SchedulingInstance) -> float:
    return instance.n_microbatches * sum(l.time for l in instance.layers)
