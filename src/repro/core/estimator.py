"""Runtime Estimator (the ``epsilon`` of Algorithm 1).

Estimates one iteration's end-to-end time for a candidate task graph by
event-driven simulation over per-device timelines (compute, swap, p2p,
host optimizer lane), at per-microbatch granularity so pipeline overlap is
captured.

It deliberately differs from the full Runtime in two ways -- it uses the
Profiler's *regressed* layer times rather than true kernel times, and it
ignores cross-GPU link contention -- which is why Figure 14 compares its
estimates against actual (fully simulated) runs and finds them close but
not identical.  Being contention-free and allocation-free, it evaluates a
configuration in microseconds, enabling the sweep of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiler import ModelProfiles
from repro.core.taskgraph import mb_dependency
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.graph.layer import Phase
from repro.hardware.server import ServerSpec
from repro.perf import perf_enabled

_PER_TASK_TENSORS = frozenset({TensorKind.W, TensorKind.DW, TensorKind.K})


@dataclass
class _TaskTimes:
    mb_done: list[float]
    done: float
    outs_flushed: float


class RuntimeEstimator:
    """Estimates iteration time for task graphs on a server spec."""

    def __init__(self, profiles: ModelProfiles, server: ServerSpec,
                 prefetch: bool = True):
        self.profiles = profiles
        self.server = server
        self.prefetch = prefetch
        topo = server.topology
        self._swap_bw = min(topo.leaf_bandwidth, topo.uplink_bandwidth)
        self._p2p_bw = topo.leaf_bandwidth
        self._staging_bw = server.host.pageable_copy_bandwidth
        # Shared cross-configuration task-time cache.  One estimator scores
        # every candidate of a configuration search, and candidates share
        # most of their (pack, u, phase) combinations; the per-layer time
        # sums dominate search CPU time (>75% on deep CNNs).  Entries are
        # computed once with the naive left-to-right summation order, so
        # hits are bit-identical to the uncached path.  No invalidation:
        # ``ModelProfiles`` is immutable.
        self._cache_enabled = perf_enabled()
        self._time_cache: dict[tuple, float] = {}
        self._dep_maps: dict[tuple, tuple[int, ...]] = {}
        # Microbatch sizes by task id of the graph being estimated; set by
        # prepare() so the chunk-dependency helper stays small.
        self._producer_sizes: dict[int, tuple[int, ...]] = {}

    # -- task timing from regressed profiles -------------------------------------

    def mb_time(self, task: Task, u: int) -> float:
        if task.kind is TaskKind.FWD:
            key = (TaskKind.FWD, task.first_layer, task.last_layer, u, False)
        elif task.kind is TaskKind.BWD:
            key = (TaskKind.BWD, task.first_layer, task.last_layer, u,
                   task.fused or task.recompute)
        else:
            raise ValueError("update tasks timed separately")
        if self._cache_enabled:
            cached = self._time_cache.get(key)
            if cached is not None:
                return cached
        value = self._mb_time_uncached(task, u)
        if self._cache_enabled:
            self._time_cache[key] = value
        return value

    def _mb_time_uncached(self, task: Task, u: int) -> float:
        layers = task.layers
        if task.kind is TaskKind.FWD:
            return sum(self.profiles[i].time(Phase.FWD, u) for i in layers)
        bwd = sum(self.profiles[i].time(Phase.BWD, u) for i in layers)
        if task.fused or task.recompute:
            bwd += sum(self.profiles[i].time(Phase.FWD, u) for i in layers)
        return bwd

    def update_time(self, task: Task, n_gpus: int) -> float:
        if task.on_cpu:
            cores = max(1, self.server.host.cores // max(1, n_gpus))
            return self.server.host.optimizer_time(task.compute_flops, cores)
        if not self._cache_enabled:
            return sum(self.profiles[i].time(Phase.UPD, 1) for i in task.layers)
        key = (TaskKind.UPD, task.first_layer, task.last_layer, 1, False)
        cached = self._time_cache.get(key)
        if cached is None:
            cached = self._time_cache[key] = sum(
                self.profiles[i].time(Phase.UPD, 1) for i in task.layers
            )
        return cached

    def _xfer(self, move: Move, nbytes: int) -> float:
        if move.channel is Channel.LOCAL or nbytes == 0:
            return 0.0
        if move.channel is Channel.MSG and move.src_task is not None:
            # Two PCIe hops plus the host staging copy (a relay).
            return nbytes * (2.0 / self._swap_bw + 1.0 / self._staging_bw)
        bw = self._p2p_bw if move.channel is Channel.P2P else self._swap_bw
        return nbytes / bw

    # -- the estimate -----------------------------------------------------------------

    def estimate(self, graph: TaskGraph) -> float:
        n = graph.n_devices
        compute_free = [0.0] * n
        swap_in_free = [0.0] * n
        swap_out_free = [0.0] * n
        p2p_free = [0.0] * n
        cpu_free = [0.0] * n
        prev_compute_done = [0.0] * n

        times: list[_TaskTimes] = []
        finish = 0.0

        for task in graph.tasks:
            d = task.device
            if task.kind is TaskKind.UPD:
                tt = self._estimate_update(task, times, cpu_free, compute_free)
                times.append(tt)
                finish = max(finish, tt.outs_flushed)
                continue

            fetch_floor = 0.0 if self.prefetch else prev_compute_done[d]

            # Per-task state tensors ride the swap-in lane back-to-back.
            state_bytes = 0
            state_dep = 0.0
            for move in task.ins:
                if move.tensor not in _PER_TASK_TENSORS:
                    continue
                if move.src_task is not None:
                    state_dep = max(state_dep, times[move.src_task].outs_flushed)
                if move.channel is not Channel.LOCAL:
                    state_bytes += move.nbytes
            start = max(swap_in_free[d], state_dep, fetch_floor)
            state_ready = start + state_bytes / self._swap_bw
            swap_in_free[d] = state_ready

            # Per-microbatch chunks.
            mbs = task.microbatches
            input_ready = [state_ready] * len(mbs)
            for move in task.ins:
                if move.tensor in _PER_TASK_TENSORS:
                    continue
                chunk = move.nbytes / len(mbs) if mbs else 0.0
                for i in range(len(mbs)):
                    dep = self._chunk_dep(move, task, i, times)
                    if move.channel is Channel.LOCAL:
                        input_ready[i] = max(input_ready[i], dep)
                        continue
                    lane = p2p_free if move.channel is Channel.P2P else swap_in_free
                    begin = max(lane[d], dep, fetch_floor)
                    end = begin + self._xfer(move, int(chunk))
                    lane[d] = end
                    input_ready[i] = max(input_ready[i], end)

            mb_done = []
            for i, u in enumerate(mbs):
                begin = max(compute_free[d], input_ready[i])
                end = begin + self.mb_time(task, u)
                compute_free[d] = end
                mb_done.append(end)
            done = mb_done[-1]
            prev_compute_done[d] = done

            outs_flushed = done
            for move in task.outs:
                if move.channel is Channel.LOCAL or move.nbytes == 0:
                    continue
                if move.tensor in _PER_TASK_TENSORS:
                    begin = max(swap_out_free[d], done)
                    end = begin + self._xfer(move, move.nbytes)
                else:
                    chunk = move.nbytes / len(mbs)
                    end = swap_out_free[d]
                    for i in range(len(mbs)):
                        begin = max(end, mb_done[i])
                        end = begin + self._xfer(move, int(chunk))
                swap_out_free[d] = end
                outs_flushed = max(outs_flushed, end)

            times.append(_TaskTimes(mb_done, done, outs_flushed))
            finish = max(finish, outs_flushed)

        return finish

    def _chunk_dep(self, move: Move, task: Task, mb_index: int,
                   times: list[_TaskTimes]) -> float:
        if move.src_task is None:
            return 0.0
        producer = times[move.src_task]
        if move.channel is Channel.SWAP:
            return producer.outs_flushed
        src_sizes = self._producer_sizes.get(move.src_task)
        if src_sizes is None or sum(src_sizes) != task.group_samples:
            return producer.done
        # Pure function of the two size tuples; the same producer/consumer
        # granularity pair recurs for every microbatch chunk and across
        # candidate graphs, so memoize the map (bit-identical by purity).
        dep_key = (src_sizes, task.microbatches)
        dep_map = self._dep_maps.get(dep_key)
        if dep_map is None:
            dep_map = self._dep_maps[dep_key] = tuple(
                mb_dependency(src_sizes, task.microbatches)
            )
        return producer.mb_done[dep_map[mb_index]]

    def _estimate_update(self, task: Task, times: list[_TaskTimes],
                         cpu_free: list[float], compute_free: list[float]) -> _TaskTimes:
        d = task.device
        dep = 0.0
        for move in task.ins:
            if move.src_task is not None:
                dep = max(dep, times[move.src_task].outs_flushed)
        duration = self.update_time(task, n_gpus=len(cpu_free))
        if task.on_cpu:
            begin = max(cpu_free[d], dep)
            end = begin + duration
            cpu_free[d] = end
        else:
            swap_bytes = sum(
                m.nbytes for m in task.ins if m.channel.via_host
            )
            out_bytes = sum(
                m.nbytes for m in task.outs if m.channel.via_host
            )
            begin = max(compute_free[d], dep + swap_bytes / self._swap_bw)
            end = begin + duration + out_bytes / self._swap_bw
            compute_free[d] = end
        return _TaskTimes([end], end, end)

    def prepare(self, graph: TaskGraph) -> None:
        self._producer_sizes = {
            task.tid: task.microbatches for task in graph.tasks
        }

    def estimate_graph(self, graph: TaskGraph) -> float:
        """Public entry: estimate with producer-size context prepared."""
        self.prepare(graph)
        try:
            return self.estimate(graph)
        finally:
            self._producer_sizes = {}
