"""Runtime Estimator (the ``epsilon`` of Algorithm 1).

Estimates one iteration's end-to-end time for a candidate schedule -- the
task list the graph builder emits, or a built task graph of such tasks --
by event-driven simulation over per-device timelines (compute, swap, p2p,
host optimizer lane), at per-microbatch granularity so pipeline overlap is
captured.

It times each task by the Runtime's own rule
(:class:`~repro.runtime.timemodel.TrueTimeModel`) and differs from the
full Runtime only in where the layer times come from -- the Profiler's
*regressed* fits rather than true kernel times -- and in ignoring
cross-GPU link sharing.  That is why Figure 14 compares its estimates
against actual (fully simulated) runs and finds them close but not
identical.  Being contention-free and allocation-free, it scores a
candidate in about 0.11 ms (``python3 bench/run.py --workload plan-zoo
--seconds 0 --trace 1`` at seeds 8801-8803, median of the three runs:
~7.4 ms of ``core.estimator`` self time per plan over ~66 candidates,
in the bench's reference seconds, Python 3.11 on a shared 2-vCPU x86
host), cheap enough for the sweep of Algorithm 1.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.profiler import ModelProfiles
from repro.core.types import Channel, Task, TaskGraph, TaskKind, TensorKind
from repro.core.waits import covering
from repro.hardware.server import ServerSpec
from repro.runtime.timemodel import TrueTimeModel


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
        # A relayed MSG move: two PCIe hops plus the host staging copy.
        self._relay = 2.0 / self._swap_bw + 1.0 / self._staging_bw
        # Device count -> the time model timing tasks from the fitted
        # profiles; its pack table is shared by every candidate of one
        # configuration search, as candidates share most of their packs.
        # No invalidation: ``ModelProfiles`` is immutable.  The tables
        # live here, not on the profiles, so they are freed with the
        # search while a plan keeps its profiles alive.
        self._time_models: dict[int, TrueTimeModel] = {}
        # (first, last, is BWD, recomputes, sizes) -> per-microbatch
        # times; ints and tuples, as hashing an enum runs Python.
        self._mb_times: dict[tuple, tuple[float, ...]] = {}
        # (first, last, FLOPs, on CPU, device count) -> an update's
        # update time: the key holds everything it reads, and a graph
        # may span fewer devices than the server.
        self._update_times: dict[tuple, float] = {}

    # -- the estimate -----------------------------------------------------------------

    def estimate(self, schedule: Union[TaskGraph, Sequence[Task]]) -> float:
        """The estimated iteration time of a task graph, or of the tasks
        :meth:`HarmonyGraphBuilder.records` emits for one.

        Both are read task by task in one loop; a task's tid must be its
        position.  A graph is scored on its own device count, a bare task
        list on this estimator's server, the one the search's builder is
        bound to.

        Each move's chunk dependencies, chunk transfer time and lane are
        worked out once per move, and a task's per-microbatch durations
        (an update's duration) once per search for each task shape; the
        per-chunk ``max``/``+`` sequence is the same as a chunk-by-chunk
        walk, so every estimate is bit-identical to it.
        """
        if isinstance(schedule, TaskGraph):
            n = schedule.n_devices
            tasks: Sequence[Task] = schedule.tasks
        else:
            n = self.server.n_gpus
            tasks = schedule
        time_model = self._time_models.get(n)
        if time_model is None:
            time_model = self._time_models[n] = TrueTimeModel(
                self.profiles, self.server.host, n)
        compute_free = [0.0] * n
        swap_in_free = [0.0] * n
        swap_out_free = [0.0] * n
        p2p_free = [0.0] * n
        cpu_free = [0.0] * n
        prev_compute_done = [0.0] * n

        # The timeline so far, per tid: each microbatch's compute end, the
        # compute end and the time the task's outputs are flushed.
        mb_dones: list[Sequence[float]] = []
        dones: list[float] = []
        flushes: list[float] = []
        finish = 0.0

        # Hot loop: lookups are bound to locals, and the move helpers
        # (transfer time, the tensor test, chunk dependencies) and update
        # timing are inlined; moves are unpacked as tuples.  Each
        # ``max(a, b)`` is spelled as a compare, ``if b > a: a = b``: ties
        # keep the first operand, as ``max`` does.
        prefetch = self.prefetch
        swap_bw, p2p_bw, relay = self._swap_bw, self._p2p_bw, self._relay
        mb_times = self._mb_times
        update_times = self._update_times
        UPD, BWD = TaskKind.UPD, TaskKind.BWD
        W, DW, K = TensorKind.W, TensorKind.DW, TensorKind.K
        LOCAL, SWAP, P2P, MSG = Channel.LOCAL, Channel.SWAP, Channel.P2P, Channel.MSG

        for task in tasks:
            kind, d, first, last = (task.kind, task.device, task.first_layer,
                                    task.last_layer)
            ins, outs = task.ins, task.outs
            if kind is UPD:
                # After every producer's flush; offloaded updates run on
                # the host lane, GPU-side ones swap their state through
                # the compute lane.
                dep = 0.0
                for _, _, _, _, src, _ in ins:
                    if src is not None and flushes[src] > dep:
                        dep = flushes[src]
                on_cpu = task.on_cpu
                key = (first, last, task.compute_flops, on_cpu, n)
                duration = update_times.get(key)
                if duration is None:
                    duration = update_times[key] = \
                        time_model.update_time(task)
                if on_cpu:
                    end = cpu_free[d]
                    if dep > end:
                        end = dep
                    end = cpu_free[d] = end + duration
                else:
                    # Moves via host (``Channel.via_host``: neither LOCAL
                    # nor P2P) cross PCIe before and after the step.
                    host_in = host_out = 0
                    for _, nbytes, channel, _, _, _ in ins:
                        if channel is not LOCAL and channel is not P2P:
                            host_in += nbytes
                    for _, nbytes, channel, _, _, _ in outs:
                        if channel is not LOCAL and channel is not P2P:
                            host_out += nbytes
                    end = compute_free[d]
                    dep += host_in / swap_bw
                    if dep > end:
                        end = dep
                    end = compute_free[d] = (end + duration
                                             + host_out / swap_bw)
                mb_dones.append((end,))
                dones.append(end)
                flushes.append(end)
                if end > finish:
                    finish = end
                continue

            fetch_floor = 0.0 if prefetch else prev_compute_done[d]

            # Per-task state tensors (W, dW, K) ride the swap-in lane
            # back-to-back; the rest move per microbatch chunk.
            state_bytes = 0
            state_dep = 0.0
            chunked = []
            for move in ins:
                tensor, nbytes, channel, _, src, _ = move
                if not (tensor is W or tensor is DW or tensor is K):
                    chunked.append(move)
                    continue
                if src is not None and flushes[src] > state_dep:
                    state_dep = flushes[src]
                if channel is not LOCAL:
                    state_bytes += nbytes
            start = swap_in_free[d]
            if state_dep > start:
                start = state_dep
            if fetch_floor > start:
                start = fetch_floor
            state_ready = start + state_bytes / swap_bw
            swap_in_free[d] = state_ready

            # Per-microbatch chunks wait on the producer's flush (swap),
            # its completion (the two groups cover different samples) or
            # the microbatch completing their samples.
            mbs = task.microbatches
            n_mb = len(mbs)
            input_ready = [state_ready] * n_mb
            for _, nbytes, channel, _, src, _ in chunked:
                if src is None:
                    deps: Sequence[float] = (0.0,) * n_mb
                elif channel is SWAP:
                    deps = (flushes[src],) * n_mb
                else:
                    dep_map = covering(tasks[src].microbatches, mbs)
                    if dep_map is None:
                        deps = (dones[src],) * n_mb
                    else:
                        mb_done = mb_dones[src]
                        deps = [mb_done[j] for j in dep_map]
                if channel is LOCAL:
                    for i, dep in enumerate(deps):
                        if dep > input_ready[i]:
                            input_ready[i] = dep
                    continue
                chunk = int(nbytes / n_mb)
                lane = p2p_free if channel is P2P else swap_in_free
                xfer = (chunk * relay if channel is MSG and src is not None
                        else chunk / (p2p_bw if channel is P2P else swap_bw))
                end = lane[d]
                for i, dep in enumerate(deps):
                    if dep > end:
                        end = dep
                    if fetch_floor > end:
                        end = fetch_floor
                    end += xfer
                    if end > input_ready[i]:
                        input_ready[i] = end
                lane[d] = end

            bwd = kind is BWD
            key = (first, last, bwd, bwd and (task.fused or task.recompute),
                   mbs)
            durations = mb_times.get(key)
            if durations is None:
                # A group holds at most two sizes: time each once.
                timed = {u: time_model.microbatch_time(task, u)
                         for u in set(mbs)}
                durations = mb_times[key] = tuple([timed[u] for u in mbs])
            end = compute_free[d]
            mb_done = []
            for duration, ready in zip(durations, input_ready):
                if ready > end:
                    end = ready
                end += duration
                mb_done.append(end)
            compute_free[d] = prev_compute_done[d] = done = end

            flushed = done
            for tensor, nbytes, channel, _, src, _ in outs:
                if channel is LOCAL or nbytes == 0:
                    continue
                per_task = tensor is W or tensor is DW or tensor is K
                if not per_task:
                    nbytes = int(nbytes / n_mb)
                xfer = (nbytes * relay if channel is MSG and src is not None
                        else nbytes / (p2p_bw if channel is P2P else swap_bw))
                end = swap_out_free[d]
                if per_task:
                    if done > end:
                        end = done
                    end += xfer
                else:
                    for mb_end in mb_done:
                        if mb_end > end:
                            end = mb_end
                        end += xfer
                swap_out_free[d] = end
                if end > flushed:
                    flushed = end

            mb_dones.append(mb_done)
            dones.append(done)
            flushes.append(flushed)
            if flushed > finish:
                finish = flushed

        return finish
