"""Task graph generation (Algorithm 3) for Harmony DP and Harmony PP.

Given a configuration four-tuple, this module unrolls one training
iteration into an explicit task graph: forward tasks for ``P_F``, backward
plus jit-update tasks for ``reverse(P_B)``, with the wrap-around
round-robin device binding ``pack i -> GPU (i mod N)`` and every tensor
move (weights in, activations p2p, checkpoints stashed, gradients out)
spelled out per Figure 5(a).

Each of Harmony's optimizations is an explicit switch so the Figure 13
ablations can turn them off one at a time:

- ``grouping``   -- input-batch grouping: one task runs all microbatches
  back-to-back so pack state is swapped once per task, not once per
  microbatch.  Off: one task per (pack, microbatch), each re-swapping
  the pack's weights.
- ``jit``        -- just-in-time scheduling: weight update fused right
  after each backward task, and the last forward pack fused into the
  first backward task (jit-compute), avoiding its checkpoint stash and
  rematerialization.  Off: updates run at the end of the iteration and
  the last pack is treated like every other.
- ``p2p``        -- adjacent-task activations ride GPU-GPU links; off they
  bounce through host memory (message passing).
- ``offload_optimizer`` -- weight update executes on the CPU against
  host-resident state, so optimizer state never crosses PCIe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SchedulingError
from repro.core.config import Configuration, Pack, microbatch_group
from repro.core.profiler import ModelProfiles
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind


@dataclass(frozen=True)
class ScheduleOptions:
    """Mode plus the optimization switches (defaults: everything on)."""

    mode: str = "pp"                   # "pp" (wrap-around pipeline) or "dp"
    grouping: bool = True
    jit: bool = True
    p2p: bool = True
    offload_optimizer: bool = True
    prefetch: bool = True              # consumed by the Runtime
    # Fraction of GPU memory the DP planner may devote to keeping a whole
    # local batch's boundary activation resident between consecutive packs
    # before spilling it to host.
    resident_boundary_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in ("pp", "dp"):
            raise SchedulingError(f"unknown Harmony mode {self.mode!r}")


@dataclass(frozen=True)
class _Producers:
    """Who produced the current chain-head activation: the task (or, with
    grouping off, the per-microbatch tasks) and their microbatch sizes."""

    tids: tuple[int, ...]
    sizes: tuple[int, ...]  # one entry per task: that task's sample count

    def covering(self, first_sample: int, last_sample: int) -> int:
        """The producer task whose completion covers samples up to
        ``last_sample`` (exclusive)."""
        produced = 0
        for tid, size in zip(self.tids, self.sizes):
            produced += size
            if produced >= last_sample:
                return tid
        raise SchedulingError(
            f"producers cover only {produced} samples, need {last_sample}"
        )


def mb_dependency(producer_sizes: tuple[int, ...], consumer_sizes: tuple[int, ...]) -> list[int]:
    """For each consumer microbatch, the producer microbatch index whose
    completion makes the consumer's samples fully available.

    Used by the Runtime where forward (``U_F``) and backward (``U_B``)
    granularities meet inside a grouped task pair.
    """
    if sum(producer_sizes) != sum(consumer_sizes):
        raise SchedulingError(
            f"producer covers {sum(producer_sizes)} samples, consumer "
            f"{sum(consumer_sizes)}"
        )
    deps = []
    produced = 0
    producer_idx = -1
    needed = 0
    for size in consumer_sizes:
        needed += size
        while produced < needed:
            producer_idx += 1
            produced += producer_sizes[producer_idx]
        deps.append(producer_idx)
    return deps


class HarmonyGraphBuilder:
    """Generates the task graph for one iteration (the ``rho`` of Alg 1)."""

    def __init__(
        self,
        profiles: ModelProfiles,
        n_gpus: int,
        minibatch: int,
        options: ScheduleOptions,
    ):
        if n_gpus < 1:
            raise SchedulingError("need at least one GPU")
        if minibatch < 1:
            raise SchedulingError("minibatch must be positive")
        self.profiles = profiles
        self.n_gpus = n_gpus
        self.minibatch = minibatch
        self.options = options

    # -- public entry ----------------------------------------------------------

    def build(self, config: Configuration) -> TaskGraph:
        """The task graph for ``config``, certified by ``graph.validate()``.

        Every graph that is returned as a plan or executed comes from here.
        """
        graph = self.assemble(config)
        graph.validate()
        return graph

    def assemble(self, config: Configuration) -> TaskGraph:
        """The task graph for ``config`` without structural validation.

        For scoring search candidates: the estimator needs only the
        graph's shape, and the winner is then built, and so validated,
        again.  A graph failing validation is a builder bug, not an
        infeasible candidate, so it aborts planning rather than being
        skipped; validating only the winner therefore changes no
        successful search's outcome.
        """
        config.validate(len(self.profiles))
        if self.options.mode == "pp":
            return self._build_pp(config)
        return self._build_dp(config)

    # -- shared emission helpers -------------------------------------------------

    def _act_channel(self) -> Channel:
        """Channel for adjacent-task activations (p2p unless ablated)."""
        return Channel.P2P if self.options.p2p else Channel.MSG

    def _emit_pass(
        self,
        graph: TaskGraph,
        kind: TaskKind,
        pack: Pack,
        device: int,
        total_samples: int,
        u: int,
        label: str,
        fused: bool = False,
    ) -> list[Task]:
        """Create the task(s) running ``pack`` over ``total_samples``.

        One grouped task normally; one singleton task per microbatch when
        input-batch grouping is ablated.
        """
        sizes = microbatch_group(total_samples, u)
        groups = [sizes] if self.options.grouping else [(s,) for s in sizes]
        tasks = []
        for group in groups:
            tasks.append(graph.add(Task(
                tid=len(graph.tasks),
                kind=kind,
                first_layer=pack.first,
                last_layer=pack.last,
                device=device,
                microbatches=group,
                fused=fused,
                label=label,
            )))
        return tasks

    def _link_chain(
        self,
        tasks: list[Task],
        producers: Optional[_Producers],
        tensor: TensorKind,
        bytes_per_sample: int,
        channel: Channel,
        label: str,
    ) -> None:
        """Attach the chain-head activation in-move to each consumer task,
        resolving which producer task covers its samples.

        Host-routed chains (message passing: the p2p ablation, or a DP
        boundary spilled to host) are executed by the Runtime as a two-hop
        relay -- producer GPU to host staging to consumer GPU -- so the
        activation crosses PCIe twice and pays the host copy.
        """
        offset = 0
        for task in tasks:
            samples = task.group_samples
            src = None
            if producers is not None:
                src = producers.covering(offset, offset + samples)
            task.ins.append(Move(
                tensor=tensor,
                nbytes=bytes_per_sample * samples,
                channel=channel,
                src_task=src,
                label=label,
            ))
            offset += samples

    @staticmethod
    def _as_producers(tasks: list[Task]) -> _Producers:
        return _Producers(
            tids=tuple(t.tid for t in tasks),
            sizes=tuple(t.group_samples for t in tasks),
        )

    # -- Harmony PP --------------------------------------------------------------

    def _build_pp(self, config: Configuration) -> TaskGraph:
        opts = self.options
        graph = TaskGraph(mode="harmony-pp", n_devices=self.n_gpus)

        fuse_last = opts.jit and config.jit_compute_aligned
        fwd_packs = list(config.packs_f[:-1] if fuse_last else config.packs_f)
        bwd_packs = list(config.packs_b)
        bwd_starts = {pack.first for pack in bwd_packs}

        wrap = 0  # wrap-around device index, advances once per pack
        stash_by_boundary: dict[int, _Producers] = {}
        prev_act: Optional[_Producers] = None

        for pack in fwd_packs:
            tasks = self._emit_pass(
                graph, TaskKind.FWD, pack, wrap % self.n_gpus,
                self.minibatch, config.u_f, f"F{pack}",
            )
            wrap += 1
            self._attach_fwd_moves(tasks, pack, bwd_starts, prev_act,
                                   chain_channel=self._act_channel())
            prev_act = self._as_producers(tasks)
            for boundary in self._stash_boundaries(pack, bwd_starts):
                stash_by_boundary[boundary] = prev_act

        prev_bwd: Optional[_Producers] = None
        update_specs: list[tuple[Pack, int, int]] = []  # (pack, src_bwd, device)
        for pos, pack in enumerate(reversed(bwd_packs)):
            fused = fuse_last and pos == 0
            tasks = self._emit_pass(
                graph, TaskKind.BWD, pack, wrap % self.n_gpus,
                self.minibatch, config.u_b, ("FB" if fused else "B") + str(pack),
                fused=fused,
            )
            wrap += 1
            self._attach_bwd_moves(
                tasks, pack, fused, prev_act, prev_bwd, stash_by_boundary,
                chain_channel=self._act_channel(),
            )
            prev_bwd = self._as_producers(tasks)
            update_specs.append((pack, tasks[-1].tid, tasks[-1].device))
            if opts.jit:
                self._add_update_task(graph, pack, src_bwd=tasks[-1].tid,
                                      device=tasks[-1].device)
        if not opts.jit:
            for pack, src_bwd, device in update_specs:
                self._add_update_task(graph, pack, src_bwd=src_bwd, device=device)
        return graph

    # -- Harmony DP --------------------------------------------------------------

    def _build_dp(self, config: Configuration) -> TaskGraph:
        opts = self.options
        if self.minibatch % self.n_gpus != 0:
            raise SchedulingError(
                f"DP needs the minibatch ({self.minibatch}) divisible by the "
                f"GPU count ({self.n_gpus})"
            )
        share = self.minibatch // self.n_gpus
        graph = TaskGraph(mode="harmony-dp", n_devices=self.n_gpus)

        fuse_last = opts.jit and config.jit_compute_aligned
        fwd_packs = list(config.packs_f[:-1] if fuse_last else config.packs_f)
        bwd_packs = list(config.packs_b)
        bwd_starts = {pack.first for pack in bwd_packs}
        budget = int(self.profiles.gpu.memory_bytes * opts.resident_boundary_frac)

        bwd_tail: dict[tuple[int, int], list[int]] = {}  # (gpu, pack pos) -> tid
        for gpu in range(self.n_gpus):
            stash_by_boundary: dict[int, _Producers] = {}
            prev_act: Optional[_Producers] = None
            prev_spilled = False
            for pack in fwd_packs:
                spill = self.profiles.boundary_out_bytes(pack, 1) * share > budget
                tasks = self._emit_pass(
                    graph, TaskKind.FWD, pack, gpu, share, config.u_f,
                    f"F{pack}@g{gpu}",
                )
                chain = Channel.MSG if prev_spilled else Channel.LOCAL
                self._attach_fwd_moves(tasks, pack, bwd_starts, prev_act,
                                       chain_channel=chain)
                prev_act = self._as_producers(tasks)
                for boundary in self._stash_boundaries(pack, bwd_starts):
                    stash_by_boundary[boundary] = prev_act
                prev_spilled = spill

            prev_bwd: Optional[_Producers] = None
            for pos, pack in enumerate(reversed(bwd_packs)):
                fused = fuse_last and pos == 0
                tasks = self._emit_pass(
                    graph, TaskKind.BWD, pack, gpu, share, config.u_b,
                    ("FB" if fused else "B") + f"{pack}@g{gpu}",
                    fused=fused,
                )
                fused_chain = Channel.MSG if prev_spilled else Channel.LOCAL
                self._attach_bwd_moves(
                    tasks, pack, fused, prev_act, prev_bwd, stash_by_boundary,
                    chain_channel=Channel.LOCAL, fused_channel=fused_chain,
                )
                prev_bwd = self._as_producers(tasks)
                bwd_tail[(gpu, pos)] = tasks[-1].tid

        # One (reduced) weight update per pack, spread across runtimes.
        for pos, pack in enumerate(reversed(bwd_packs)):
            deps = [bwd_tail[(g, pos)] for g in range(self.n_gpus)]
            self._add_update_task(
                graph, pack, src_bwd=deps[-1], device=pos % self.n_gpus,
                extra_deps=deps[:-1],
            )
        return graph

    # -- move attachment -----------------------------------------------------------

    def _stash_boundaries(self, pack: Pack, bwd_starts: set[int]) -> list[int]:
        """Backward-pack boundaries inside ``pack`` whose input activation
        the forward pass must checkpoint (layer 0's input is the host-held
        input data and needs no stash)."""
        return [
            b for b in sorted(bwd_starts)
            if b != 0 and pack.first <= b <= pack.last
        ]

    def _attach_fwd_moves(
        self,
        tasks: list[Task],
        pack: Pack,
        bwd_starts: set[int],
        prev_act: Optional[_Producers],
        chain_channel: Channel,
    ) -> None:
        profiles = self.profiles
        for task in tasks:
            task.ins.append(Move(
                tensor=TensorKind.W,
                nbytes=profiles.pack_param_bytes(pack),
                channel=Channel.SHM,
                label=f"W{pack}",
            ))
        in_per_sample = profiles.boundary_in_bytes(pack, 1)
        if pack.first == 0:
            for task in tasks:
                task.ins.append(Move(
                    tensor=TensorKind.X,
                    nbytes=in_per_sample * task.group_samples,
                    channel=Channel.SWAP,
                    label="input",
                ))
        else:
            self._link_chain(tasks, prev_act, TensorKind.X, in_per_sample,
                             chain_channel, f"X{pack}")
        for boundary in self._stash_boundaries(pack, bwd_starts):
            per_sample = profiles[boundary].act_in_bytes(1)
            for task in tasks:
                task.outs.append(Move(
                    tensor=TensorKind.CKPT,
                    nbytes=per_sample * task.group_samples,
                    channel=Channel.MSG,
                    label=f"ckpt@L{boundary}",
                ))
        for task in tasks:
            task.resident_bytes = profiles.pack_fwd_memory(
                pack, max(task.microbatches)
            )

    def _attach_bwd_moves(
        self,
        tasks: list[Task],
        pack: Pack,
        fused: bool,
        prev_act: Optional[_Producers],
        prev_bwd: Optional[_Producers],
        stash_by_boundary: dict[int, _Producers],
        chain_channel: Channel,
        fused_channel: Optional[Channel] = None,
    ) -> None:
        profiles = self.profiles
        for task in tasks:
            task.ins.append(Move(
                tensor=TensorKind.W,
                nbytes=profiles.pack_param_bytes(pack),
                channel=Channel.SHM,
                label=f"W{pack}",
            ))
        in_per_sample = profiles.boundary_in_bytes(pack, 1)
        out_per_sample = profiles.boundary_out_bytes(pack, 1)

        if fused:
            # jit-compute: runs forward+backward; input is the previous
            # forward pack's output (or the host dataloader when the fused
            # pack is the whole model).
            if pack.first == 0 or prev_act is None:
                for task in tasks:
                    task.ins.append(Move(
                        tensor=TensorKind.X,
                        nbytes=in_per_sample * task.group_samples,
                        channel=Channel.SWAP,
                        label="input",
                    ))
            else:
                self._link_chain(
                    tasks, prev_act, TensorKind.X, in_per_sample,
                    fused_channel if fused_channel is not None else chain_channel,
                    f"X{pack}",
                )
        else:
            stash = stash_by_boundary.get(pack.first)
            self._link_chain(tasks, stash, TensorKind.CKPT, in_per_sample,
                             Channel.SWAP, f"ckpt{pack}")
            if prev_bwd is not None:
                self._link_chain(tasks, prev_bwd, TensorKind.DY, out_per_sample,
                                 chain_channel, f"dY{pack}")

        # Gradients leave for the host optimizer (or for the late update
        # when jit is off); with a GPU-side jit update they stay resident.
        if self.options.offload_optimizer or not self.options.jit:
            for task in tasks:
                task.outs.append(Move(
                    tensor=TensorKind.DW,
                    nbytes=profiles.pack_param_bytes(pack),
                    channel=Channel.SWAP,
                    label=f"dW{pack}",
                ))
        for task in tasks:
            task.resident_bytes = profiles.pack_bwd_memory(
                pack, max(task.microbatches)
            )

    def _add_update_task(
        self,
        graph: TaskGraph,
        pack: Pack,
        src_bwd: int,
        device: int,
        extra_deps: Optional[list[int]] = None,
    ) -> None:
        opts = self.options
        profiles = self.profiles
        on_cpu = opts.offload_optimizer
        task = Task(
            tid=len(graph.tasks),
            kind=TaskKind.UPD,
            first_layer=pack.first,
            last_layer=pack.last,
            device=device,
            microbatches=(1,),
            on_cpu=on_cpu,
            compute_flops=profiles.pack_update_flops(pack),
            label=f"U{pack}",
        )
        for dep in [src_bwd] + list(extra_deps or []):
            task.ins.append(Move(
                tensor=TensorKind.DW, nbytes=0, channel=Channel.LOCAL,
                src_task=dep, label=f"dep:b{dep}",
            ))
        if not on_cpu:
            if not opts.jit:
                # Weights and gradients were evicted since backward; the
                # late update must swap everything back in (the paper's
                # "unnecessary swaps").
                task.ins.append(Move(
                    tensor=TensorKind.W,
                    nbytes=profiles.pack_param_bytes(pack),
                    channel=Channel.SHM, label=f"W{pack}",
                ))
                task.ins.append(Move(
                    tensor=TensorKind.DW,
                    nbytes=profiles.pack_param_bytes(pack),
                    channel=Channel.SWAP, src_task=src_bwd, label=f"dW{pack}",
                ))
            task.ins.append(Move(
                tensor=TensorKind.K,
                nbytes=profiles.pack_optimizer_bytes(pack),
                channel=Channel.SWAP, label=f"K{pack}",
            ))
            task.outs.append(Move(
                tensor=TensorKind.W,
                nbytes=profiles.pack_param_bytes(pack),
                channel=Channel.SWAP, label=f"W'{pack}",
            ))
            task.outs.append(Move(
                tensor=TensorKind.K,
                nbytes=profiles.pack_optimizer_bytes(pack),
                channel=Channel.SWAP, label=f"K'{pack}",
            ))
            task.resident_bytes = (
                (2 + profiles.optimizer_slots) * profiles.pack_param_bytes(pack)
            )
        graph.add(task)
