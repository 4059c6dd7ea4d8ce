"""Task graph generation (Algorithm 3) for Harmony DP and Harmony PP.

Given a configuration four-tuple, this module unrolls one training
iteration into an explicit task graph: forward tasks for ``P_F``, backward
plus jit-update tasks for ``reverse(P_B)``, with the wrap-around
round-robin device binding ``pack i -> GPU (i mod N)`` and every tensor
move (weights in, activations p2p, checkpoints stashed, gradients out)
spelled out per Figure 5(a).

The schedule is emitted once, as flat :class:`~repro.core.types.TaskRecord`
rows: the configuration search scores every candidate on those records,
and only the winner's records become a :class:`TaskGraph`.

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
from typing import Callable, Optional, Sequence, TypeVar

from repro.common.errors import SchedulingError
from repro.core.config import Configuration, Pack, microbatch_group
from repro.core.profiler import ModelProfiles
from repro.core.types import (
    Channel,
    MoveRecord,
    TaskGraph,
    TaskKind,
    TaskRecord,
    TensorKind,
)
from repro.graph.layer import Phase


#: Fraction of GPU memory the DP planner may devote to keeping a whole
#: local batch's boundary activation resident between consecutive packs
#: before spilling it to host.
RESIDENT_BOUNDARY_FRAC = 0.25


@dataclass(frozen=True)
class ScheduleOptions:
    """Mode plus the optimization switches (defaults: everything on)."""

    mode: str = "pp"                   # "pp" (wrap-around pipeline) or "dp"
    grouping: bool = True
    jit: bool = True
    p2p: bool = True
    offload_optimizer: bool = True
    prefetch: bool = True              # consumed by the Runtime

    def __post_init__(self) -> None:
        if self.mode not in ("pp", "dp"):
            raise SchedulingError(f"unknown Harmony mode {self.mode!r}")


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


#: One task's microbatch group: its sizes, its sample count, its largest size.
_Group = tuple[tuple[int, ...], int, int]

_K = TypeVar("_K")
_V = TypeVar("_V")


class _Table(dict[_K, _V]):
    """A memo table: a missing key is filled once, from ``fill(key)``."""

    def __init__(self, fill: Callable[[_K], _V]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: _K) -> _V:
        value = self[key] = self.fill(key)
        return value


class _PackParts:
    """What every task of one pack needs and no candidate changes: its
    labels, its boundary activation sizes, its weights' in-move and its
    gradients' out-move."""

    __slots__ = ("name", "w_in", "dw_out", "in_per_sample", "out_per_sample",
                 "fwd", "bwd", "fused", "upd", "x", "ckpt", "dy")

    def __init__(self, profiles: ModelProfiles, pack: Pack):
        name = self.name = str(pack)
        param = profiles.pack_param_bytes(pack)
        self.w_in = MoveRecord(TensorKind.W, Channel.SHM, param, None,
                               "W" + name)
        # A backward task's gradients out, to the host optimizer.
        self.dw_out = MoveRecord(TensorKind.DW, Channel.SWAP, param, None,
                                 "dW" + name)
        self.in_per_sample = profiles.boundary_in_bytes(pack, 1)
        self.out_per_sample = profiles.boundary_out_bytes(pack, 1)
        self.fwd, self.bwd, self.fused, self.upd = (
            "F" + name, "B" + name, "FB" + name, "U" + name)
        self.x, self.ckpt, self.dy = "X" + name, "ckpt" + name, "dY" + name


def _task_groups(total: int, u: int, grouping: bool) -> tuple[_Group, ...]:
    """The task groups running ``total`` samples at microbatch ``u``: one
    grouped task normally; one task per microbatch when input-batch
    grouping is ablated."""
    sizes = microbatch_group(total, u)
    split = [sizes] if grouping else [(size,) for size in sizes]
    return tuple((group, sum(group), max(group)) for group in split)


def _optimizer_moves(profiles: ModelProfiles,
                     pack: Pack) -> tuple[MoveRecord, MoveRecord, MoveRecord]:
    """A GPU-side update's optimizer state in, weights and state out."""
    param = profiles.pack_param_bytes(pack)
    optimizer = profiles.pack_optimizer_bytes(pack)
    return (
        MoveRecord(TensorKind.K, Channel.SWAP, optimizer, None, f"K{pack}"),
        MoveRecord(TensorKind.W, Channel.SWAP, param, None, f"W'{pack}"),
        MoveRecord(TensorKind.K, Channel.SWAP, optimizer, None, f"K'{pack}"),
    )


class _ScheduleMemo:
    """Everything the emitter derives without looking at a candidate.

    Keyed on ints only: hashing a ``Pack`` or an enum member runs Python
    code, which would cost about what the memo saves.  It grows with the
    packs, microbatch sizes and task counts a search visits, not with its
    candidates.  Chain activations depend on the candidate and are not
    kept; footprints are read off the profiles' own ``(phase, u)``
    memory prefixes, which are bound here, not copied.
    """

    def __init__(self, profiles: ModelProfiles, grouping: bool) -> None:
        # (first, last) -> the pack's labels, boundary sizes, W in, dW out
        self.packs: _Table[tuple[int, int], _PackParts] = _Table(
            lambda span: _PackParts(profiles, Pack(*span)))
        # (first, last) -> a GPU-side update's K in, W' and K' out
        self.optimizer_moves: _Table[
            tuple[int, int], tuple[MoveRecord, MoveRecord, MoveRecord]
        ] = _Table(lambda span: _optimizer_moves(profiles, Pack(*span)))
        # (first, last) -> the FLOPs of the pack's optimizer step
        self.update_flops: _Table[tuple[int, int], float] = _Table(
            lambda span: profiles.pack_update_flops(Pack(*span)))
        # u -> the FWD / BWD memory prefix at u: a task's footprint is
        # ``prefix[last + 1] - prefix[first]`` (``pack_fwd_memory``,
        # ``pack_bwd_memory``)
        self.fwd_memory: _Table[int, list[int]] = _Table(
            lambda u: profiles._mem_prefix(Phase.FWD, u))
        self.bwd_memory: _Table[int, list[int]] = _Table(
            lambda u: profiles._mem_prefix(Phase.BWD, u))
        # (total samples, u) -> the task groups of one pass
        groups: _Table[tuple[int, int], tuple[_Group, ...]] = _Table(
            lambda key: _task_groups(*key, grouping))
        self.groups = groups
        # (total samples, producer u, consumer u) -> per consumer group,
        # the producer group whose completion covers its samples
        self.covering: _Table[tuple[int, int, int], tuple[int, ...]] = _Table(
            lambda key: tuple(mb_dependency(
                tuple(g[1] for g in groups[key[0], key[1]]),
                tuple(g[1] for g in groups[key[0], key[2]]),
            )))
        # (boundary layer, samples) -> the checkpoint out-move
        self.ckpt_outs: _Table[tuple[int, int], MoveRecord] = _Table(
            lambda key: MoveRecord(
                TensorKind.CKPT, Channel.MSG,
                profiles[key[0]].act_in_bytes(1) * key[1], None,
                f"ckpt@L{key[0]}"))
        # samples -> the host input data's in-move
        self.inputs: _Table[int, MoveRecord] = _Table(
            lambda samples: MoveRecord(
                TensorKind.X, Channel.SWAP,
                profiles[0].act_in_bytes(1) * samples, None, "input"))
        # backward tid -> an update's dependency link on it
        self.dep_links: _Table[int, MoveRecord] = _Table(
            lambda tid: MoveRecord(TensorKind.DW, Channel.LOCAL, 0, tid,
                                   f"dep:b{tid}"))


class HarmonyGraphBuilder:
    """Generates the schedule of one iteration (the ``rho`` of Alg 1).

    :meth:`records` is the one schedule emitter: the search scores its
    flat records directly and :meth:`build` makes the winner's task graph
    from the same records.  The builder memoizes what no candidate
    changes, so it is meant to live for one search.
    """

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
        self._memo = _ScheduleMemo(profiles, options.grouping)

    # -- public entry ----------------------------------------------------------

    def build(self, config: Configuration) -> TaskGraph:
        """The task graph for ``config``, certified by ``graph.validate()``.

        Every graph that is returned as a plan or executed comes from here.
        """
        graph = self.assemble(config)
        graph.validate()
        return graph

    def assemble(self, config: Configuration) -> TaskGraph:
        """The task graph made from ``records(config)``, unvalidated.

        The only place a builder makes a graph; :meth:`build` validates
        its result.
        """
        graph = TaskGraph(mode=f"harmony-{self.options.mode}",
                          n_devices=self.n_gpus)
        for tid, record in enumerate(self.records(config)):
            graph.add(record.to_task(tid))
        return graph

    def records(self, config: Configuration) -> list[TaskRecord]:
        """``config``'s schedule as flat task records in tid order.

        The search scores candidates on these without building graphs.
        A schedule failing validation is a builder bug, not an infeasible
        candidate, so it aborts planning when the winner is built rather
        than being skipped; validating only the winner therefore changes
        no successful search's outcome.
        """
        config.validate(len(self.profiles))
        if self.options.mode == "pp":
            return self._emit_pp(config)
        return self._emit_dp(config)

    # -- shared emission helpers -------------------------------------------------

    @staticmethod
    def _stash_boundaries(fwd_packs: tuple[Pack, ...],
                          bwd_packs: tuple[Pack, ...]) -> list[tuple[int, ...]]:
        """Per forward pack, the backward-pack boundaries inside it whose
        input activation the forward pass must checkpoint (layer 0's input
        is the host-held input data and needs no stash)."""
        firsts = [pack.first for pack in bwd_packs if pack.first != 0]
        stashes = []
        j = 0
        for pack in fwd_packs:
            lo = j
            while j < len(firsts) and firsts[j] <= pack.last:
                j += 1
            stashes.append(tuple(firsts[lo:j]))
        return stashes

    # -- Harmony PP --------------------------------------------------------------

    def _emit_pp(self, config: Configuration) -> list[TaskRecord]:
        opts = self.options
        memo = self._memo
        n_gpus = self.n_gpus
        records: list[TaskRecord] = []
        total = self.minibatch
        groups_f = memo.groups[total, config.u_f]
        groups_b = memo.groups[total, config.u_b]
        act_cover = memo.covering[total, config.u_f, config.u_b]
        chain = Channel.P2P if opts.p2p else Channel.MSG

        fuse_last = opts.jit and config.jit_compute_aligned
        fwd_packs = config.packs_f[:-1] if fuse_last else config.packs_f
        wrap = 0  # wrap-around device index, advances once per pack
        stash_by_boundary: dict[int, int] = {}
        prev_act: Optional[int] = None

        stashes = self._stash_boundaries(fwd_packs, config.packs_b)
        for pack, boundaries in zip(fwd_packs, stashes):
            parts = memo.packs[pack.first, pack.last]
            producer = len(records)
            self._emit_fwd(records, pack, parts, wrap % n_gpus, groups_f,
                           prev_act, chain, boundaries, parts.fwd)
            wrap += 1
            prev_act = producer
            for boundary in boundaries:
                stash_by_boundary[boundary] = producer

        prev_bwd: Optional[int] = None
        updates: list[tuple[Pack, _PackParts, int, int]] = []
        for pos, pack in enumerate(reversed(config.packs_b)):
            parts = memo.packs[pack.first, pack.last]
            fused = fuse_last and pos == 0
            producer = len(records)
            device = wrap % n_gpus
            self._emit_bwd(records, pack, parts, device, groups_b,
                           act_cover, fused, prev_act, prev_bwd,
                           stash_by_boundary.get(pack.first), chain, chain,
                           parts.fused if fused else parts.bwd)
            wrap += 1
            prev_bwd = producer
            update = (pack, parts, len(records) - 1, device)
            if opts.jit:
                self._emit_update(records, *update)
            else:
                updates.append(update)
        for update in updates:
            self._emit_update(records, *update)
        return records

    # -- Harmony DP --------------------------------------------------------------

    def _emit_dp(self, config: Configuration) -> list[TaskRecord]:
        opts = self.options
        memo = self._memo
        if self.minibatch % self.n_gpus != 0:
            raise SchedulingError(
                f"DP needs the minibatch ({self.minibatch}) divisible by the "
                f"GPU count ({self.n_gpus})"
            )
        share = self.minibatch // self.n_gpus
        records: list[TaskRecord] = []
        groups_f = memo.groups[share, config.u_f]
        groups_b = memo.groups[share, config.u_b]
        act_cover = memo.covering[share, config.u_f, config.u_b]

        fuse_last = opts.jit and config.jit_compute_aligned
        fwd_packs = config.packs_f[:-1] if fuse_last else config.packs_f
        bwd_packs = config.packs_b
        stashes = self._stash_boundaries(fwd_packs, bwd_packs)
        budget = int(self.profiles.gpu.memory_bytes * RESIDENT_BOUNDARY_FRAC)

        bwd_tail: dict[tuple[int, int], int] = {}  # (gpu, pack pos) -> tid
        for gpu in range(self.n_gpus):
            at_gpu = f"@g{gpu}"
            stash_by_boundary: dict[int, int] = {}
            prev_act: Optional[int] = None
            prev_spilled = False
            for pack, boundaries in zip(fwd_packs, stashes):
                parts = memo.packs[pack.first, pack.last]
                producer = len(records)
                self._emit_fwd(
                    records, pack, parts, gpu, groups_f, prev_act,
                    Channel.MSG if prev_spilled else Channel.LOCAL,
                    boundaries, parts.fwd + at_gpu,
                )
                prev_act = producer
                for boundary in boundaries:
                    stash_by_boundary[boundary] = producer
                prev_spilled = parts.out_per_sample * share > budget

            prev_bwd: Optional[int] = None
            for pos, pack in enumerate(reversed(bwd_packs)):
                parts = memo.packs[pack.first, pack.last]
                fused = fuse_last and pos == 0
                producer = len(records)
                self._emit_bwd(
                    records, pack, parts, gpu, groups_b, act_cover, fused,
                    prev_act, prev_bwd, stash_by_boundary.get(pack.first),
                    Channel.LOCAL,
                    Channel.MSG if prev_spilled else Channel.LOCAL,
                    (parts.fused if fused else parts.bwd) + at_gpu,
                )
                prev_bwd = producer
                bwd_tail[(gpu, pos)] = len(records) - 1

        # One (reduced) weight update per pack, spread across runtimes.
        for pos, pack in enumerate(reversed(bwd_packs)):
            deps = [bwd_tail[(g, pos)] for g in range(self.n_gpus)]
            self._emit_update(records, pack, memo.packs[pack.first, pack.last],
                              deps[-1], pos % self.n_gpus, deps[:-1])
        return records

    # -- task emission -------------------------------------------------------------

    def _emit_fwd(
        self,
        records: list[TaskRecord],
        pack: Pack,
        parts: _PackParts,
        device: int,
        groups: tuple[_Group, ...],
        prev_act: Optional[int],
        chain_channel: Channel,
        boundaries: tuple[int, ...],
        label: str,
    ) -> None:
        """The forward task(s) of ``pack``: weights in, the chain-head
        activation (or the host input data) in, checkpoints out.

        ``prev_act`` is the tid of the previous pack's first task (a
        pack's tasks are consecutive); it ran at the same microbatch
        size, so group ``i`` reads its group ``i``.

        Host-routed chains (message passing: the p2p ablation, or a DP
        boundary spilled to host) are executed by the Runtime as a two-hop
        relay -- producer GPU to host staging to consumer GPU -- so the
        activation crosses PCIe twice and pays the host copy.
        """
        memo = self._memo
        first, last = pack.first, pack.last
        footprints = memo.fwd_memory
        for i, (sizes, samples, umax) in enumerate(groups):
            if first == 0:
                x_in = memo.inputs[samples]
            else:
                x_in = MoveRecord(
                    TensorKind.X, chain_channel, parts.in_per_sample * samples,
                    None if prev_act is None else prev_act + i, parts.x)
            prefix = footprints[umax]
            records.append(TaskRecord(
                TaskKind.FWD, device, first, last, sizes,
                False, True, False, 0.0,
                [parts.w_in, x_in],
                [memo.ckpt_outs[b, samples] for b in boundaries],
                prefix[last + 1] - prefix[first], label,
            ))

    def _emit_bwd(
        self,
        records: list[TaskRecord],
        pack: Pack,
        parts: _PackParts,
        device: int,
        groups: tuple[_Group, ...],
        act_cover: tuple[int, ...],
        fused: bool,
        prev_act: Optional[int],
        prev_bwd: Optional[int],
        stash: Optional[int],
        chain_channel: Channel,
        fused_channel: Channel,
        label: str,
    ) -> None:
        """The backward task(s) of ``pack``: weights in, then either the
        forward input (jit-compute: the task runs forward+backward on the
        previous forward pack's output, or on the host input data when
        the fused pack is the whole model) or the stashed checkpoint plus
        the upstream gradient; gradients out.

        Producers are tids of a pack's first task.  Group ``i``'s
        activation or checkpoint comes from that forward pack's group
        ``act_cover[i]``, the one covering its samples; its upstream
        gradient from ``prev_bwd``'s group ``i``, which ran at the same
        microbatch size."""
        opts = self.options
        memo = self._memo
        first, last = pack.first, pack.last
        # Gradients leave for the host optimizer (or for the late update
        # when jit is off); with a GPU-side jit update they stay resident.
        dw_out = ([parts.dw_out]
                  if opts.offload_optimizer or not opts.jit else [])
        from_input = fused and (first == 0 or prev_act is None)
        # The forward producer: the fused pack's input, or the stash.
        act = prev_act if fused else stash
        footprints = memo.bwd_memory
        for i, (sizes, samples, umax) in enumerate(groups):
            ins = [parts.w_in]
            src = None if act is None else act + act_cover[i]
            if from_input:
                ins.append(memo.inputs[samples])
            elif fused:
                ins.append(MoveRecord(TensorKind.X, fused_channel,
                                      parts.in_per_sample * samples, src,
                                      parts.x))
            else:
                ins.append(MoveRecord(TensorKind.CKPT, Channel.SWAP,
                                      parts.in_per_sample * samples, src,
                                      parts.ckpt))
                if prev_bwd is not None:
                    ins.append(MoveRecord(TensorKind.DY, chain_channel,
                                          parts.out_per_sample * samples,
                                          prev_bwd + i, parts.dy))
            prefix = footprints[umax]
            records.append(TaskRecord(
                TaskKind.BWD, device, first, last, sizes,
                fused, True, False, 0.0, ins, list(dw_out),
                prefix[last + 1] - prefix[first], label,
            ))

    def _emit_update(
        self,
        records: list[TaskRecord],
        pack: Pack,
        parts: _PackParts,
        src_bwd: int,
        device: int,
        extra_deps: Sequence[int] = (),
    ) -> None:
        opts = self.options
        profiles = self.profiles
        memo = self._memo
        on_cpu = opts.offload_optimizer
        span = pack.first, pack.last
        ins = [memo.dep_links[dep] for dep in (src_bwd, *extra_deps)]
        outs: list[MoveRecord] = []
        resident = 0
        if not on_cpu:
            if not opts.jit:
                # Weights and gradients were evicted since backward; the
                # late update must swap everything back in (the paper's
                # "unnecessary swaps").
                ins.append(parts.w_in)
                ins.append(parts.dw_out._replace(src_task=src_bwd))
            k_in, w_out, k_out = memo.optimizer_moves[span]
            ins.append(k_in)
            outs += (w_out, k_out)
            resident = (2 + profiles.optimizer_slots) * parts.w_in.nbytes
        records.append(TaskRecord(
            TaskKind.UPD, device, pack.first, pack.last, (1,),
            False, True, on_cpu, memo.update_flops[span], ins, outs,
            resident, parts.upd,
        ))
