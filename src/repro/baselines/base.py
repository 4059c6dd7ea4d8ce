"""Shared machinery for the baseline planners: one LMS schedule compiler.

The core piece is the *LMS replay*: walk the exact tensor-touch sequence a
schedule performs (weights, stashed activations, gradient buffers,
optimizer state, layer by layer, microbatch by microbatch) through a
per-GPU :class:`~repro.memory.swap_manager.LruSwapManager`, and record the
swap-in/out bytes each schedule step incurs.  :class:`LmsReplay` knows the
three step kinds -- forward, backward (with or without recomputation) and
weight update -- over any layer range; :func:`emit_step` turns one step's
totals into one task's moves; :meth:`BaselineScheme.assemble` turns the
graph into a :class:`BaselinePlan`.  A scheme supplies only its step order.

IBM-LMS moves tensors rather than dropping clean copies, so evictions
write back unconditionally -- this is what reproduces the paper's
``(4m+2)N|W|`` weight-swap volume for DP Swap without hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.config import Pack
from repro.core.decomposer import DecomposedModel, Decomposer
from repro.core.profiler import ModelProfiles, Profiler
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.graph.layer import Phase
from repro.hardware.server import ServerSpec
from repro.memory.swap_manager import LruSwapManager
from repro.models.spec import ModelSpec
from repro.models.zoo import build_model
from repro.runtime.executor import run_phase
from repro.runtime.metrics import RunMetrics
from repro.runtime.timemodel import KernelTimes, TrueTimeModel


#: most layers one chunk of :func:`layer_chunks` spans
MAX_CHUNK_LAYERS = 32


def layer_chunks(profiles, max_bytes: int) -> list[tuple[int, int]]:
    """Contiguous layer chunks whose weights fit a transfer window.

    LMS interleaves swapping and compute layer by layer; emitting one task
    per (microbatch, chunk) lets the Runtime's prefetch reproduce that
    overlap without one task per layer.
    """
    chunks = []
    first = 0
    n = len(profiles)
    while first < n:
        last = first
        acc = profiles[first].param_bytes
        while (
            last + 1 < n
            and last - first + 1 < MAX_CHUNK_LAYERS
            and acc + profiles[last + 1].param_bytes <= max_bytes
        ):
            last += 1
            acc += profiles[last].param_bytes
        chunks.append((first, last))
        first = last + 1
    return chunks


class LmsReplay:
    """Replays a schedule's tensor touches on one GPU, step by step.

    Each step method touches one layer range and returns that step's
    ``(swap_in, swap_out)`` bytes.  ``version`` suffixes the weight keys,
    so a scheme that keeps several weight versions (PipeDream-2BW) swaps
    each one separately.
    """

    def __init__(self, capacity: int):
        self.manager = LruSwapManager(capacity)
        self._in = 0
        self._out = 0

    def forward(self, profiles: ModelProfiles, pack: Pack, mb: int,
                size: int, version: str = "",
                recompute: bool = False) -> tuple[int, int]:
        """Fetch each layer's weights and stash its activations -- or,
        recomputing, checkpoint only the pack's input."""
        for layer in pack.layers:
            self._use(f"W:{layer}{version}", profiles[layer].param_bytes)
            if not recompute:
                self._produce(f"stash:{layer}:{mb}",
                              profiles[layer].saved_for_backward_bytes(size))
        if recompute:
            self._produce(f"ckpt:{pack.first}:{mb}",
                          profiles.boundary_in_bytes(pack, size))
        return self._step()

    def backward(self, profiles: ModelProfiles, pack: Pack, mb: int,
                 size: int, version: str = "",
                 recompute: bool = False) -> tuple[int, int]:
        """Walk the layers in reverse: fetch weights, consume the stash (or
        rematerialize it from the checkpoint), accumulate ``dW``."""
        if recompute:
            self._use(f"ckpt:{pack.first}:{mb}",
                      profiles.boundary_in_bytes(pack, size))
            self.manager.discard(f"ckpt:{pack.first}:{mb}")
        for layer in reversed(pack.layers):
            self._use(f"W:{layer}{version}", profiles[layer].param_bytes)
            saved = profiles[layer].saved_for_backward_bytes(size)
            if recompute:
                self._produce(f"restash:{layer}", saved)
                self.manager.discard(f"restash:{layer}")
            else:
                self._use(f"stash:{layer}:{mb}", saved)
                self.manager.discard(f"stash:{layer}:{mb}")
            self._use(f"dW:{layer}", profiles[layer].param_bytes, write=True)
        return self._step()

    def update(self, profiles: ModelProfiles, pack: Pack, slots: int,
               version: str = "") -> tuple[int, int]:
        """Apply the accumulated gradient, then force the weights and
        optimizer state back to host (end-of-iteration state)."""
        for layer in pack.layers:
            nbytes = profiles[layer].param_bytes
            self._use(f"W:{layer}{version}", nbytes, write=True)
            self._use(f"dW:{layer}", nbytes)
            self._use(f"K:{layer}", nbytes * slots, write=True)
        for layer in pack.layers:
            self._out += self.manager.flush(f"W:{layer}{version}")
            self._out += self.manager.flush(f"K:{layer}")
        return self._step()

    # -- touch primitives ---------------------------------------------------------

    def _use(self, key: str, nbytes: int, write: bool = False) -> None:
        """Access a tensor that lives in (virtualized) GPU memory."""
        if nbytes == 0:
            return
        decision = self.manager.touch(key, nbytes, write=write)
        self._in += decision.swap_in_bytes
        self._out += decision.swap_out_bytes

    def _produce(self, key: str, nbytes: int) -> None:
        """A tensor created on the GPU (activation, gradient)."""
        if nbytes == 0:
            return
        self._out += self.manager.produce(key, nbytes).swap_out_bytes

    def _step(self) -> tuple[int, int]:
        traffic = (self._in, self._out)
        self._in = self._out = 0
        return traffic


def emit_step(graph: TaskGraph, kind: TaskKind, device: int, pack: Pack,
              size: int, traffic: tuple[int, int],
              extra_ins: Sequence[Move] = (), label: str = "",
              recompute: bool = True) -> Task:
    """Add one replayed step to ``graph`` as a task.

    The step's swap-in becomes an ``lms-in`` move, its swap-out an
    ``lms-out`` move; ``extra_ins`` (p2p boundaries, ``order`` edges)
    follow the swap-in.  Everything fetched across PCIe occupies GPU
    memory while the task runs, so that is its resident set.
    ``recompute`` defaults to :class:`~repro.core.types.Task`'s own
    default, which update tasks keep.
    """
    swap_in, swap_out = traffic
    task = Task(
        tid=len(graph.tasks), kind=kind, first_layer=pack.first,
        last_layer=pack.last, device=device, microbatches=(size,),
        recompute=recompute, label=label,
    )
    if swap_in:
        task.ins.append(Move(tensor=TensorKind.W, nbytes=swap_in,
                             channel=Channel.SWAP, label="lms-in"))
    task.ins.extend(extra_ins)
    if swap_out:
        task.outs.append(Move(tensor=TensorKind.DW, nbytes=swap_out,
                              channel=Channel.SWAP, label="lms-out"))
    task.resident_bytes = sum(
        move.nbytes for move in task.ins if move.channel.crosses_pcie
    )
    return graph.add(task)


def order_after(tid: int) -> Move:
    """A zero-byte edge that runs a task after ``tid`` on the same GPU."""
    return Move(tensor=TensorKind.DW, nbytes=0, channel=Channel.LOCAL,
                src_task=tid, label="order")


@dataclass
class BaselinePlan:
    """A baseline schedule ready to execute."""

    scheme: str
    model: ModelSpec
    server: ServerSpec
    minibatch: int
    microbatch: int
    decomposed: DecomposedModel
    profiles: ModelProfiles
    graph: TaskGraph
    host_state_bytes: int
    notes: str = ""

    def describe(self) -> str:
        return (
            f"{self.scheme} for {self.model.name}, minibatch "
            f"{self.minibatch} (microbatch {self.microbatch}): "
            f"{len(self.graph)} tasks, static swap "
            f"{self.graph.global_swap_bytes() / 2**30:.1f} GiB/iter"
        )


class BaselineScheme:
    """Base class: owns decomposition/profiling, plan assembly and the run
    loop.

    ``reactive = True`` (the LMS-style schemes) runs without prefetch:
    on-demand virtualization faults block compute until the tensor
    arrives, exactly the behaviour per-GPU swapping exhibits, and the
    graph's host transfers take the pageable LMS path.  The ZeRO-Infinity
    analog overrides this -- it ships its own pinned, overlapped transfer
    engine.
    """

    name = "baseline"
    reactive = True
    #: Justified analyzer exceptions for this scheme's schedules; each is
    #: surfaced (not silenced) by the analyzer as a waived INFO finding.
    waivers: tuple = ()

    def __init__(
        self,
        model: Union[str, ModelSpec],
        server: ServerSpec,
        minibatch: int,
        microbatch: Optional[int] = None,
        seed: int = 0,
    ):
        self.model = build_model(model) if isinstance(model, str) else model
        self.server = server
        self.minibatch = minibatch
        # One seed pins the whole baseline run: the Decomposer draws its
        # kernel noise through repro.common.rng, the package-wide seeding
        # scheme shared with Harmony runs and chaos fault plans.
        self.seed = seed
        self.decomposed = Decomposer(seed=seed).decompose(self.model)
        self.profiles = Profiler(server.gpu).profile(self.decomposed)
        self.microbatch = microbatch or self.default_microbatch()

    # -- to override ---------------------------------------------------------------

    def default_microbatch(self) -> int:
        """Largest microbatch whose single-layer working set fits the GPU."""
        capacity = int(self.server.gpu.memory_bytes * 0.9)
        u = 1
        while u * 2 <= self.minibatch:
            peak = max(
                self.profiles[i].memory(Phase.BWD, u * 2)
                for i in range(len(self.profiles))
            )
            if peak > capacity // 4:
                break
            u *= 2
        return u

    def host_state_bytes(self) -> int:
        """Host memory the run needs: model state plus the minibatch."""
        return (
            self.model.model_state_bytes
            + self.minibatch * self.model.sample_bytes
        )

    def plan(self) -> BaselinePlan:
        raise NotImplementedError

    # -- plan assembly and execution -----------------------------------------------

    def new_graph(self) -> TaskGraph:
        return TaskGraph(mode=self.name, n_devices=self.server.n_gpus,
                         pageable_swaps=self.reactive)

    def assemble(self, graph: TaskGraph, microbatch: int,
                 notes: str) -> BaselinePlan:
        """Validate ``graph`` and wrap it as this scheme's plan."""
        graph.validate()
        return BaselinePlan(
            scheme=self.name,
            model=self.model,
            server=self.server,
            minibatch=self.minibatch,
            microbatch=microbatch,
            decomposed=self.decomposed,
            profiles=self.profiles,
            graph=graph,
            host_state_bytes=self.host_state_bytes(),
            notes=notes,
        )

    def run(self, plan: Optional[BaselinePlan] = None) -> RunMetrics:
        plan = plan or self.plan()
        time_model = TrueTimeModel(
            KernelTimes(self.decomposed, self.server.gpu), self.server.host,
            n_gpus=self.server.n_gpus,
        )
        return run_phase(
            self.server, plan.graph, time_model, prefetch=not self.reactive,
            host_state_bytes=plan.host_state_bytes,
        )
