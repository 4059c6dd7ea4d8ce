"""Shared machinery for the baseline planners.

The core piece is the *LMS replay*: walk the exact tensor-touch sequence a
schedule performs (weights, stashed activations, gradient buffers,
optimizer state, layer by layer, microbatch by microbatch) through a
per-GPU :class:`~repro.memory.swap_manager.LruSwapManager`, and record the
swap-in/out bytes each schedule step incurs.  The planner then attaches
those bytes as moves on per-(phase, microbatch) tasks and the standard
Runtime executes the graph.

IBM-LMS moves tensors rather than dropping clean copies, so evictions
write back unconditionally -- this is what reproduces the paper's
``(4m+2)N|W|`` weight-swap volume for DP Swap without hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.decomposer import DecomposedModel, Decomposer
from repro.core.profiler import ModelProfiles, Profiler
from repro.core.types import TaskGraph
from repro.hardware.server import ServerSpec
from repro.memory.swap_manager import LruSwapManager
from repro.models.spec import ModelSpec
from repro.models.zoo import build_model
from repro.runtime.executor import run_phase
from repro.runtime.metrics import RunMetrics
from repro.runtime.timemodel import TrueTimeModel


class LmsReplay:
    """Replays a schedule's tensor touches and accumulates step volumes.

    Touches between :meth:`begin_step` and :meth:`end_step` are charged to
    that step; the caller turns each step's (swap_in, swap_out) totals into
    one task's moves.
    """

    def __init__(self, capacity: int):
        self.manager = LruSwapManager(capacity, writeback_clean=True)
        self._step_in = 0
        self._step_out = 0

    def begin_step(self) -> None:
        self._step_in = 0
        self._step_out = 0

    def end_step(self) -> tuple[int, int]:
        return self._step_in, self._step_out

    # -- touch vocabulary -------------------------------------------------------

    def use(self, key: str, nbytes: int, write: bool = False) -> None:
        """Access a tensor that lives in (virtualized) GPU memory."""
        if nbytes == 0:
            return
        decision = self.manager.touch(key, nbytes, write=write)
        self._step_in += decision.swap_in_bytes
        self._step_out += decision.swap_out_bytes

    def produce(self, key: str, nbytes: int) -> None:
        """A tensor created on the GPU (activation, gradient)."""
        if nbytes == 0:
            return
        decision = self.manager.produce(key, nbytes)
        self._step_out += decision.swap_out_bytes

    def drop(self, key: str) -> None:
        """Free a dead tensor without write-back."""
        self.manager.discard(key)

    def flush(self, key: str) -> None:
        """Force a dirty tensor back to host (end-of-iteration state)."""
        self._step_out += self.manager.flush(key)


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
    """Base class: owns decomposition/profiling and the run loop.

    ``reactive = True`` (the LMS-style schemes) runs without prefetch:
    on-demand virtualization faults block compute until the tensor
    arrives, exactly the behaviour per-GPU swapping exhibits.  The
    ZeRO-Infinity analog overrides this -- it ships its own pinned,
    overlapped transfer engine.
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
        from repro.graph.layer import Phase

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

    def plan(self) -> BaselinePlan:
        raise NotImplementedError

    # -- execution -------------------------------------------------------------------

    def run(self, plan: Optional[BaselinePlan] = None) -> RunMetrics:
        plan = plan or self.plan()
        time_model = TrueTimeModel(
            self.decomposed, self.server.gpu, self.server.host,
            n_gpus=self.server.n_gpus,
        )
        return run_phase(
            self.server, plan.graph, time_model, prefetch=not self.reactive,
            host_state_bytes=plan.host_state_bytes,
        )
