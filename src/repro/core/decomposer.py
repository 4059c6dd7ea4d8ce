"""Harmony's Decomposer (Section 4.1).

Takes a user model, extracts the layer-granularity graph, sequentializes
any branches by relaying tensors (Figure 6), and emits *per-layer
executable units* so each layer can be invoked individually by the
Profiler and the Runtime.  The minibatch decomposition helper lives here
too.

On this substrate a layer's "code" executes against the machine model: it
reports compute time (with deterministic kernel-level noise, standing in
for real kernel variability) and memory footprint for a given phase and
microbatch size.  The Profiler samples these exactly like it would time
real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.common.errors import GraphError
from repro.common.rng import spread
from repro.graph.graph import LayerGraph
from repro.graph.layer import LayerSpec, Phase
from repro.graph.sequentialize import sequentialize
from repro.hardware.gpu import GpuSpec
from repro.models.spec import ModelSpec

#: Relative amplitude of simulated kernel-time variability.  Real kernels
#: deviate from the analytic FLOP model mostly by a per-kernel systematic
#: factor (tiling efficiency, launch overhead) plus a small per-shape
#: jitter; this is what makes the Profiler's regression an approximation
#: rather than an identity, as in the paper.
KERNEL_NOISE = 0.03
SHAPE_JITTER = 0.004


def _noise(seed: int, layer: int, phase: Phase, microbatch: int) -> float:
    """Deterministic multiplicative deviation for one kernel invocation.

    Systematic per-(layer, phase) component of up to ``KERNEL_NOISE`` plus
    a per-microbatch-size jitter of up to ``SHAPE_JITTER``.  Keeping the
    systematic part independent of the microbatch size is what lets the
    Profiler's affine regression recover it ("strikingly accurate",
    Section 4.2) while the jitter keeps estimates from being exact.

    Draws come from :mod:`repro.common.rng`, the package-wide seeding
    scheme, so kernel noise, baseline jitter and chaos fault plans all
    hang off one reproducible seed without correlating.
    """
    jitter = spread(seed, layer, phase.value, microbatch) * SHAPE_JITTER
    return _systematic(seed, layer, phase.value) + jitter


@lru_cache(maxsize=None)
def _systematic(seed: int, layer: int, phase: str) -> float:
    """The microbatch-independent part of :func:`_noise`, drawn once.

    Pure in its arguments, and bounded by seeds x layers x 3 phases (a few
    thousand entries), so it is cached for the process: the Profiler
    times every layer at several microbatch sizes but needs only one
    systematic draw per (layer, phase).
    """
    return spread(seed, layer, phase) * KERNEL_NOISE


@dataclass(frozen=True)
class LayerUnit:
    """Individually executable code for one layer."""

    spec: LayerSpec
    seed: int = 0

    def run_time(self, gpu: GpuSpec, phase: Phase, microbatch: int) -> float:
        """Wall time of running this layer once (the Profiler's stopwatch)."""
        base = gpu.compute_time(self.spec.flops(phase, microbatch))
        return base * (1.0 + _noise(self.seed, self.spec.index, phase, microbatch))

    def memory_bytes(self, phase: Phase, microbatch: int) -> int:
        if phase is Phase.FWD:
            return self.spec.fwd_memory_bytes(microbatch)
        if phase is Phase.BWD:
            return self.spec.bwd_memory_bytes(microbatch)
        # Weight update touches weights, grads and optimizer state; the
        # state multiplier is applied by the caller who knows the optimizer.
        return 2 * self.spec.param_bytes


@dataclass(frozen=True)
class DecomposedModel:
    """Output of the Decomposer: a chain graph plus per-layer units."""

    model: ModelSpec
    graph: LayerGraph          # guaranteed sequential
    units: tuple[LayerUnit, ...]

    @property
    def n_layers(self) -> int:
        return len(self.graph)

    @property
    def seed(self) -> int:
        """The kernel-noise seed the Decomposer gave every unit."""
        return self.units[0].seed


class Decomposer:
    """Graph Creator + Code Generator of Figure 3."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def decompose(self, model: ModelSpec) -> DecomposedModel:
        graph = model.graph
        if not graph.is_chain():
            graph = sequentialize(graph)
        if len(graph) == 0:
            raise GraphError(f"model {model.name!r} has no layers")
        units = tuple(LayerUnit(spec=layer, seed=self.seed) for layer in graph)
        return DecomposedModel(model=model, graph=graph, units=units)
