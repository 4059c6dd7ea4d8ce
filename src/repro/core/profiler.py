"""Harmony's Profiler (Section 4.2).

Runs each layer individually on a single GPU of the deployment type,
sampling a handful of microbatch sizes, and fits a linear regression per
layer/phase so the Scheduler can interpolate characteristics at any
unsampled microbatch size ("strikingly accurate" per the paper, because
layer cost is affine in the microbatch size to first order).

The resulting :class:`ModelProfiles` is the ``phi`` argument of
Algorithms 1 and 2: per-layer time/memory/activation sizes, plus the
pack-level aggregates (footprints and boundary tensor sizes) the packing
algorithm and task-graph generator consume.

The fits depend only on the model content, the GPU, the kernel-noise seed
and the sample sizes -- not on the server's GPU count, the minibatch or
any plan option -- so :meth:`Profiler.profile` profiles each model once
per process and reuses the fits from a content-addressed store.  So does
every Algorithm 2 packing, which depends only on the fits and its own
arguments: the store entry keeps one packing table per model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.common.errors import SchedulingError
from repro.common.fingerprint import fingerprint
from repro.common.floats import ordered_sum
from repro.common.lru import lru_get
from repro.core.config import Pack
from repro.core.decomposer import DecomposedModel
from repro.graph.layer import Phase
from repro.hardware.gpu import GpuSpec

_T = TypeVar("_T")

DEFAULT_SAMPLE_SIZES = (1, 2, 4, 8, 16, 32, 64)

#: Most fitted models the profile store keeps; the least recently used is
#: evicted, so a long-running service planning many models stays bounded.
PROFILE_STORE_SIZE = 64


@dataclass(frozen=True)
class AffineFit:
    """``value(u) = intercept + slope * u``, fitted by least squares."""

    intercept: float
    slope: float

    def __call__(self, u: int) -> float:
        return self.intercept + self.slope * u

    @classmethod
    def fit(cls, xs: Sequence[float], ys: Sequence[float]) -> "AffineFit":
        if len(xs) != len(ys) or not xs:
            raise SchedulingError("regression needs matching non-empty samples")
        if len(xs) == 1:
            return cls(intercept=0.0, slope=ys[0] / xs[0] if xs[0] else 0.0)
        slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
        return cls(intercept=float(intercept), slope=float(slope))


@dataclass(frozen=True)
class LayerProfile:
    """Regressed per-layer characteristics (time in s, sizes in bytes)."""

    index: int
    name: str
    param_bytes: int
    time_fwd: AffineFit
    time_bwd: AffineFit
    time_upd: float
    mem_fwd: AffineFit
    mem_bwd: AffineFit
    act_in_per_sample: int
    act_out_per_sample: int
    workspace_per_sample: int = 0

    def time(self, phase: Phase, u: int) -> float:
        if phase is Phase.FWD:
            return max(0.0, self.time_fwd(u))
        if phase is Phase.BWD:
            return max(0.0, self.time_bwd(u))
        return self.time_upd

    def memory(self, phase: Phase, u: int) -> int:
        if phase is Phase.FWD:
            return max(0, int(self.mem_fwd(u)))
        if phase is Phase.BWD:
            return max(0, int(self.mem_bwd(u)))
        return 2 * self.param_bytes

    def act_in_bytes(self, u: int) -> int:
        return self.act_in_per_sample * u

    def act_out_bytes(self, u: int) -> int:
        return self.act_out_per_sample * u

    def saved_for_backward_bytes(self, u: int) -> int:
        """What a no-recompute backward must keep from the forward pass:
        the output activation plus intermediate workspace (e.g. attention
        probabilities) -- the tensors autograd saves."""
        return (self.act_out_per_sample + self.workspace_per_sample) * u


def _columns(fits: Sequence[AffineFit]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The intercept and slope columns of ``fits``."""
    return (tuple(fit.intercept for fit in fits),
            tuple(fit.slope for fit in fits))


class FittedModel:
    """A profile-store entry: what depends only on one model's fits.

    ``layers`` are the frozen fits; the intercept and slope columns of the
    FWD and BWD time and memory fits and the UPD times do not depend on
    ``u``, so each per-``(phase, u)`` table is one comprehension over two
    columns; ``packings`` is Algorithm 2's table
    (:meth:`ModelProfiles.packing`), shared by every plan of the model.
    Its keys range over microbatch sizes up to the search's ``u_max``,
    never over the minibatch, and it is evicted with the fits.
    """

    __slots__ = ("layers", "time_columns", "mem_columns", "upd_times",
                 "packings")

    def __init__(self, layers: tuple[LayerProfile, ...]):
        self.layers = layers
        self.time_columns = {
            Phase.FWD: _columns([layer.time_fwd for layer in layers]),
            Phase.BWD: _columns([layer.time_bwd for layer in layers]),
        }
        self.mem_columns = {
            Phase.FWD: _columns([layer.mem_fwd for layer in layers]),
            Phase.BWD: _columns([layer.mem_bwd for layer in layers]),
        }
        self.upd_times = tuple(layer.time_upd for layer in layers)
        self.packings: dict[Any, Any] = {}


class ModelProfiles:
    """The Scheduler's view of a profiled model (``phi``).

    Pack-level aggregates are the packing algorithm's and the graph
    builder's hot path: Algorithm 2 probes ``pack_memory`` for every
    candidate cut at every microbatch size, which naively re-sums the
    per-layer memory list each time (``O(R)`` per probe, ``O(R^3)`` per
    search for deep CNNs).  The aggregates are served from memoized
    per-``(phase, u)`` tables:

    - **integer** aggregates (memory footprints, parameter bytes, the
      essential bytes of Algorithm 2's lower bound) come from prefix-sum
      tables -- Python ints, so the prefix difference is *exactly* the
      naive sum, bit for bit;
    - **pack times** are slices of one memoized per-layer time table
      (:meth:`layer_times`), folded left to right in the same order as
      the naive per-layer sum, so they are the identical bit
      pattern (prefix differences would NOT be bit-stable for floats,
      which is why prefix tables are only used for ints);
    - **update FLOPs** are memoized whole, computed once with the naive
      summation order.

    Immutable: ``layers`` is a tuple of frozen fits, which the profile
    store shares between instances, so no memo table (here or in a
    dependent cache such as the runtime estimator's) can go stale.  A
    different profile is a new instance.  The per-``(phase, u)`` tables
    are per instance and freed with their plan; Algorithm 2's packing
    table lives on the :class:`FittedModel` the profile is built from.
    ``layers`` is either that entry (how the store shares one) or the
    per-layer fits, which get a private entry.
    """

    def __init__(
        self,
        layers: FittedModel | Sequence[LayerProfile],
        optimizer_slots: int,
        gpu: GpuSpec,
    ):
        if not isinstance(layers, FittedModel):
            layers = FittedModel(tuple(layers))
        self._entry = layers
        self.layers = layers.layers
        self.optimizer_slots = optimizer_slots
        self.gpu = gpu
        self._memo: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> LayerProfile:
        return self.layers[index]

    # -- memoization -----------------------------------------------------------

    def memo(self, key: Any, compute: Callable[[], _T]) -> _T:
        """Memoize ``compute()`` under ``key`` for this instance; keys are
        namespaced by their first element."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def packing(self, key: Any, compute: Callable[[], _T]) -> _T:
        """Memoize ``compute()`` under ``key`` in the packing table shared
        by every profile of the same store entry.  Only
        :func:`repro.core.packing.balanced_time_packing` stores here, under
        a key that holds every argument its result depends on."""
        table = self._entry.packings
        try:
            return table[key]
        except KeyError:
            value = table[key] = compute()
            return value

    def _mem_prefix(self, phase: Phase, u: int) -> list[int]:
        """Prefix sums of the per-layer memory list (exact: Python ints).

        ``int(a + b * u)`` clamped at 0 over the FWD or BWD memory fit's
        columns is what :meth:`LayerProfile.memory` computes per layer."""
        def build() -> list[int]:
            intercepts, slopes = self._entry.mem_columns[phase]
            return list(accumulate(
                [m if (m := int(a + b * u)) > 0 else 0
                 for a, b in zip(intercepts, slopes)], initial=0))

        return self.memo(("memp", phase, u), build)

    def _param_prefix(self) -> list[int]:
        return self.memo(("paramp",), lambda: list(accumulate(
            (layer.param_bytes for layer in self.layers), initial=0)))

    def _act_out_prefix(self) -> list[int]:
        """Prefix sums of the per-sample output activations, for every
        ``u`` at once: ``act_out_bytes(u)`` is per-sample bytes times ``u``."""
        return self.memo(("actp",), lambda: list(accumulate(
            (layer.act_out_per_sample for layer in self.layers), initial=0)))

    # -- per-layer lists used by Algorithm 2 ---------------------------------

    def layer_times(self, phase: Phase, u: int) -> tuple[float, ...]:
        """The per-layer time table at microbatch ``u``, memoized per
        ``(phase, u)``.  Every pack and task time is summed from it.

        ``a + b * u`` clamped at 0.0 over the time fit's columns is the
        float arithmetic :meth:`LayerProfile.time` does per layer, so the
        table has its bits; UPD times do not depend on ``u``."""
        def build() -> tuple[float, ...]:
            if phase is Phase.UPD:
                return self._entry.upd_times
            intercepts, slopes = self._entry.time_columns[phase]
            return tuple([v if (v := a + b * u) > 0.0 else 0.0
                          for a, b in zip(intercepts, slopes)])

        return self.memo(("times", phase, u), build)

    def span_time(self, phase: Phase, first: int, last: int, u: int) -> float:
        """Time of layers ``first..last`` (inclusive) at microbatch ``u``.

        :func:`~repro.common.floats.ordered_sum` over a slice of the table
        adds the same floats in the same left-to-right order as summing
        the layers one by one, so the result is that naive sum's bits (a
        prefix difference's would not be).  Builtin ``sum`` gives the same
        bits only up to Python 3.11: from 3.12 on it compensates float
        sums."""
        return ordered_sum(self.layer_times(phase, u)[first:last + 1])

    # -- pack-level aggregates -------------------------------------------------

    def essential_bytes(self, phase: Phase, n: int, u: int) -> int:
        """Irreducible residency of layers ``0..n-1`` for Algorithm 2's
        lower bound ``S_min``: parameters (FWD), plus gradients and output
        activations (BWD).  Int prefixes, so exactly the per-layer sum."""
        params = self._param_prefix()[n]
        if phase is Phase.FWD:
            return params
        return 2 * params + u * self._act_out_prefix()[n]

    def pack_param_bytes(self, pack: Pack) -> int:
        prefix = self._param_prefix()
        return prefix[pack.last + 1] - prefix[pack.first]

    def pack_time(self, phase: Phase, pack: Pack, u: int) -> float:
        return self.span_time(phase, pack.first, pack.last, u)

    def pack_fwd_memory(self, pack: Pack, u: int) -> int:
        """Footprint of a forward task, following Algorithm 2 line 13:
        the *sum* of the per-layer forward memory list over the pack
        (``m[p].Sum()``).  Summing is conservative -- it charges every
        layer's live activations at once -- and is exactly what keeps the
        paper's packs fine-grained enough for the pipeline to balance."""
        prefix = self._mem_prefix(Phase.FWD, u)
        return prefix[pack.last + 1] - prefix[pack.first]

    def pack_bwd_memory(self, pack: Pack, u: int) -> int:
        """Footprint of a backward task: the sum of the per-layer backward
        memory list (weights + grads + recomputed stash + transients per
        layer), per Algorithm 2."""
        prefix = self._mem_prefix(Phase.BWD, u)
        return prefix[pack.last + 1] - prefix[pack.first]

    def pack_memory(self, phase: Phase, pack: Pack, u: int) -> int:
        if phase is Phase.FWD:
            return self.pack_fwd_memory(pack, u)
        if phase is Phase.BWD:
            return self.pack_bwd_memory(pack, u)
        # Per-layer products are ints, so distributing the factor over the
        # parameter prefix sum is exact.
        return (2 + self.optimizer_slots) * self.pack_param_bytes(pack)

    def pack_memory_naive(self, phase: Phase, pack: Pack, u: int) -> int:
        """The original O(pack) summation, kept as the oracle the property
        tests compare the prefix-sum tables against."""
        if phase is Phase.UPD:
            return sum(
                (2 + self.optimizer_slots) * self.layers[i].param_bytes
                for i in pack.layers
            )
        return sum(self.layers[i].memory(phase, u) for i in pack.layers)

    # -- boundary tensors --------------------------------------------------------

    def boundary_in_bytes(self, pack: Pack, u: int) -> int:
        """Size of the pack's input activation for one microbatch."""
        return self.layers[pack.first].act_in_bytes(u)

    def boundary_out_bytes(self, pack: Pack, u: int) -> int:
        return self.layers[pack.last].act_out_bytes(u)

    def pack_optimizer_bytes(self, pack: Pack) -> int:
        return self.pack_param_bytes(pack) * self.optimizer_slots

    def pack_update_flops(self, pack: Pack) -> float:
        """FLOPs of the optimizer step over the pack's parameters."""
        return self.memo(
            ("uflops", pack.first, pack.last),
            lambda: ordered_sum(
                10.0 * self.layers[i].param_bytes / 4 for i in pack.layers
            ),
        )

    @property
    def total_param_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)


#: The profile store: fitted models by content address, least recently
#: used first.  Holds fits, their columns and packing tables, never a
#: ``ModelProfiles``.
_STORE: OrderedDict[str, FittedModel] = OrderedDict()


class Profiler:
    """Times each layer unit at sampled microbatch sizes, fits regressions.

    ``sample_sizes`` defaults to powers of two up to 64; brute-force
    profiling of every size is impractical (Section 4.2), and the affine
    regression interpolates the rest.
    """

    def __init__(self, gpu: GpuSpec, sample_sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES):
        if not sample_sizes or any(s < 1 for s in sample_sizes):
            raise SchedulingError("profiler sample sizes must be positive")
        self.gpu = gpu
        self.sample_sizes = tuple(sorted(set(sample_sizes)))

    def profile(self, decomposed: DecomposedModel) -> ModelProfiles:
        """Profile ``decomposed``; each distinct model is fitted once.

        The fits are keyed by the model's content address, the GPU spec,
        the kernel-noise seed and the sample sizes -- everything they
        depend on.  A hit shares the stored :class:`FittedModel` -- the
        frozen fits, their columns and Algorithm 2's packing table; every
        call still returns a fresh :class:`ModelProfiles` with its own
        per-``(phase, u)`` tables, which are freed with their plan (shared
        tables would grow with every minibatch and server ever planned).
        """
        key = fingerprint(decomposed.model.fingerprint, self.gpu,
                          decomposed.seed, self.sample_sizes)
        entry = lru_get(_STORE, key,
                        lambda: FittedModel(self._fit(decomposed)),
                        PROFILE_STORE_SIZE)
        return ModelProfiles(
            entry,
            optimizer_slots=decomposed.model.optimizer_slots,
            gpu=self.gpu,
        )

    def _fit(self, decomposed: DecomposedModel) -> tuple[LayerProfile, ...]:
        profiles = []
        for unit in decomposed.units:
            xs = list(self.sample_sizes)
            spec = unit.spec
            profiles.append(
                LayerProfile(
                    index=spec.index,
                    name=spec.name,
                    param_bytes=spec.param_bytes,
                    time_fwd=AffineFit.fit(
                        xs, [unit.run_time(self.gpu, Phase.FWD, u) for u in xs]
                    ),
                    time_bwd=AffineFit.fit(
                        xs, [unit.run_time(self.gpu, Phase.BWD, u) for u in xs]
                    ),
                    time_upd=unit.run_time(self.gpu, Phase.UPD, 1),
                    mem_fwd=AffineFit.fit(
                        xs, [unit.memory_bytes(Phase.FWD, u) for u in xs]
                    ),
                    mem_bwd=AffineFit.fit(
                        xs, [unit.memory_bytes(Phase.BWD, u) for u in xs]
                    ),
                    act_in_per_sample=spec.act_in_bytes_per_sample,
                    act_out_per_sample=spec.act_out_bytes_per_sample,
                    workspace_per_sample=spec.workspace_bytes_per_sample,
                )
            )
        return tuple(profiles)
