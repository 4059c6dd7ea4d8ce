"""Configuration Search Engine (Algorithm 1).

Sweeps backward microbatch sizes, derives backward packs (Algorithm 2),
then sweeps forward microbatch sizes with forward packs constrained so the
last forward pack equals the last backward pack (jit-compute); every
candidate four-tuple is unrolled into its schedule (Algorithm 3) as the
tasks the Runtime executes and scored by the Runtime Estimator.  The
minimum-estimate configuration wins; only its task graph is built.

The paper sweeps every integer microbatch size up to ``U_MAX``; by default
we sweep divisors of the minibatch plus powers of two (a documented knob
-- ``exhaustive=True`` restores the full integer sweep), which preserves
the found optima on every model we evaluate while keeping Python-side
search times close to the paper's reported seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import InfeasibleConfigError, SchedulingError
from repro.core.config import Configuration, integer
from repro.core.estimator import RuntimeEstimator
from repro.core.packing import balanced_time_packing
from repro.core.profiler import ModelProfiles
from repro.core.taskgraph import HarmonyGraphBuilder, ScheduleOptions
from repro.graph.layer import Phase
from repro.hardware.server import ServerSpec


@dataclass(frozen=True)
class SearchSettings:
    """Knobs of the search engine."""

    u_fmax: int = 64
    u_bmax: int = 64
    # Fraction of physical GPU memory the scheduler plans against; the
    # remainder is headroom for the prefetch double buffer and allocator
    # fragmentation (the Runtime keeps two tasks in flight).
    capacity_fraction: float = 0.45
    exhaustive: bool = False
    # Equi-FB (Table 4): reuse the backward packs and microbatch size for
    # the forward pass instead of searching them independently.
    equi_fb: bool = False

    def __post_init__(self) -> None:
        if integer("u_fmax", self.u_fmax) < 1 or \
                integer("u_bmax", self.u_bmax) < 1:
            raise SchedulingError(
                f"microbatch size limits must be at least 1, got "
                f"u_fmax={self.u_fmax}, u_bmax={self.u_bmax}"
            )
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise SchedulingError(
                f"capacity_fraction must be in (0, 1], got "
                f"{self.capacity_fraction}"
            )


@dataclass(frozen=True)
class Explored:
    """One evaluated configuration with its estimated iteration time."""

    __slots__ = ("config", "estimate")

    config: Configuration
    estimate: float


@dataclass(frozen=True)
class SearchResult:
    """What Algorithm 1 found.  Immutable: one result is shared by every
    plan of its problem through ``repro.core.harmony``'s search store."""

    best: Configuration
    best_estimate: float
    explored: tuple[Explored, ...] = ()
    elapsed_seconds: float = 0.0
    n_feasible: int = 0
    n_infeasible: int = 0

    def describe(self) -> str:
        return (
            f"best {self.best.describe()} "
            f"(est. {self.best_estimate:.3f}s/iter; "
            f"{self.n_feasible} feasible / {self.n_infeasible} infeasible "
            f"configs in {self.elapsed_seconds:.1f}s)"
        )


def _candidate_sizes(limit: int, total: int, exhaustive: bool) -> list[int]:
    """Microbatch sizes to sweep: all of 1..limit when exhaustive, else
    divisors of the (per-GPU) minibatch plus powers of two."""
    cap = min(limit, total)
    if exhaustive:
        return list(range(1, cap + 1))
    sizes = {u for u in range(1, cap + 1) if total % u == 0}
    u = 1
    while u <= cap:
        sizes.add(u)
        u *= 2
    return sorted(sizes)


class ConfigurationSearch:
    """Algorithm 1, bound to a profiled model and a server."""

    def __init__(
        self,
        profiles: ModelProfiles,
        server: ServerSpec,
        minibatch: int,
        options: ScheduleOptions,
        settings: SearchSettings = SearchSettings(),
    ):
        if integer("minibatch", minibatch) < 1:
            raise SchedulingError("minibatch must be positive")
        self.profiles = profiles
        self.server = server
        self.minibatch = minibatch
        self.options = options
        self.settings = settings
        self.capacity = int(server.gpu.memory_bytes * settings.capacity_fraction)
        self.builder = HarmonyGraphBuilder(
            profiles, server.n_gpus, minibatch, options
        )
        self.estimator = RuntimeEstimator(profiles, server,
                                          prefetch=options.prefetch)

    def _backward_candidates(self, u_b: int):
        """Backward packings to evaluate for one microbatch size.

        The Algorithm 2 default (largest balanced packs) plus, for the
        wrap-around pipeline, the same split rounded up to the next
        multiple of the GPU count -- a finer packing with no leftover-pack
        straggler.  The estimator arbitrates between them.
        """
        candidates = []
        try:
            default = balanced_time_packing(
                Phase.BWD, u_b, self.profiles, self.capacity
            )
            candidates.append(default)
        except InfeasibleConfigError:
            return []
        if self.options.mode == "pp":
            n = self.server.n_gpus
            rounded = -(-len(default) // n) * n
            if rounded != len(default):
                try:
                    candidates.append(balanced_time_packing(
                        Phase.BWD, u_b, self.profiles, self.capacity,
                        min_packs=rounded,
                    ))
                except InfeasibleConfigError:
                    pass
        return candidates

    def _forward_candidates(self, u_f: int, packs_b):
        """Forward packings for one microbatch size, constrained by the
        backward packs (jit-compute tail).  Offers the default plus a
        variant sized so the joint wrap-around list divides evenly over
        the GPUs."""
        if self.settings.equi_fb:
            return [packs_b]
        candidates = []
        try:
            default = balanced_time_packing(
                Phase.FWD, u_f, self.profiles, self.capacity,
                backward_packs=packs_b,
            )
            candidates.append(default)
        except InfeasibleConfigError:
            return []
        if self.options.mode == "pp":
            n = self.server.n_gpus
            # Joint wrap list: forward packs minus the fused tail, plus the
            # backward packs.
            joint = len(default) - 1 + len(packs_b)
            want = len(default) + (-joint) % n
            if want != len(default):
                try:
                    variant = balanced_time_packing(
                        Phase.FWD, u_f, self.profiles, self.capacity,
                        backward_packs=packs_b,
                        min_packs=want - 1,  # the forced tail adds one
                    )
                    if len(variant) == want:
                        candidates.append(variant)
                except InfeasibleConfigError:
                    pass
        return candidates

    def _enumerate_candidates(self) -> list[Configuration]:
        """Lines 1-8 of Algorithm 1: the candidate four-tuples, in the exact
        order the original nested sweep visited them.  Packing (Algorithm
        2) runs here, memoized; the per-candidate schedule emission +
        estimate runs in :meth:`search`.

        No four-tuple repeats: each ``u_b`` is visited once, its rounded
        backward packing differs in length from the default, and so does a
        forward variant (it is kept only at its wanted length)."""
        local = self.minibatch
        if self.options.mode == "dp":
            if self.minibatch % self.server.n_gpus:
                raise SchedulingError(
                    "DP minibatch must divide evenly across GPUs"
                )
            local = self.minibatch // self.server.n_gpus

        u_bs = _candidate_sizes(self.settings.u_bmax, local,
                                self.settings.exhaustive)
        u_fs = _candidate_sizes(self.settings.u_fmax, local,
                                self.settings.exhaustive)

        candidates: list[Configuration] = []
        for u_b in u_bs:
            for packs_b in self._backward_candidates(u_b):
                forward_candidates = [u_b] if self.settings.equi_fb else u_fs
                for u_f in forward_candidates:
                    for packs_f in self._forward_candidates(u_f, packs_b):
                        candidates.append(Configuration(
                            u_f=u_f, packs_f=packs_f,
                            u_b=u_b, packs_b=packs_b,
                        ))
        return candidates

    def _evaluate_one(self, config: Configuration) -> Optional[float]:
        """Estimate one candidate from its emitted tasks, without
        building its task graph; None when infeasible."""
        try:
            return self.estimator.estimate(self.builder.records(config))
        except InfeasibleConfigError:
            return None

    def search(self) -> SearchResult:
        start = time.perf_counter()
        candidates = self._enumerate_candidates()
        estimates = [self._evaluate_one(config) for config in candidates]

        # Deterministic reduce in enumeration order: the first strict
        # minimum wins, exactly as the serial sweep picked it.
        best: Optional[Explored] = None
        explored: list[Explored] = []
        infeasible = 0
        for config, estimate in zip(candidates, estimates):
            if estimate is None:
                infeasible += 1
                continue
            entry = Explored(config=config, estimate=estimate)
            explored.append(entry)
            if best is None or estimate < best.estimate:
                best = entry

        if best is None:
            raise InfeasibleConfigError(
                f"no feasible configuration for minibatch {self.minibatch} "
                f"on {self.server.describe()}"
            )
        return SearchResult(
            best=best.config,
            best_estimate=best.estimate,
            explored=tuple(explored),
            elapsed_seconds=time.perf_counter() - start,
            n_feasible=len(explored),
            n_infeasible=infeasible,
        )
