"""Layer packing (Algorithm 2: Balanced Time Packing).

Given a phase, a microbatch size and the profiled per-layer time/memory
lists, find contiguous layer packs that (a) fit GPU memory and (b) have
near-equal compute time -- avoiding the stragglers that greedy
memory-maximal packing creates (Figure 7).

The search loops over the number of packs ``S`` starting from the memory
lower bound (largest feasible packs first, maximizing average pack size),
splits the layer chain at the balanced time quantiles via binary search on
the prefix-sum of layer times, and returns the first split whose packs all
fit in memory.  Worst-case ``O(R^2)`` as stated in the paper.

Forward packing can be constrained by an existing backward pack list: the
last forward pack is forced equal to the last backward pack (the
jit-compute optimization of Algorithm 1), so the first backward task needs
no rematerialization.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Optional, Sequence

from repro.common.errors import InfeasibleConfigError
from repro.common.floats import ordered_sum
from repro.core.config import Pack, packs_from_boundaries, validate_packs
from repro.core.profiler import ModelProfiles
from repro.graph.layer import Phase


def quantile_cuts(prefix: Sequence[float], n: int) -> list[int]:
    """The ``n - 1`` time-quantile cuts of lines 7-11 of Algorithm 2.

    With the average part time ``c = prefix[-1] / n``, binary-search the
    accumulated part times ``[c, 2c, ...]`` into ``prefix``, the running
    sums of the layer times, and cut after the layer found (capped so the
    last part keeps a layer).  The cuts are non-decreasing; two equal
    cuts mean a single layer exceeds the quantile step.
    """
    step = prefix[-1] / n
    last = len(prefix) - 1
    return [min(bisect_left(prefix, k * step) + 1, last) for k in range(1, n)]


def _split_packs(prefix: list[float], n_packs: int) -> Optional[tuple[Pack, ...]]:
    """Split layers into ``n_packs`` contiguous packs of near-equal time.

    Cuts at :func:`quantile_cuts`, then refines the cuts.  Returns
    ``None`` when cuts collide, in which case the caller tries more
    packs.
    """
    n_layers = len(prefix)
    if n_packs == 1:
        return (Pack(0, n_layers - 1),)
    cuts = quantile_cuts(prefix, n_packs)
    if len(set(cuts)) != n_packs - 1:
        return None
    boundaries = _refine_boundaries(prefix, [0] + cuts)
    return packs_from_boundaries(boundaries, n_layers)


def _refine_boundaries(prefix: list[float], boundaries: list[int]) -> list[int]:
    """Local search shaving the longest pack: nudge each cut one layer at a
    time while it reduces the maximum pack time (a straggler pack is a
    straggler *pipeline stage*, so the last layer matters).  This is a
    local search, not an exact min-max split: over the bench zoo models,
    both phases, ``u`` in 1..16 and 2..32 packs, the refined longest pack
    is more than 1% above the optimal contiguous split in about a quarter
    of the cases, and up to 45% above it (bert-large forward, 12 packs).

    A cut's move is a pure function of its position and its two
    neighbours, so a cut whose three values are unchanged since it last
    stayed put is skipped: it would stay put again.  The sweeps make the
    same moves in the same order as re-examining every cut.
    """
    n_layers = len(prefix)
    # Sentinel: the last cut's right neighbour is the end of the chain.
    cuts = boundaries + [n_layers]
    settled: list[Optional[tuple[int, int, int]]] = [None] * len(cuts)

    def pack_time(first: int, last_exclusive: int) -> float:
        left = prefix[first - 1] if first > 0 else 0.0
        return prefix[last_exclusive - 1] - left

    improved = True
    while improved:
        improved = False
        for i in range(1, len(boundaries)):
            state = (cuts[i - 1], cuts[i], cuts[i + 1])
            if settled[i] == state:
                continue
            left_first, cur, right_end = state
            best_cut, best_cost = cur, max(
                pack_time(left_first, cur), pack_time(cur, right_end)
            )
            for cut in (cur - 1, cur + 1):
                if not left_first < cut < right_end:
                    continue
                cost = max(pack_time(left_first, cut), pack_time(cut, right_end))
                if cost < best_cost - 1e-12:
                    best_cut, best_cost = cut, cost
            if best_cut != cur:
                cuts[i] = best_cut
                improved = True
            else:
                settled[i] = state
    return cuts[:-1]


def balanced_time_packing(
    phase: Phase,
    u: int,
    profiles: ModelProfiles,
    capacity: int,
    backward_packs: Optional[Sequence[Pack]] = None,
    min_packs: int = 1,
) -> tuple[Pack, ...]:
    """Algorithm 2.  Returns packs with balanced time and maximal size.

    ``backward_packs`` triggers the forward-packing mode: only the layers
    before the last backward pack are packed, and that last backward pack
    is appended verbatim as the final forward pack (jit-compute).

    ``min_packs`` raises the starting pack count; the search engine uses it
    to also evaluate pack counts rounded to a multiple of the GPU count,
    where the wrap-around pipeline has no leftover-pack straggler.

    The search engine re-requests the same packing many times (every
    forward microbatch size is paired with every backward candidate, but
    the forward split depends only on the forced tail, not on which
    backward sweep asked), and every plan of a model re-requests the
    packings of the microbatch sizes it shares with earlier plans.  The
    result depends only on the fits and the arguments, so results --
    including the infeasible outcome -- are memoized in the packing table
    of the profile-store entry (:meth:`ModelProfiles.packing`) under the
    full argument key, and a repeat call from any plan of the model is a
    dict hit.  The returned tuple is immutable and safe to share.  An
    infeasible outcome is memoized as its message, not as the exception:
    a raised exception's traceback reaches back through the planner's
    frames to ``profiles`` itself, a cycle that would keep the whole plan
    alive until the cyclic garbage collector ran (and a stored one would
    keep it alive as long as the store entry).
    """
    forced_tail = backward_packs[-1] if backward_packs is not None else None
    key = ("btp", phase, u, capacity, forced_tail, min_packs)

    def compute() -> tuple[bool, object]:
        try:
            return (True, _balanced_time_packing(
                phase, u, profiles, capacity, forced_tail, min_packs,
            ))
        except InfeasibleConfigError as exc:
            return (False, str(exc))

    ok, value = profiles.packing(key, compute)
    if not ok:
        raise InfeasibleConfigError(value)
    return value  # type: ignore[return-value]


def _balanced_time_packing(
    phase: Phase,
    u: int,
    profiles: ModelProfiles,
    capacity: int,
    forced_tail: Optional[Pack],
    min_packs: int,
) -> tuple[Pack, ...]:
    total_layers = len(profiles)
    if forced_tail is not None:
        total_layers = forced_tail.first  # pack only layers before it
        if total_layers == 0:
            return (forced_tail,)

    # The layer-time table is shared by every probe of the search; the
    # running sums are computed once for all the pack counts tried below.
    prefix = list(accumulate(profiles.layer_times(phase, u)[:total_layers]))
    essential = profiles.essential_bytes(phase, total_layers, u)
    s_min = max(min_packs, 1, -(-essential // capacity))

    for n_packs in range(s_min, total_layers + 1):
        packs = _split_packs(prefix, n_packs)
        if packs is None:
            continue
        if all(
            profiles.pack_memory(phase, pack, u) <= capacity for pack in packs
        ):
            if forced_tail is not None:
                packs = packs + (forced_tail,)
                validate_packs(packs, forced_tail.last + 1)
            return packs

    raise InfeasibleConfigError(
        f"no {phase.value} packing fits {capacity} B at microbatch {u}; "
        "even single-layer packs exceed GPU memory"
    )


def greedy_memory_packing(
    phase: Phase,
    u: int,
    profiles: ModelProfiles,
    capacity: int,
) -> tuple[Pack, ...]:
    """The strawman of Figure 7: grow each pack to the memory limit.

    Produces the largest packs that fit, ignoring time balance -- fewer,
    coarser tasks whose unequal runtimes create pipeline stragglers.
    """
    packs: list[Pack] = []
    first = 0
    n_layers = len(profiles)
    while first < n_layers:
        last = first
        while last + 1 < n_layers and (
            profiles.pack_memory(phase, Pack(first, last + 1), u) <= capacity
        ):
            last += 1
        if profiles.pack_memory(phase, Pack(first, last), u) > capacity:
            raise InfeasibleConfigError(
                f"layer {first} alone exceeds capacity at microbatch {u}"
            )
        packs.append(Pack(first, last))
        first = last + 1
    return tuple(packs)


def pack_imbalance(profiles: ModelProfiles, phase: Phase, packs: Sequence[Pack], u: int) -> float:
    """Max/mean pack-time ratio; 1.0 is perfectly balanced."""
    times = [profiles.pack_time(phase, pack, u) for pack in packs]
    mean = ordered_sum(times) / len(times)
    if mean == 0:
        return 1.0
    return max(times) / mean
