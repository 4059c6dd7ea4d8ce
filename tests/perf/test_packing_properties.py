"""Property tests for Algorithm 2's packing against randomized profiles.

~50 seeds of synthetic per-layer profiles (via :mod:`repro.common.rng`,
so the suite is deterministic) pin these properties:

- the prefix-sum ``pack_memory`` tables equal the naive per-layer sum
  exactly (Python ints, so the equality is bit-level, not approximate);
- balanced time packing never estimates a slower pipeline iteration
  than greedy memory-maximal packing (the Figure 7 claim), under the
  classic wrap-around bound ``sum(pack_times) + (M-1) * max(pack_times)``;
- a single layer exceeding GPU capacity raises
  :class:`InfeasibleConfigError` from both packers -- including on a
  *repeat* call, which exercises the memoized-infeasibility path;
- that memoized infeasibility leaves no reference cycle through the
  profiles.

No wall-clock assertions here: timing claims belong to the bench harness
and the perf gate, not the unit suite.
"""

import gc
import weakref

import pytest

from repro.common.errors import InfeasibleConfigError
from repro.common.rng import seeded_rng
from repro.core.config import Pack
from repro.core.packing import balanced_time_packing, greedy_memory_packing
from repro.core.profiler import AffineFit, LayerProfile, ModelProfiles
from repro.graph.layer import Phase
from repro.hardware.gpu import GpuSpec

SEEDS = range(50)
MICROBATCHES = 8

_GPU = GpuSpec(name="prop-gpu", memory_bytes=256 * 2**20,
               peak_flops=2e12, efficiency=0.5)


def make_profiles(seed: int) -> ModelProfiles:
    """Random but reproducible profiles: 6..24 layers, skewed times."""
    rng = seeded_rng(seed, "packing-prop")
    n_layers = rng.randrange(6, 25)
    layers = []
    for i in range(n_layers):
        params = rng.randrange(1 << 16, 1 << 22)
        layers.append(LayerProfile(
            index=i, name=f"layer{i}", param_bytes=params,
            time_fwd=AffineFit(0.0, rng.uniform(1e-4, 5e-3)),
            time_bwd=AffineFit(0.0, rng.uniform(2e-4, 8e-3)),
            time_upd=rng.uniform(1e-5, 1e-4),
            mem_fwd=AffineFit(float(params),
                              float(rng.randrange(1 << 12, 1 << 18))),
            mem_bwd=AffineFit(2.0 * params,
                              float(rng.randrange(1 << 12, 1 << 18))),
            act_in_per_sample=rng.randrange(1 << 10, 1 << 14),
            act_out_per_sample=rng.randrange(1 << 10, 1 << 14),
            workspace_per_sample=rng.randrange(0, 1 << 12),
        ))
    return ModelProfiles(layers, optimizer_slots=2, gpu=_GPU)


def _binding_capacity(profiles: ModelProfiles, phase: Phase, u: int,
                      seed: int) -> int:
    """A capacity that fits every single layer but binds pack growth."""
    rng = seeded_rng(seed, "capacity", phase.value, u)
    worst = max(
        profiles.pack_memory_naive(phase, Pack(i, i), u)
        for i in range(len(profiles))
    )
    return int(worst * rng.uniform(1.2, 6.0))


def _pipeline_estimate(profiles, phase, packs, u) -> float:
    """Wrap-around pipeline bound: fill/drain plus the straggler pack."""
    times = [profiles.pack_time(phase, pack, u) for pack in packs]
    return sum(times) + (MICROBATCHES - 1) * max(times)


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_pack_memory_equals_naive_sum(seed):
    profiles = make_profiles(seed)
    rng = seeded_rng(seed, "packs")
    n = len(profiles)
    for phase in (Phase.FWD, Phase.BWD, Phase.UPD):
        for u in (1, rng.randrange(2, 17)):
            for _ in range(8):
                first = rng.randrange(n)
                last = rng.randrange(first, n)
                pack = Pack(first, last)
                assert profiles.pack_memory(phase, pack, u) == \
                    profiles.pack_memory_naive(phase, pack, u)


@pytest.mark.parametrize("seed", SEEDS)
def test_balanced_never_estimates_slower_than_greedy(seed):
    profiles = make_profiles(seed)
    u = seeded_rng(seed, "u").choice([1, 2, 4, 8])
    for phase in (Phase.FWD, Phase.BWD):
        capacity = _binding_capacity(profiles, phase, u, seed)
        try:
            balanced = balanced_time_packing(phase, u, profiles, capacity)
            greedy = greedy_memory_packing(phase, u, profiles, capacity)
        except InfeasibleConfigError:
            continue  # capacity draw too tight for this cell; others cover it
        est_balanced = _pipeline_estimate(profiles, phase, balanced, u)
        est_greedy = _pipeline_estimate(profiles, phase, greedy, u)
        assert est_balanced <= est_greedy + 1e-9, (
            f"{phase}: balanced packing ({len(balanced)} packs, "
            f"est {est_balanced:.6f}s) beat by greedy ({len(greedy)} packs, "
            f"est {est_greedy:.6f}s)"
        )


@pytest.mark.parametrize("seed", range(10))
def test_single_layer_overflow_raises(seed):
    profiles = make_profiles(seed)
    u = 4
    smallest = min(
        profiles.pack_memory_naive(Phase.BWD, Pack(i, i), u)
        for i in range(len(profiles))
    )
    capacity = smallest - 1  # not even the cheapest layer fits alone
    with pytest.raises(InfeasibleConfigError):
        balanced_time_packing(Phase.BWD, u, profiles, capacity)
    # Repeat call exercises the memoized-infeasibility path: the cached
    # outcome must re-raise, not silently return a stale pack list.
    with pytest.raises(InfeasibleConfigError):
        balanced_time_packing(Phase.BWD, u, profiles, capacity)
    with pytest.raises(InfeasibleConfigError):
        greedy_memory_packing(Phase.BWD, u, profiles, capacity)


def test_memoized_infeasibility_keeps_no_cycle():
    """A memoized infeasible outcome must not tie ``profiles`` into a
    reference cycle (a stored exception's traceback reaches back to the
    frames holding ``profiles``), or every plan whose search probed an
    infeasible packing would outlive its last reference until the cyclic
    garbage collector ran."""
    profiles = make_profiles(0)
    capacity = min(
        profiles.pack_memory_naive(Phase.BWD, Pack(i, i), 4)
        for i in range(len(profiles))
    ) - 1
    for _ in range(2):
        with pytest.raises(InfeasibleConfigError):
            balanced_time_packing(Phase.BWD, 4, profiles, capacity)
    ref = weakref.ref(profiles)
    gc.disable()
    try:
        del profiles
        assert ref() is None, "memoized infeasibility kept profiles alive"
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(10))
def test_balanced_packing_is_memoized_and_stable(seed):
    """Repeat calls hit the memo and return the identical tuple."""
    profiles = make_profiles(seed)
    u = 2
    capacity = _binding_capacity(profiles, Phase.FWD, u, seed)
    try:
        first = balanced_time_packing(Phase.FWD, u, profiles, capacity)
    except InfeasibleConfigError:
        pytest.skip("capacity draw infeasible for this seed")
    again = balanced_time_packing(Phase.FWD, u, profiles, capacity)
    assert again == first
    # New profiles over the same fits start empty tables: the result is
    # recomputed -- same inputs, same packs -- rather than served stale.
    rebuilt = ModelProfiles(profiles.layers, profiles.optimizer_slots,
                            profiles.gpu)
    assert not any(rebuilt.times.values())
    assert not any(rebuilt.memory.values())
    assert rebuilt._entry.packings == {}
    assert balanced_time_packing(Phase.FWD, u, rebuilt, capacity) == first
