"""The profile store behind ``Profiler.profile``: one fit per model content.

Fitted layer profiles are a pure function of the model content, the GPU
spec, the kernel-noise seed and the sample sizes, so ``Profiler.profile``
keeps them in a bounded, content-addressed LRU store.  These tests pin
the key (a renamed model hits; a one-ULP FLOPs change, a one-byte
activation change, another GPU, seed or sample set misses), what is
shared (the tuple of frozen fits and Algorithm 2's packing table) and
what is not (the ``ModelProfiles`` view and its per-``(phase, u)``
tables), and the bounds: the LRU evicts a packing table with its fits,
and a table's size is bounded by the search's microbatch sizes, not by
the minibatches planned.  The oracle is a fresh fit:
every bench-zoo model, under every input varied, must come back from the
store cold and warm with the bits of ``Profiler._fit``.
"""

import math
from collections import OrderedDict
from dataclasses import fields, replace

import pytest

from repro.baselines.gpipe_swap import GpipeSwapPlanner
from repro.core import profiler
from repro.core.decomposer import Decomposer
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.packing import balanced_time_packing
from repro.core.profiler import AffineFit, Profiler
from repro.core.search import ConfigurationSearch, SearchSettings
from repro.experiments.common import server_for
from repro.graph.graph import LayerGraph
from repro.graph.layer import Phase
from repro.hardware.gpu import GTX_1080TI
from repro.models.zoo import build_model


@pytest.fixture(autouse=True)
def store(monkeypatch):
    """An empty store per test."""
    fresh = OrderedDict()
    monkeypatch.setattr(profiler, "_STORE", fresh)
    return fresh


@pytest.fixture(scope="module")
def model():
    return build_model("toy-transformer")


def _profile(model, gpu=GTX_1080TI, seed=0, **kwargs):
    return Profiler(gpu, **kwargs).profile(Decomposer(seed).decompose(model))


def _with_layer_field(model, index, field, value):
    layers = list(model.graph.layers)
    layers[index] = replace(layers[index], **{field: value})
    graph = model.graph
    return replace(model, graph=LayerGraph(graph.name, tuple(layers),
                                           graph.edges))


class TestKey:
    def test_renamed_model_hits(self, model, store):
        renamed = replace(
            model, name="another-name", description="renamed",
            graph=replace(model.graph, name="another-graph"),
        )
        first = _profile(model)
        again = _profile(renamed)
        assert again.layers is first.layers
        assert len(store) == 1

    @pytest.mark.parametrize("field", [
        "flops_fwd_per_sample", "act_in_bytes_per_sample",
        "act_out_bytes_per_sample",
    ])
    def test_one_ulp_layer_change_misses(self, model, store, field):
        index = len(model.graph) // 2
        value = getattr(model.graph.layers[index], field)
        nudged = (math.nextafter(value, math.inf) if isinstance(value, float)
                  else value + 1)
        first = _profile(model)
        other = _profile(_with_layer_field(model, index, field, nudged))
        assert other.layers is not first.layers
        assert len(store) == 2

    @pytest.mark.parametrize("change", [
        {"gpu": replace(GTX_1080TI, peak_flops=2 * GTX_1080TI.peak_flops)},
        {"gpu": replace(GTX_1080TI, memory_bytes=GTX_1080TI.memory_bytes // 2)},
        {"seed": 1},
        {"sample_sizes": (1, 2, 4, 8)},
    ], ids=["gpu-flops", "gpu-memory", "seed", "sample-sizes"])
    def test_other_inputs_miss(self, model, store, change):
        first = _profile(model)
        other = _profile(model, **change)
        assert other.layers is not first.layers
        assert len(store) == 2
        if "gpu" in change:
            assert other.gpu is change["gpu"]


class TestSharing:
    def test_harmony_instances_share_fits_not_views(self, store):
        """Different GPU counts and minibatches profile the same model
        content on the same GPU: one fit, two views, two memo tables."""
        small = Harmony("toy-transformer", server_for(2), 8,
                        options=HarmonyOptions(mode="pp")).plan()
        large = Harmony("toy-transformer", server_for(4), 16,
                        options=HarmonyOptions(mode="dp")).plan()
        assert large.profiles.layers is small.profiles.layers
        assert large.profiles is not small.profiles
        for name in ("times", "memory"):
            small_tables = getattr(small.profiles, name)
            large_tables = getattr(large.profiles, name)
            assert all(large_tables[phase] is not table
                       for phase, table in small_tables.items())
        # Each winner graph's footprints filled its own memory tables.
        assert any(small.profiles.memory.values())
        assert any(large.profiles.memory.values())
        assert large.profiles._entry is small.profiles._entry
        assert len(store) == 1

    def test_baselines_take_the_same_path(self, store):
        plan = Harmony("toy-transformer", server_for(2), 8).plan()
        baseline = GpipeSwapPlanner("toy-transformer", server_for(2), 8)
        assert baseline.profiles.layers is plan.profiles.layers
        assert baseline.profiles is not plan.profiles


class TestBound:
    def test_lru_evicts_the_oldest_entry(self, model, store, monkeypatch):
        monkeypatch.setattr(profiler, "PROFILE_STORE_SIZE", 2)
        seed0 = _profile(model, seed=0)
        seed1 = _profile(model, seed=1)
        seed2 = _profile(model, seed=2)          # evicts seed 0
        assert len(store) == 2
        assert _profile(model, seed=1).layers is seed1.layers
        assert _profile(model, seed=2).layers is seed2.layers
        refit = _profile(model, seed=0)          # a miss; evicts seed 1
        assert refit.layers is not seed0.layers
        assert refit.layers == seed0.layers
        assert _profile(model, seed=2).layers is seed2.layers
        assert _profile(model, seed=1).layers is not seed1.layers

    def test_evicted_packing_table_is_not_handed_out(self, model, store,
                                                     monkeypatch):
        """A refit after eviction starts an empty packing table; the
        evicted one stays with the profiles that already hold it."""
        monkeypatch.setattr(profiler, "PROFILE_STORE_SIZE", 2)
        seed0 = _profile(model, seed=0)
        capacity = GTX_1080TI.memory_bytes // 4
        packs = balanced_time_packing(Phase.BWD, 4, seed0, capacity)
        table = seed0._entry.packings
        assert len(table) == 1
        _profile(model, seed=1)
        _profile(model, seed=2)                  # evicts seed 0
        refit = _profile(model, seed=0)
        assert refit._entry is not seed0._entry
        assert refit._entry.packings == {}
        assert balanced_time_packing(Phase.BWD, 4, refit, capacity) == packs
        assert len(refit._entry.packings) == 1
        assert refit._entry.packings is not table and len(table) == 1

    def test_a_hit_refreshes_recency(self, model, store, monkeypatch):
        monkeypatch.setattr(profiler, "PROFILE_STORE_SIZE", 2)
        seed0 = _profile(model, seed=0)
        _profile(model, seed=1)
        assert _profile(model, seed=0).layers is seed0.layers
        _profile(model, seed=2)                  # evicts seed 1, not 0
        assert _profile(model, seed=0).layers is seed0.layers


# -- the naive oracle: a fresh fit ---------------------------------------------

#: The bench zoo (``bench/workloads.py``).
ZOO = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416", "resnet1k")

#: Every input the fits depend on, varied one at a time.
VARIANTS = {
    "seed-0": {},
    "seed-1": {"seed": 1},
    "gpu-2x-flops": {"gpu": replace(GTX_1080TI,
                                    peak_flops=2 * GTX_1080TI.peak_flops)},
    "samples-1-8": {"sample_sizes": (1, 2, 4, 8)},
}

#: (phase, microbatch sizes) probed on every layer-time table.
PROBES = ((Phase.FWD, (1, 3, 8, 32)), (Phase.BWD, (1, 3, 8, 32)),
          (Phase.UPD, (1,)))


def _split(variant):
    kwargs = dict(VARIANTS[variant])
    seed = kwargs.pop("seed", 0)
    gpu = kwargs.pop("gpu", GTX_1080TI)
    return seed, Profiler(gpu, **kwargs)


def _fields(layers):
    """Every field of every fit: floats as hex, ints as they are."""
    def bits(value):
        if isinstance(value, AffineFit):
            return (value.intercept.hex(), value.slope.hex())
        if isinstance(value, float):
            return value.hex()
        return value

    return [tuple(bits(getattr(layer, f.name)) for f in fields(layer))
            for layer in layers]


@pytest.fixture(scope="module")
def fresh_fits():
    """(model, variant) -> a fresh ``Profiler._fit`` of a fresh
    decomposition: what the store must serve."""
    fits = {}
    for name in ZOO:
        model = build_model(name)
        for variant in VARIANTS:
            seed, prof = _split(variant)
            fits[name, variant] = prof._fit(Decomposer(seed).decompose(model))
    return fits


def test_store_serves_exactly_a_fresh_fit(store, fresh_fits):
    """Every zoo model under every variant, profiled cold (one shared
    store, so a key that drops an input collides with another variant)
    and again warm (every other entry stored in between), returns the
    fits of a fresh ``_fit`` -- floats by ``float.hex`` -- and layer-time
    tables equal to per-layer ``LayerProfile.time`` calls."""
    cases = [(name, variant) for name in ZOO for variant in VARIANTS]
    for arm, order in (("cold", cases), ("warm", cases[::-1])):
        for name, variant in order:
            seed, prof = _split(variant)
            profiles = prof.profile(Decomposer(seed).decompose(
                build_model(name)))
            expected = fresh_fits[name, variant]
            assert _fields(profiles.layers) == _fields(expected), \
                (arm, name, variant)
            for phase, sizes in PROBES:
                for u in sizes:
                    assert [t.hex() for t in profiles.layer_times(phase, u)] \
                        == [layer.time(phase, u).hex() for layer in expected], \
                        (arm, name, variant, phase, u)
        assert len(store) == len(cases), arm


#: Packing-table entries after enumerating every bench-zoo problem at all
#: seven bench sizes (measured: 1,801 over the six models); a key that
#: took in a per-plan input such as the minibatch would pass it.
ZOO_PACKINGS_CEILING = 1_900


def test_packing_tables_stay_bounded_over_the_zoo(store):
    """Algorithm 1's packings for every bench-zoo problem at all seven
    bench minibatches fill one table per model, every key at a microbatch
    size ``u <= u_max`` whatever the minibatch."""
    settings = SearchSettings()
    u_max = max(settings.u_fmax, settings.u_bmax)
    for name in ZOO:
        decomposed = Decomposer(HarmonyOptions().seed).decompose(
            build_model(name))
        for mode in ("pp", "dp"):
            options = HarmonyOptions(mode=mode)
            for gpus in (4, 8):
                server = server_for(gpus)
                for step in range(7):
                    minibatch = 8 + step if mode == "pp" \
                        else gpus * (2 + step)
                    profiles = Profiler(server.gpu).profile(decomposed)
                    ConfigurationSearch(
                        profiles, server, minibatch,
                        options.schedule_options(), settings,
                    )._enumerate_candidates()
    assert len(store) == len(ZOO)
    sizes = [len(entry.packings) for entry in store.values()]
    assert all(sizes)
    assert sum(sizes) <= ZOO_PACKINGS_CEILING, sizes
    assert all(key[2] <= u_max
               for entry in store.values() for key in entry.packings)
