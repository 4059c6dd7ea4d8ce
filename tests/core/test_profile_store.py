"""The profile store behind ``Profiler.profile``: one fit per model content.

Fitted layer profiles are a pure function of the model content, the GPU
spec, the kernel-noise seed and the sample sizes, so ``Profiler.profile``
keeps them in a bounded, content-addressed LRU store.  These tests pin
the key (a renamed model hits; a one-ULP FLOPs change, a one-byte
activation change, another GPU, seed or sample set misses), what is
shared (the tuple of frozen fits) and what is not (the ``ModelProfiles``
view and its memo tables), the LRU bound, and the
``REPRO_PERF_DISABLE=1`` bypass.
"""

import math
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.baselines.gpipe_swap import GpipeSwapPlanner
from repro.core import profiler
from repro.core.decomposer import Decomposer
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import Profiler
from repro.experiments.common import server_for
from repro.graph.graph import LayerGraph
from repro.hardware.gpu import GTX_1080TI
from repro.models.zoo import build_model
from repro.perf import DISABLE_ENV


@pytest.fixture(autouse=True)
def store(monkeypatch):
    """An empty store per test, with the perf subsystem on."""
    monkeypatch.delenv(DISABLE_ENV, raising=False)
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
        assert large.profiles._memo is not small.profiles._memo
        assert small.profiles._memo and large.profiles._memo
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

    def test_a_hit_refreshes_recency(self, model, store, monkeypatch):
        monkeypatch.setattr(profiler, "PROFILE_STORE_SIZE", 2)
        seed0 = _profile(model, seed=0)
        _profile(model, seed=1)
        assert _profile(model, seed=0).layers is seed0.layers
        _profile(model, seed=2)                  # evicts seed 1, not 0
        assert _profile(model, seed=0).layers is seed0.layers


def test_disabled_perf_fits_afresh(model, store, monkeypatch):
    warm = _profile(model)
    monkeypatch.setenv(DISABLE_ENV, "1")
    cold = _profile(model)
    assert cold.layers is not warm.layers
    assert cold.layers == warm.layers
    assert list(store.values()) == [warm.layers]
