"""Cross-request plan-cache correctness: the content-addressed key.

The service promise is sharp: two requests agreeing on model *content*,
server spec, minibatch and every search/schedule setting share one plan
(any tenant, any time); a request differing in ANY of those misses.
These tests enumerate the settings one by one, and perturb the model
content field by field -- every ``LayerSpec`` field of any layer, the
edge list, the optimizer, the sample size -- while renaming the model
must still hit.  The regression that motivated per-layer content: a key
over aggregate totals gave gpt2 and a copy with 3x per-layer FLOPs and
2x activations the same key, though their best plans differ.
"""

import dataclasses
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.fingerprint import fingerprint
from repro.core.harmony import HarmonyOptions
from repro.experiments.common import server_for
from repro.graph.graph import Edge, LayerGraph
from repro.graph.layer import LayerSpec
from repro.models.zoo import build_model
from repro.service.cache import PlanCache, family_key, plan_key


@pytest.fixture(scope="module")
def model():
    return build_model("toy-transformer")


@pytest.fixture(scope="module")
def server():
    return server_for(2)


def _key(model, server, minibatch=8, **option_overrides):
    return plan_key(model, server, minibatch,
                    HarmonyOptions(**option_overrides))


class TestKeyHits:
    def test_identical_requests_share_a_key(self, model, server):
        assert _key(model, server) == _key(model, server)

    def test_key_is_tenant_free(self, model, server):
        """Nothing about the requester enters the key: cross-tenant
        sharing is the point of content addressing."""
        # plan_key has no tenant parameter at all; pin the signature.
        import inspect

        params = inspect.signature(plan_key).parameters
        assert set(params) == {"model", "server", "minibatch", "options"}

    def test_renamed_model_still_hits(self, model, server):
        """The key addresses model *content*, not the zoo name."""
        renamed = replace(
            model, name="totally-different-name", description="renamed",
            graph=replace(model.graph, name="other-graph"),
        )
        assert renamed.fingerprint == model.fingerprint
        assert _key(renamed, server) == _key(model, server)


class TestKeyMisses:
    @pytest.mark.parametrize("override", [
        {"mode": "dp"},
        {"grouping": False},
        {"jit": False},
        {"p2p": False},
        {"offload_optimizer": False},
        {"prefetch": False},
        {"u_fmax": 32},
        {"u_bmax": 32},
        {"capacity_fraction": 0.5},
        {"exhaustive_search": True},
        {"equi_fb": True},
        {"seed": 1},
    ])
    def test_any_differing_option_misses(self, model, server, override):
        assert _key(model, server, **override) != _key(model, server)

    def test_minibatch_misses(self, model, server):
        assert _key(model, server, minibatch=16) != \
               _key(model, server, minibatch=8)

    def test_different_model_content_misses(self, server):
        a = build_model("toy-transformer")
        b = build_model("tiny-cnn")
        assert a.fingerprint != b.fingerprint
        assert _key(a, server) != _key(b, server)

    def test_different_server_misses(self, model):
        two, four = server_for(2), server_for(4)
        assert fingerprint(two) != fingerprint(four)
        assert _key(model, two) != _key(model, four)


def _regraph(model, layers=None, edges=None):
    graph = model.graph
    return replace(model, graph=LayerGraph(
        graph.name,
        graph.layers if layers is None else layers,
        graph.edges if edges is None else edges,
    ))


def _perturb(value):
    """The smallest change of a field value: one ULP, one byte, one char."""
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    return value + "'"


#: Every LayerSpec field but ``index``, which the graph pins to the
#: layer's position.
_LAYER_FIELDS = [
    f.name for f in dataclasses.fields(LayerSpec) if f.name != "index"
]


class TestModelContent:
    def test_per_layer_costs_do_not_collide(self):
        """Regression: same totals, different per-layer costs -> a miss.

        The copy keeps every layer's parameters (so layer count, weight
        and optimizer-state bytes and sample bytes all match gpt2) but
        triples FLOPs and doubles activations.
        """
        gpt2 = build_model("gpt2")
        heavy = _regraph(gpt2, layers=[
            replace(
                layer,
                flops_fwd_per_sample=3 * layer.flops_fwd_per_sample,
                flops_fwd_fixed=3 * layer.flops_fwd_fixed,
                act_in_bytes_per_sample=2 * layer.act_in_bytes_per_sample,
                act_out_bytes_per_sample=2 * layer.act_out_bytes_per_sample,
            )
            for layer in gpt2.graph.layers
        ])
        assert (heavy.n_layers, heavy.model_state_bytes) == \
            (gpt2.n_layers, gpt2.model_state_bytes)
        server = server_for(4)
        assert _key(heavy, server, minibatch=16) != \
            _key(gpt2, server, minibatch=16)

    @pytest.mark.parametrize("field", _LAYER_FIELDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_layer_field_perturbation_misses(self, model, server,
                                                 field, data):
        i = data.draw(st.integers(0, len(model.graph) - 1), label="layer")
        layers = list(model.graph.layers)
        layers[i] = replace(
            layers[i], **{field: _perturb(getattr(layers[i], field))}
        )
        assert _key(_regraph(model, layers=layers), server) != \
            _key(model, server)

    def test_edge_list_misses(self, model, server):
        skip = _regraph(model, edges=model.graph.edges + (Edge(0, 2),))
        assert _key(skip, server) != _key(model, server)

    def test_optimizer_misses(self, model, server):
        assert model.optimizer != "sgd"
        assert _key(replace(model, optimizer="sgd"), server) != \
            _key(model, server)

    def test_sample_bytes_misses(self, model, server):
        bigger = replace(model, sample_bytes=model.sample_bytes + 1)
        assert _key(bigger, server) != _key(model, server)


class TestFamilyKey:
    def test_family_ignores_server(self, model):
        options = HarmonyOptions()
        assert family_key(model, 8, options) == family_key(model, 8, options)
        # family has no server input at all; differing options still split
        assert family_key(model, 8, options) != \
               family_key(model, 8, HarmonyOptions(mode="dp"))
        assert family_key(model, 8, options) != family_key(model, 16, options)


class TestPlanCacheMechanics:
    def test_hit_miss_counters_and_lru_refresh(self):
        cache = PlanCache(capacity=2)
        cache.put("a", "plan-a")
        cache.put("b", "plan-b")
        assert cache.get("a") == "plan-a"          # refreshes a
        cache.put("c", "plan-c")                   # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == "plan-a"
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)

    def test_reput_refreshes_instead_of_duplicating(self):
        cache = PlanCache(capacity=2)
        cache.put("a", "v1")
        cache.put("b", "plan-b")
        cache.put("a", "v2")
        cache.put("c", "plan-c")                   # evicts b, not a
        assert cache.get("a") == "v2"
        assert cache.get("b") is None

    def test_near_prefers_largest_then_smallest_key(self):
        cache = PlanCache()
        fam = "fam"
        cache.put("k1", "one-gpu", family=fam, n_gpus=1)
        cache.put("k2b", "two-gpu-b", family=fam, n_gpus=2)
        cache.put("k2a", "two-gpu-a", family=fam, n_gpus=2)
        n, key, plan = cache.near(fam, gpus=4)
        assert (n, key, plan) == (2, "k2a", "two-gpu-a")
        assert cache.stale_hits == 1

    def test_near_never_returns_a_larger_plan(self):
        cache = PlanCache()
        fam = "fam"
        cache.put("k4", "four-gpu", family=fam, n_gpus=4)
        assert cache.near(fam, gpus=2) is None

    def test_near_respects_exclude(self):
        cache = PlanCache()
        fam = "fam"
        cache.put("k2", "two-gpu", family=fam, n_gpus=2)
        assert cache.near(fam, gpus=2, exclude="k2") is None

    def test_eviction_cleans_the_family_index(self):
        """A near-spec lookup can never resurrect an evicted plan."""
        cache = PlanCache(capacity=1)
        fam = "fam"
        cache.put("k1", "one-gpu", family=fam, n_gpus=1)
        cache.put("k2", "two-gpu", family=fam, n_gpus=2)  # evicts k1
        near = cache.near(fam, gpus=4)
        assert near is not None and near[1] == "k2"
        assert cache.near(fam, gpus=1) is None    # k1 is truly gone

    def test_unknown_family_is_none(self):
        assert PlanCache().near("nope", gpus=8) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
