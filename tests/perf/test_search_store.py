"""The search store: Algorithm 1 runs once per planning problem per process.

``repro.core.harmony._SEARCHES`` keeps each problem's frozen
:class:`~repro.core.search.SearchResult` by :func:`plan_key`, so a second
``Harmony`` on the same problem -- a new planner service, an elastic
re-plan, an experiment -- skips the search and only builds its own winner
graph.  This suite holds the store to four promises:

- a plan whose search came from the store is bit-identical to a plan
  searched cold (every explored estimate by ``float.hex``, the winner's
  task and move dump by sha256), on the bench warm-up problems and both
  toy models;
- the key is sound: changing any one input the search reads misses;
- the store is a bounded LRU, and an infeasible problem raises its typed
  error every time and stores nothing;
- the shared result cannot be mutated by any plan that holds it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.common.errors import InfeasibleConfigError, ReproError
from repro.core import harmony
from repro.core.config import Configuration, Pack
from repro.core.harmony import Harmony, HarmonyOptions, plan_key
from repro.core.search import ConfigurationSearch, Explored
from repro.experiments.common import server_for
from repro.models.zoo import build_model

#: The bench's warm-up problems (every zoo model x pp/dp x 4/8 GPUs at
#: 8 samples per pipeline or 2 per GPU) plus the two toy models.
PROBLEMS = tuple(
    (model, mode, gpus, 8 if mode == "pp" else 2 * gpus)
    for model in ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                  "resnet1k")
    for mode in ("pp", "dp") for gpus in (4, 8)
) + (
    ("toy-transformer", "pp", 2, 8),
    ("tiny-cnn", "dp", 2, 8),
)

TOY = ("toy-transformer", "pp", 2, 8)


def _harmony(problem) -> Harmony:
    model, mode, gpus, minibatch = problem
    return Harmony(model, server_for(gpus), minibatch,
                   options=HarmonyOptions(mode=mode))


def _facts(plan) -> dict:
    """Everything a plan's search decided, floats as hex, plus a digest of
    the winner graph's tasks and moves."""
    search = plan.search
    dump = repr(plan.graph.tasks)
    return {
        "config": search.best,
        "best_estimate": search.best_estimate.hex(),
        "explored": tuple(
            (entry.config, entry.estimate.hex()) for entry in search.explored
        ),
        "n_feasible": search.n_feasible,
        "n_infeasible": search.n_infeasible,
        "graph": hashlib.sha256(dump.encode()).hexdigest(),
    }


def _count_searches(monkeypatch) -> Counter:
    counts: Counter = Counter()
    original = ConfigurationSearch.search

    def counted(self):
        counts["search"] += 1
        return original(self)

    monkeypatch.setattr(ConfigurationSearch, "search", counted)
    return counts


@pytest.mark.parametrize(
    "problem", PROBLEMS, ids=lambda p: f"{p[0]}-{p[1]}-x{p[2]}-mb{p[3]}",
)
def test_warm_plan_equals_cold_plan(problem, cold_stores):
    stored = _harmony(problem).plan()
    warm = _harmony(problem).plan()
    assert warm.search is stored.search
    assert warm.graph is not stored.graph
    harmony._SEARCHES.clear()
    cold = _harmony(problem).plan()
    assert cold.search is not warm.search
    assert _facts(warm) == _facts(cold)


def _variants():
    """One problem per ``plan_key`` input, each differing from the base
    toy problem in exactly that input."""
    model = build_model(TOY[0])
    server = server_for(TOY[2])
    layers = list(model.graph.layers)
    layers[3] = replace(layers[3], flops_fwd_per_sample=2
                        * layers[3].flops_fwd_per_sample)
    heavier = replace(model, graph=replace(model.graph, layers=tuple(layers)))
    base = HarmonyOptions(mode=TOY[1])
    yield "layer-flops", heavier, server, TOY[3], base
    yield "gpu-spec", model, replace(
        server, gpu=replace(server.gpu, efficiency=server.gpu.efficiency / 2),
    ), TOY[3], base
    yield "gpu-count", model, server_for(4), TOY[3], base
    yield "minibatch", model, server, 2 * TOY[3], base
    yield "mode", model, server, TOY[3], replace(base, mode="dp")
    yield "seed", model, server, TOY[3], replace(base, seed=1)
    for name, value in (("u_fmax", 4), ("u_bmax", 4),
                        ("capacity_fraction", 0.5),
                        ("exhaustive_search", True), ("equi_fb", True)):
        yield f"settings-{name}", model, server, TOY[3], replace(
            base, **{name: value})
    for flag in ("grouping", "jit", "p2p", "offload_optimizer", "prefetch"):
        yield f"schedule-{flag}", model, server, TOY[3], base.without(flag)


VARIANTS = tuple(_variants())


def test_variants_cover_every_key_input():
    """Every search setting and every schedule flag has its variant (the
    DP resident-boundary budget is no option: it is the module constant
    ``RESIDENT_BOUNDARY_FRAC`` of ``repro.core.taskgraph``)."""
    options = HarmonyOptions()
    settings = {f.name for f in dataclasses.fields(options.search_settings())}
    flags = {f.name for f in dataclasses.fields(options.schedule_options())
             if f.type in ("bool", bool)}
    names = [variant[0] for variant in VARIANTS]
    assert len(settings) == 5 and len(flags) == 5
    assert {f"schedule-{flag}" for flag in flags} <= set(names)
    assert len(set(names)) == len(names) == 6 + len(settings) + len(flags)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v[0])
def test_changing_any_key_input_misses(variant, cold_stores, monkeypatch):
    _, model, server, minibatch, options = variant
    _harmony(TOY).plan()
    counts = _count_searches(monkeypatch)
    try:
        Harmony(model, server, minibatch, options=options).plan()
    except ReproError:
        pass
    assert counts == {"search": 1}, "a changed problem hit a stored search"
    base_key = plan_key(build_model(TOY[0]), server_for(TOY[2]), TOY[3],
                        HarmonyOptions(mode=TOY[1]))
    assert plan_key(model, server, minibatch, options) != base_key


def test_store_is_a_bounded_lru(cold_stores, monkeypatch):
    monkeypatch.setattr(harmony, "SEARCH_STORE_SIZE", 2)
    keys = {}
    for minibatch in (4, 8, 16):
        h = _harmony(TOY[:3] + (minibatch,))
        keys[minibatch] = plan_key(h.model, h.server, h.minibatch, h.options)
    _harmony(TOY[:3] + (4,)).plan()
    _harmony(TOY[:3] + (8,)).plan()
    assert list(harmony._SEARCHES) == [keys[4], keys[8]]
    counts = _count_searches(monkeypatch)
    _harmony(TOY[:3] + (4,)).plan()
    assert counts == {}, "a stored problem must hit"
    assert list(harmony._SEARCHES) == [keys[8], keys[4]], \
        "a hit must become the most recently used entry"
    _harmony(TOY[:3] + (16,)).plan()
    assert list(harmony._SEARCHES) == [keys[4], keys[16]], \
        "a miss past the bound must evict the least recently used entry"
    _harmony(TOY[:3] + (8,)).plan()
    assert counts == {"search": 2}, "an evicted problem is searched again"


def test_infeasible_problem_raises_every_time_and_stores_nothing(
        cold_stores, monkeypatch):
    server = server_for(2)
    tiny = replace(server, gpu=replace(server.gpu, memory_bytes=2**20))
    counts = _count_searches(monkeypatch)
    for attempt in (1, 2):
        with pytest.raises(InfeasibleConfigError):
            Harmony(TOY[0], tiny, TOY[3]).plan()
        assert counts == {"search": attempt}
        assert not harmony._SEARCHES


#: Elastic re-plans of the bench zoo on a 4-GPU server: every model x
#: pp/dp x every survivor count (DP at 12 samples, so every count
#: divides it), plus one DP plan whose minibatch 3 survivors cannot
#: split, which falls back to PP.
REPLANS = tuple(
    (model, mode, 8 if mode == "pp" else 12, n)
    for model in ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                  "resnet1k")
    for mode in ("pp", "dp") for n in range(1, 5)
) + (("gpt2", "dp", 8, 3),)


def test_elastic_replan_search_is_shared(cold_stores, monkeypatch):
    """A re-plan onto n survivors is the plan a fresh ``Harmony`` makes
    on the reduced server: same search, same graph, same estimate bits."""
    counts = _count_searches(monkeypatch)
    for model, mode, minibatch, n in REPLANS:
        full = Harmony(model, server_for(4), minibatch,
                       options=HarmonyOptions(mode=mode))
        replan = full.plan_for_server(n)
        fallback = mode == "dp" and minibatch % n != 0
        assert replan.options.mode == ("pp" if fallback else mode)
        counts.clear()
        fresh = Harmony(model, server_for(4).with_gpus(n), minibatch,
                        options=replan.options).plan()
        case = f"{model} {mode} mb{minibatch} on {n}"
        assert counts == {}, f"{case}: a fresh Harmony must hit"
        assert fresh.search is replan.search, case
        assert fresh.server == replan.server and replan.server.n_gpus == n
        assert _facts(fresh) == _facts(replan), case
    # And the other way round: a re-plan onto a server already planned.
    full = Harmony("toy-transformer", server_for(4), 8)
    planned = Harmony("toy-transformer", server_for(4).with_gpus(3), 8).plan()
    counts.clear()
    assert full.plan_for_server(3).search is planned.search
    assert counts == {}


def test_stored_result_is_immutable_and_slotted(cold_stores):
    plan = _harmony(TOY).plan()
    search = plan.search
    assert isinstance(search.explored, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        search.best_estimate = 0.0  # type: ignore[misc]
    entry = search.explored[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.estimate = 0.0  # type: ignore[misc]
    for obj in (entry, entry.config, entry.config.packs_f[0]):
        assert type(obj) in (Explored, Configuration, Pack)
        assert not hasattr(obj, "__dict__")
