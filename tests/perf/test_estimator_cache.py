"""The estimator's shared task-time tables must never serve stale values.

The estimator times tasks with a :class:`TrueTimeModel` over the fitted
profiles, one per graph device count, whose pack table is keyed on
``(phase, first_layer, last_layer, u)`` and needs no invalidation
because :class:`ModelProfiles` is immutable: a changed layer profile is
a new ``ModelProfiles``, a new estimator and new time models.  These
tests swap a layer that way and check the new time model tracks it
while the old one is untouched, and check that nothing one graph's
estimate leaves behind changes another's.  Tabulated task times are
compared with a per-layer sum over the fits, the naive computation they
replace.
"""

from dataclasses import replace

import pytest

from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import AffineFit, ModelProfiles
from repro.core.taskgraph import HarmonyGraphBuilder
from repro.core.types import TaskKind
from repro.experiments.common import server_for
from repro.graph.layer import Phase
from repro.runtime.timemodel import TrueTimeModel


@pytest.fixture
def planned():
    harmony = Harmony("toy-transformer", server_for(2), 8,
                      options=HarmonyOptions(mode="pp"))
    return harmony.plan()


def _with_layer(profiles, index, layer):
    """``profiles`` with layer ``index`` swapped, as a new instance."""
    layers = profiles.layers
    return ModelProfiles(layers[:index] + (layer,) + layers[index + 1:],
                         profiles.optimizer_slots, profiles.gpu)


def naive_mb_time(profiles, task, u):
    """A task's microbatch time summed layer by layer from the fits."""
    layers = task.layers
    if task.kind is TaskKind.FWD:
        return sum(profiles[i].time(Phase.FWD, u) for i in layers)
    bwd = sum(profiles[i].time(Phase.BWD, u) for i in layers)
    if task.fused or task.recompute:
        bwd += sum(profiles[i].time(Phase.FWD, u) for i in layers)
    return bwd


def fitted(profiles, server):
    """The time model the estimator times ``server``'s tasks with."""
    return TrueTimeModel(profiles, server.host, server.n_gpus)


def _fwd_task(graph):
    return next(t for t in graph.tasks if t.kind is TaskKind.FWD)


def _upd_gpu_task(graph):
    return next(
        (t for t in graph.tasks if t.kind is TaskKind.UPD and not t.on_cpu),
        None,
    )


def test_mb_time_cache_hit_is_identical(planned):
    time_model = fitted(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    first = time_model.microbatch_time(task, u)
    assert (Phase.FWD, task.first_layer, task.last_layer, u) \
        in time_model._pack_times
    assert time_model.microbatch_time(task, u).hex() == first.hex()
    assert time_model.microbatch_time(task, u).hex() == \
        naive_mb_time(planned.profiles, task, u).hex()


def test_replaced_layer_gets_fresh_times(planned):
    time_model = fitted(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    before = time_model.microbatch_time(task, u)

    layer = planned.profiles[task.first_layer]
    doubled = _with_layer(planned.profiles, task.first_layer, replace(
        layer, time_fwd=AffineFit(2 * layer.time_fwd.intercept,
                                  2 * layer.time_fwd.slope)))
    fresh = fitted(doubled, planned.server)

    after = fresh.microbatch_time(task, u)
    assert after > before, "new profiles served the old task time"
    assert after.hex() == naive_mb_time(doubled, task, u).hex()
    assert planned.profiles[task.first_layer] is layer
    assert time_model.microbatch_time(task, u).hex() == before.hex()


def test_rebuilt_profiles_start_a_fresh_cache(planned):
    """Profiles cannot change in place; rebuilding them over the same
    fits gives a new estimator no time tables and the same bits."""
    profiles = planned.profiles
    assert isinstance(profiles.layers, tuple)
    with pytest.raises(TypeError):
        profiles.layers[0] = profiles.layers[0]
    estimator = RuntimeEstimator(profiles, planned.server)
    first = estimator.estimate(planned.graph)
    assert estimator._time_models[planned.graph.n_devices]._pack_times

    rebuilt = ModelProfiles(profiles.layers, profiles.optimizer_slots,
                            profiles.gpu)
    assert rebuilt.layers is profiles.layers
    fresh = RuntimeEstimator(rebuilt, planned.server)
    assert fresh._time_models == {}
    assert fresh.estimate(planned.graph).hex() == first.hex()


def test_distinct_u_are_distinct_entries(planned):
    time_model = fitted(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    t1 = time_model.microbatch_time(task, 1)
    t2 = time_model.microbatch_time(task, 2)
    assert t1 != t2
    keys = {k for k in time_model._pack_times if k[0] is Phase.FWD}
    assert len(keys) >= 2


def test_update_time_gpu_cached_cpu_not():
    harmony = Harmony(
        "toy-transformer", server_for(2), 8,
        options=HarmonyOptions(mode="pp", offload_optimizer=False),
    )
    planned = harmony.plan()
    time_model = fitted(planned.profiles, planned.server)
    upd = _upd_gpu_task(planned.graph)
    assert upd is not None, "offload disabled, expected a GPU update task"
    first = time_model.update_time(upd)
    key = (Phase.UPD, upd.first_layer, upd.last_layer, 1)
    assert time_model._pack_times[key] == first
    assert time_model.update_time(upd) == first


def test_no_state_leaks_between_graphs(planned):
    """Estimating one graph leaves nothing that changes the next graph's
    estimate: graph A then graph B equals a fresh estimator on B.  The
    two graphs differ in their microbatch granularities, so stale
    producer sizes or dependency maps would move B's chunk dependencies."""
    builder = HarmonyGraphBuilder(planned.profiles, planned.server.n_gpus,
                                  planned.minibatch,
                                  planned.options.schedule_options())
    configs = [entry.config for entry in planned.search.explored]
    a = next(c for c in configs if c.u_f != c.u_b)
    b = next(c for c in configs if c.u_f != c.u_b and
             (c.u_f, c.u_b) != (a.u_f, a.u_b))
    graph_a, graph_b = builder.assemble(a), builder.assemble(b)
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    estimator.estimate(graph_a)
    after_a = estimator.estimate(graph_b)
    fresh = RuntimeEstimator(planned.profiles, planned.server)
    assert after_a.hex() == fresh.estimate(graph_b).hex()
    assert estimator.estimate(graph_a).hex() == \
        RuntimeEstimator(planned.profiles, planned.server) \
        .estimate(graph_a).hex()


@pytest.mark.parametrize("model, minibatch", [("gpt2", 32),
                                              ("bert-large", 12)])
def test_public_estimate_needs_no_preparation(model, minibatch):
    """``estimate`` on its own scores the winner exactly as the search
    did; it once fell back to whole-task dependencies unless a separate
    preparation step had run first."""
    plan = Harmony(model, server_for(4), minibatch,
                   options=HarmonyOptions(mode="pp")).plan()
    estimator = RuntimeEstimator(plan.profiles, plan.server)
    assert estimator.estimate(plan.graph).hex() == \
        plan.search.best_estimate.hex()


def test_estimates_track_replaced_profiles_end_to_end(planned):
    """The headline staleness scenario: estimate, swap a layer, re-estimate."""
    before = RuntimeEstimator(planned.profiles, planned.server) \
        .estimate(planned.graph)
    layer = planned.profiles[0]
    slower = _with_layer(planned.profiles, 0, replace(
        layer, time_fwd=AffineFit(layer.time_fwd.intercept,
                                  10 * layer.time_fwd.slope)))
    after = RuntimeEstimator(slower, planned.server) \
        .estimate(planned.graph)
    assert after > before


@pytest.mark.parametrize("order", ["reduced-first", "full-first"])
def test_update_times_key_on_the_graph_device_count(order):
    """A graph may span fewer devices than the estimator's server (an
    elastic re-plan), and an offloaded update's host cores depend on the
    device count.  One estimator scores the re-plan's 2-device graph and
    the same configuration's 4-device graph, whose updates have the same
    spans and FLOPs, in either order: each estimate must match a fresh
    estimator's."""
    harmony = Harmony("toy-transformer", server_for(4), 8,
                      options=HarmonyOptions(mode="pp"))
    full = harmony.plan()
    reduced = harmony.plan_for_server(2)
    assert reduced.profiles.layers is full.profiles.layers
    wide = HarmonyGraphBuilder(
        full.profiles, 4, 8, full.options.schedule_options(),
    ).build(reduced.search.best)
    graphs = [reduced.graph, wide]
    assert [g.n_devices for g in graphs] == [2, 4]
    assert any(t.kind is TaskKind.UPD and t.on_cpu for t in wide.tasks)
    if order == "full-first":
        graphs.reverse()
    estimator = RuntimeEstimator(full.profiles, full.server)
    for graph in graphs:
        fresh = RuntimeEstimator(full.profiles, full.server)
        assert estimator.estimate(graph).hex() == \
            fresh.estimate(graph).hex(), graph.n_devices
