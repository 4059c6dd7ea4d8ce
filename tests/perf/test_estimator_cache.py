"""The estimator's shared task-time cache must never serve stale values.

The cache in :class:`RuntimeEstimator` is keyed on
``(kind, first_layer, last_layer, u, recompute)`` and needs no
invalidation because :class:`ModelProfiles` is immutable: a changed
layer profile is a new ``ModelProfiles`` and a new estimator.  These
tests swap a layer that way and check the new estimator tracks it while
the old one is untouched, plus cover the per-graph ``_producer_sizes``
lifecycle and the ``REPRO_PERF_DISABLE=1`` arm.
"""

from dataclasses import replace

import pytest

from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import AffineFit, ModelProfiles
from repro.core.types import TaskKind
from repro.experiments.common import server_for
from repro.perf import DISABLE_ENV


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


def _fwd_task(graph):
    return next(t for t in graph.tasks if t.kind is TaskKind.FWD)


def _upd_gpu_task(graph):
    return next(
        (t for t in graph.tasks if t.kind is TaskKind.UPD and not t.on_cpu),
        None,
    )


def test_mb_time_cache_hit_is_identical(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    first = estimator.mb_time(task, u)
    assert (TaskKind.FWD, task.first_layer, task.last_layer, u, False) \
        in estimator._time_cache
    assert estimator.mb_time(task, u).hex() == first.hex()
    assert estimator.mb_time(task, u) == estimator._mb_time_uncached(task, u)


def test_replaced_layer_gets_fresh_times(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    u = task.microbatches[0]
    before = estimator.mb_time(task, u)

    layer = planned.profiles[task.first_layer]
    doubled = _with_layer(planned.profiles, task.first_layer, replace(
        layer, time_fwd=AffineFit(2 * layer.time_fwd.intercept,
                                  2 * layer.time_fwd.slope)))
    fresh = RuntimeEstimator(doubled, planned.server)

    after = fresh.mb_time(task, u)
    assert after > before, "new profiles served the old task time"
    assert after == fresh._mb_time_uncached(task, u)
    assert planned.profiles[task.first_layer] is layer
    assert estimator.mb_time(task, u).hex() == before.hex()


def test_rebuilt_profiles_start_a_fresh_cache(planned):
    """Profiles cannot change in place; rebuilding them over the same
    fits gives a new estimator an empty cache and the same bits."""
    profiles = planned.profiles
    assert isinstance(profiles.layers, tuple)
    with pytest.raises(TypeError):
        profiles.layers[0] = profiles.layers[0]
    estimator = RuntimeEstimator(profiles, planned.server)
    task = _fwd_task(planned.graph)
    first = estimator.mb_time(task, task.microbatches[0])
    assert estimator._time_cache

    rebuilt = ModelProfiles(profiles.layers, profiles.optimizer_slots,
                            profiles.gpu)
    assert rebuilt.layers is profiles.layers
    fresh = RuntimeEstimator(rebuilt, planned.server)
    assert fresh._time_cache == {}
    assert fresh.mb_time(task, task.microbatches[0]).hex() == first.hex()


def test_distinct_u_are_distinct_entries(planned):
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    t1, t2 = estimator.mb_time(task, 1), estimator.mb_time(task, 2)
    assert t1 != t2
    keys = {k for k in estimator._time_cache if k[0] is TaskKind.FWD}
    assert len(keys) >= 2


def test_update_time_gpu_cached_cpu_not():
    harmony = Harmony(
        "toy-transformer", server_for(2), 8,
        options=HarmonyOptions(mode="pp", offload_optimizer=False),
    )
    planned = harmony.plan()
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    upd = _upd_gpu_task(planned.graph)
    assert upd is not None, "offload disabled, expected a GPU update task"
    first = estimator.update_time(upd, planned.server.n_gpus)
    key = (TaskKind.UPD, upd.first_layer, upd.last_layer, 1, False)
    assert estimator._time_cache[key] == first
    assert estimator.update_time(upd, planned.server.n_gpus) == first


def test_producer_sizes_cache_is_per_graph(planned):
    """``estimate_graph`` populates the producer-size map for its graph
    and clears it afterwards, so one graph's granularities can never
    leak into another's chunk-dependency resolution."""
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    assert estimator._producer_sizes == {}
    estimator.estimate_graph(planned.graph)
    assert estimator._producer_sizes == {}
    estimator.prepare(planned.graph)
    assert set(estimator._producer_sizes) == {
        t.tid for t in planned.graph.tasks
    }


def test_estimates_track_replaced_profiles_end_to_end(planned):
    """The headline staleness scenario: estimate, swap a layer, re-estimate."""
    before = RuntimeEstimator(planned.profiles, planned.server) \
        .estimate_graph(planned.graph)
    layer = planned.profiles[0]
    slower = _with_layer(planned.profiles, 0, replace(
        layer, time_fwd=AffineFit(layer.time_fwd.intercept,
                                  10 * layer.time_fwd.slope)))
    after = RuntimeEstimator(slower, planned.server) \
        .estimate_graph(planned.graph)
    assert after > before


def test_disabled_estimator_never_caches(planned, monkeypatch):
    monkeypatch.setenv(DISABLE_ENV, "1")
    estimator = RuntimeEstimator(planned.profiles, planned.server)
    task = _fwd_task(planned.graph)
    value = estimator.mb_time(task, task.microbatches[0])
    assert estimator._time_cache == {}
    assert value == estimator._mb_time_uncached(task, task.microbatches[0])
