"""Bit-identity regression: the caches must not move a single bit.

The planner and the Runtime keep eight caches: the search store, the
profile store, the packing table it shares per model, the
``ModelProfiles`` memo tables (built from the fits' coefficient
columns), the graph builder's schedule memo (pack parts, task groups,
footprint prefixes, update FLOPs), the estimator's per-search duration
and dependency memos, the time model's pack tables (over fitted times in
the estimator, kernel times in the Runtime), and the Runtime's
kernel-time store.  Each promises the bits of the naive
computation it replaces.
This suite holds that promise down to ``float.hex()`` on the small zoo
models in both execution modes, against a ``naive`` arm that swaps every
cache for that computation: the chosen configuration, the best estimate, every
explored candidate's estimate, the full task graph shape, the estimated
time of every task, the simulated iteration time, and the canonical
execution trace.  The Runtime's time table serves every run path, so a
seeded chaos run and a heterogeneous bind are held to the same promise,
and so is a plan whose fits and packings come from a profile store
warmed by another plan of the same model.
"""

from collections import OrderedDict
from itertools import accumulate

import pytest

from repro.core import harmony, profiler, taskgraph
from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import ModelProfiles, Profiler
from repro.core.types import TaskKind
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.runtime.timemodel import KernelTimes, TrueTimeModel
from repro.trace import TraceRecorder
from repro.virt import DeviceBinding

MATRIX = (
    ("toy-transformer", "pp"),
    ("toy-transformer", "dp"),
    ("tiny-cnn", "pp"),
    ("tiny-cnn", "dp"),
)
GPUS = 2
MINIBATCH = 8

#: ``Harmony.run`` arguments for the run paths beyond the plain executor,
#: built fresh per arm from the cell's ``Harmony`` and plan.
RUN_PATHS = {
    # FaultTolerantRunner: seed 2 injects transfer and compute retries,
    # so the same packs are timed again within one run.
    "chaos": lambda harmony, plan: {
        "plan": plan,
        "iterations": 2,
        "fault_plan": FaultPlan(FaultSpec.chaos(1.0), seed=2),
    },
    # The tabulated TrueTimeModel dividing by per-device FLOPs scales.
    "hetero-bind": lambda harmony, plan: {
        "plan": harmony.bind(DeviceBinding.heterogeneous([1.5, 0.75]),
                             plan=plan),
    },
}


def _naive_profile(self, decomposed):
    """A fresh fit every call: no profile store."""
    return ModelProfiles(self._fit(decomposed),
                         optimizer_slots=decomposed.model.optimizer_slots,
                         gpu=self.gpu)


def _naive_layer_times(self, phase, u):
    """One ``LayerProfile.time`` call per layer: no coefficient columns."""
    return tuple(layer.time(phase, u) for layer in self.layers)


def _naive_mem_prefix(self, phase, u):
    """One ``LayerProfile.memory`` call per layer: no coefficient columns."""
    return list(accumulate((layer.memory(phase, u) for layer in self.layers),
                           initial=0))


def _naive_search(store, key, make, bound):
    """A fresh search every call: no search store."""
    return make()


def _naive_span_time(self, phase, first, last, u):
    """The fitted layer times summed one by one: no time table."""
    return sum(self[i].time(phase, u) for i in range(first, last + 1))


class _Forgetful(dict):
    """A memo dict that stores nothing: every lookup misses."""

    def __setitem__(self, key, value):
        pass


class _NaiveTable(dict):
    """The builder's memo table, filled afresh on every lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.fill(key)


def _forgetful_estimator(init):
    """``RuntimeEstimator.__init__`` with per-search memos that keep
    nothing: every task's durations and dependency maps are worked out
    anew."""
    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._mb_times = _Forgetful()
        self._dep_maps = _Forgetful()
        self._update_times = _Forgetful()

    return forgetful_init


def _naive_kernel_span_time(self, phase, first, last, u):
    """Fresh kernel times, left to right: no kernel store."""
    total = 0.0
    for i in range(first, last + 1):
        total += self.units[i].run_time(self.gpu, phase, u)
    return total


def _naive_pack_time(self, phase, first, last, u):
    """The source's span time on every call: no pack table."""
    return self.source.span_time(phase, first, last, u)


@pytest.fixture
def naive(monkeypatch):
    """Call to swap every cache for the naive computation it replaces,
    for the rest of the test."""
    def disable_caches():
        monkeypatch.setattr(ModelProfiles, "memo",
                            lambda self, key, compute: compute())
        monkeypatch.setattr(ModelProfiles, "packing",
                            lambda self, key, compute: compute())
        monkeypatch.setattr(ModelProfiles, "layer_times", _naive_layer_times)
        monkeypatch.setattr(ModelProfiles, "_mem_prefix", _naive_mem_prefix)
        monkeypatch.setattr(harmony, "lru_get", _naive_search)
        monkeypatch.setattr(Profiler, "profile", _naive_profile)
        monkeypatch.setattr(ModelProfiles, "span_time", _naive_span_time)
        monkeypatch.setattr(KernelTimes, "span_time", _naive_kernel_span_time)
        monkeypatch.setattr(RuntimeEstimator, "__init__",
                            _forgetful_estimator(RuntimeEstimator.__init__))
        monkeypatch.setattr(taskgraph, "_Table", _NaiveTable)
        monkeypatch.setattr(TrueTimeModel, "_pack_time", _naive_pack_time)

    return disable_caches


def _estimated_task_times(plan):
    """The fitted time the estimator charges every microbatch (or
    update) of every task: the explored estimates alone can hide a task
    time that only moves a lane the iteration does not wait on."""
    time_model = TrueTimeModel(plan.profiles, plan.server.host,
                               plan.server.n_gpus)
    times = []
    for task in plan.graph.tasks:
        if task.kind is TaskKind.UPD:
            times.append(time_model.update_time(task))
        else:
            times.extend(time_model.microbatch_time(task, u)
                         for u in task.microbatches)
    return tuple(t.hex() for t in times)


def _fingerprint(model, mode,
                 run_kwargs=lambda harmony, plan: {"plan": plan}):
    """Plan + run one cell and capture every output, floats as hex."""
    harmony = Harmony(
        model, server_for(GPUS), MINIBATCH,
        options=HarmonyOptions(mode=mode),
    )
    plan = harmony.plan()
    recorder = TraceRecorder()
    report = harmony.run(trace=recorder, **run_kwargs(harmony, plan))
    return {
        "config": plan.search.best,
        "best_estimate": plan.search.best_estimate.hex(),
        "explored": tuple(
            (e.config, e.estimate.hex()) for e in plan.search.explored
        ),
        "n_feasible": plan.search.n_feasible,
        "n_infeasible": plan.search.n_infeasible,
        "tasks": tuple(
            (t.tid, t.kind, t.device, t.first_layer, t.last_layer,
             t.microbatches)
            for t in plan.graph.tasks
        ),
        "task_times": _estimated_task_times(plan),
        "iteration_time": report.metrics.iteration_time.hex(),
        "recovery": report.metrics.recovery,
        "trace": recorder.canonical(),
    }


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_caches_are_bit_identical_to_disabled(model, mode, naive):
    fast = _fingerprint(model, mode)
    naive()
    slow = _fingerprint(model, mode)
    for field in fast:
        assert fast[field] == slow[field], (
            f"{model}/{mode}: {field} diverged between cached and "
            f"naive runs -- a cache changed an output bit"
        )


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_warm_profile_store_is_bit_identical_to_disabled(model, mode,
                                                         monkeypatch, naive):
    """The cell's fits come from a store warmed by planning the same
    model at another GPU count and minibatch."""
    store = OrderedDict()
    monkeypatch.setattr(profiler, "_STORE", store)
    Harmony(model, server_for(2 * GPUS), 2 * MINIBATCH,
            options=HarmonyOptions(mode=mode)).plan()
    assert len(store) == 1
    warm = _fingerprint(model, mode)
    assert len(store) == 1, "the cell re-profiled instead of hitting"
    naive()
    cold = _fingerprint(model, mode)
    assert len(store) == 1, "the naive arm used the profile store"
    for field in warm:
        assert warm[field] == cold[field], (
            f"{model}/{mode}: {field} diverged between the warm profile "
            f"store and naive runs -- a shared fit changed an output bit"
        )


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
def test_run_paths_are_bit_identical_to_disabled(path, naive):
    run_kwargs = RUN_PATHS[path]
    fast = _fingerprint("toy-transformer", "pp", run_kwargs=run_kwargs)
    naive()
    slow = _fingerprint("toy-transformer", "pp", run_kwargs=run_kwargs)
    if path == "chaos":
        assert fast["recovery"].faults_injected > 0
    for field in fast:
        assert fast[field] == slow[field], (
            f"{path}: {field} diverged between cached and "
            f"naive runs -- a cache changed an output bit"
        )


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_warm_packing_table_is_bit_identical_to_disabled(model, mode,
                                                         monkeypatch, naive,
                                                         cold_stores):
    """The cell's packings come from a table warmed by planning the same
    model in the other mode, at another GPU count and minibatch (every
    store cold first, so the cell searches)."""
    store = profiler._STORE
    other = "dp" if mode == "pp" else "pp"
    Harmony(model, server_for(2 * GPUS), 2 * MINIBATCH,
            options=HarmonyOptions(mode=other)).plan()
    (entry,) = store.values()
    warmed = set(entry.packings)
    requested = []
    packing = ModelProfiles.packing

    def recorded(self, key, compute):
        requested.append(key)
        return packing(self, key, compute)

    monkeypatch.setattr(ModelProfiles, "packing", recorded)
    warm = _fingerprint(model, mode)
    assert warmed & set(requested), "the cell took no packing from the table"
    naive()
    stored = len(entry.packings)
    cold = _fingerprint(model, mode)
    assert len(entry.packings) == stored, "the naive arm used the table"
    for field in warm:
        assert warm[field] == cold[field], (
            f"{model}/{mode}: {field} diverged between the warm packing "
            f"table and naive runs -- a shared packing changed an output bit"
        )
