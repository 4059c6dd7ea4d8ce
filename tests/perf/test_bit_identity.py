"""Bit-identity regression: the perf caches must not move a single bit.

Every optimization behind :func:`repro.perf.perf_enabled` promises that
planner and simulator outputs are *bit-identical* with caches on
(default) and off (``REPRO_PERF_DISABLE=1``).  This suite holds that
promise down to ``float.hex()`` on the small zoo models in both
execution modes: the chosen configuration, the best estimate, every
explored candidate's estimate, the full task graph shape, the simulated
iteration time, and the canonical execution trace.  The Runtime's time
table serves every run path, so a seeded chaos run and a heterogeneous
bind are held to the same promise, and so is a plan whose fits come from
a profile store warmed by another plan of the same model.

``perf_enabled`` is consulted at object construction time, so flipping
the environment variable and building a fresh ``Harmony`` per arm is
sufficient -- no subprocess needed.
"""

from collections import OrderedDict

import pytest

from repro.core import profiler
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.perf import DISABLE_ENV
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
#: built fresh per arm.
RUN_PATHS = {
    # FaultTolerantRunner: seed 2 injects transfer and compute retries,
    # so the same packs are timed again within one run.
    "chaos": lambda: {
        "iterations": 2,
        "fault_plan": FaultPlan(FaultSpec.chaos(1.0), seed=2),
    },
    # ScaledTimeModel wrapping the tabulated TrueTimeModel.
    "hetero-bind": lambda: {
        "binding": DeviceBinding.heterogeneous([1.5, 0.75]),
    },
}


def _fingerprint(model, mode, monkeypatch, disable, run_kwargs=dict):
    """Plan + run one cell and capture every output, floats as hex."""
    if disable:
        monkeypatch.setenv(DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    harmony = Harmony(
        model, server_for(GPUS), MINIBATCH,
        options=HarmonyOptions(mode=mode),
    )
    plan = harmony.plan()
    recorder = TraceRecorder()
    report = harmony.run(plan=plan, trace=recorder, **run_kwargs())
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
        "iteration_time": report.metrics.iteration_time.hex(),
        "recovery": report.metrics.recovery,
        "trace": recorder.canonical(),
    }


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_caches_are_bit_identical_to_disabled(model, mode, monkeypatch):
    fast = _fingerprint(model, mode, monkeypatch, disable=False)
    slow = _fingerprint(model, mode, monkeypatch, disable=True)
    for field in fast:
        assert fast[field] == slow[field], (
            f"{model}/{mode}: {field} diverged between cached and "
            f"{DISABLE_ENV}=1 runs -- a perf cache changed an output bit"
        )


@pytest.mark.parametrize("model,mode", MATRIX,
                         ids=[f"{m}-{mode}" for m, mode in MATRIX])
def test_warm_profile_store_is_bit_identical_to_disabled(model, mode,
                                                         monkeypatch):
    """The cell's fits come from a store warmed by planning the same
    model at another GPU count and minibatch."""
    store = OrderedDict()
    monkeypatch.setattr(profiler, "_STORE", store)
    monkeypatch.delenv(DISABLE_ENV, raising=False)
    Harmony(model, server_for(2 * GPUS), 2 * MINIBATCH,
            options=HarmonyOptions(mode=mode)).plan()
    assert len(store) == 1
    warm = _fingerprint(model, mode, monkeypatch, disable=False)
    assert len(store) == 1, "the cell re-profiled instead of hitting"
    cold = _fingerprint(model, mode, monkeypatch, disable=True)
    for field in warm:
        assert warm[field] == cold[field], (
            f"{model}/{mode}: {field} diverged between the warm profile "
            f"store and {DISABLE_ENV}=1 -- a shared fit changed an output bit"
        )


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
def test_run_paths_are_bit_identical_to_disabled(path, monkeypatch):
    run_kwargs = RUN_PATHS[path]
    fast = _fingerprint("toy-transformer", "pp", monkeypatch, disable=False,
                        run_kwargs=run_kwargs)
    slow = _fingerprint("toy-transformer", "pp", monkeypatch, disable=True,
                        run_kwargs=run_kwargs)
    if path == "chaos":
        assert fast["recovery"].faults_injected > 0
    for field in fast:
        assert fast[field] == slow[field], (
            f"{path}: {field} diverged between cached and "
            f"{DISABLE_ENV}=1 runs -- a perf cache changed an output bit"
        )


def test_disable_env_truthy_forms(monkeypatch):
    """The escape hatch accepts the documented truthy spellings."""
    from repro.perf import perf_enabled

    for raw in ("1", "true", "YES", " on "):
        monkeypatch.setenv(DISABLE_ENV, raw)
        assert not perf_enabled(), raw
    for raw in ("", "0", "no", "off"):
        monkeypatch.setenv(DISABLE_ENV, raw)
        assert perf_enabled(), raw
