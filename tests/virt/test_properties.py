"""Property suite: binding never changes what an identity bind executes,
and every non-identity bind is analyzer-certified.

Identity bit-identity is the contract the whole layer rests on: a plan
bound onto hardware identical to what it was planned for must execute
the *exact* run -- same trace events, same float-bit metrics -- as the
unbound plan.  Checked across the small zoo x {dp, pp} x 5 seeds via the
canonical trace text (repr-printed floats) and ``float.hex`` metrics.
"""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.trace import TraceRecorder
from repro.virt import DeviceBinding, VirtualTopology

MODELS = ("toy-transformer", "tiny-cnn")
MODES = ("pp", "dp")
SEEDS = (0, 1, 2, 3, 4)
GPUS = 4
MINIBATCH = 16


def _harmony(model, mode, seed):
    return Harmony(model, server_for(GPUS), MINIBATCH,
                   options=HarmonyOptions(mode=mode, seed=seed))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_identity_bind_is_bit_identical(model, mode, seed):
    harmony = _harmony(model, mode, seed)
    plan = harmony.plan()

    unbound_trace = TraceRecorder()
    unbound = harmony.run(plan=plan, trace=unbound_trace)

    bound_plan = harmony.bind(DeviceBinding.identity(GPUS), plan=plan)
    bound_trace = TraceRecorder()
    bound = harmony.run(plan=bound_plan, trace=bound_trace)

    assert bound_trace.canonical() == unbound_trace.canonical(), (
        f"{model}/{mode}/seed{seed}: identity bind moved the timeline"
    )
    for attr in ("iteration_time", "throughput"):
        assert getattr(bound.metrics, attr).hex() \
            == getattr(unbound.metrics, attr).hex(), (
                f"{model}/{mode}/seed{seed}: identity bind changed "
                f"{attr} at the bit level"
            )


#: The three non-identity topologies of the acceptance matrix: 2-GPU
#: time-slice, heterogeneous FLOPs, and heterogeneous FLOPs + memory.
BINDINGS = {
    "time-slice-2": lambda: DeviceBinding.pack(
        GPUS, VirtualTopology.uniform(2)),
    "hetero-flops": lambda: DeviceBinding.heterogeneous(
        [1.5, 1.5, 0.75, 0.75]),
    "hetero-mixed": lambda: DeviceBinding.heterogeneous(
        [2.0, 1.0, 1.0, 0.5], [1.0, 1.0, 0.75, 0.5]),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_bound_plans_pass_the_strict_analyzer(model, mode, name):
    """bind() re-runs the full analyzer (races, lifetimes, capacity
    certificates against per-physical-device memory) and raises on any
    error; a clean return IS the certification."""
    harmony = _harmony(model, mode, seed=0)
    bound = harmony.bind(BINDINGS[name]())
    assert bound.report is not None
    assert not bound.report.errors
    # Capacity must have actually run against the physical server --
    # not been skipped for lack of context.
    ran = {r.name for r in bound.report.results if r.skipped is None}
    assert {"capacity", "hb", "lifetime"} <= ran


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_bound_plans_execute(name):
    """Every acceptance topology also runs end to end (the autouse
    conftest fixture re-checks structure + per-device capacity and the
    trace invariants on the way)."""
    harmony = _harmony("toy-transformer", "pp", seed=0)
    report = harmony.run(plan=harmony.bind(BINDINGS[name]()))
    assert report.metrics.iteration_time > 0
