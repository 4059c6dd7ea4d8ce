"""Tenant-isolation harness: co-placement must be invisible to tenants.

The fleet's whole promise is that sharing servers never leaks between
tenants.  Three guarantees, each checked as a hard bit-level fact:

a. a co-placed job whose reservation realizes as an *identity* bind
   executes bit-identically to its solo run (canonical trace text plus
   ``float.hex`` metrics), across the model zoo x {dp, pp} x 5 seeds;
b. a tenant's carved memory partition is *proved* sufficient -- the
   placer's bind re-runs the full static analyzer with the partition as
   the per-device capacity vector, and a partition that is too small is
   rejected up front rather than discovered at run time;
c. chaos injected into one tenant's run never perturbs another tenant's
   virtual-time trace when their devices are disjoint.
"""

from fractions import Fraction

import pytest

from repro.common.errors import ScheduleAnalysisError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import FleetPlacer, fleet_of
from repro.trace import TraceRecorder

MODELS = ("toy-transformer", "tiny-cnn")
MODES = ("pp", "dp")
SEEDS = (0, 1, 2, 3, 4)
GPUS = 4
MINIBATCH = 16
HALF = Fraction(1, 2)


def _harmony(model, mode, seed):
    return Harmony(model, server_for(GPUS), MINIBATCH,
                   options=HarmonyOptions(mode=mode, seed=seed))


def _run(harmony, plan):
    trace = TraceRecorder()
    report = harmony.run(plan=plan, trace=trace)
    return trace.canonical(), report.metrics


def _assert_bit_identical(solo, co, label):
    solo_trace, solo_metrics = solo
    co_trace, co_metrics = co
    assert co_trace == solo_trace, f"{label}: co-placement moved the timeline"
    for attr in ("iteration_time", "throughput"):
        assert getattr(co_metrics, attr).hex() \
            == getattr(solo_metrics, attr).hex(), (
                f"{label}: co-placement changed {attr} at the bit level"
            )


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_co_placed_identity_tenant_is_bit_identical(model, mode, seed):
    """Guarantee (a): with a neighbour occupying server 0, a tenant
    placed whole onto server 1 gets an identity bind and reproduces its
    solo run bit for bit."""
    harmony = _harmony(model, mode, seed)
    plan = harmony.plan()
    solo = _run(harmony, plan)

    placer = FleetPlacer(fleet_of(2, GPUS))
    neighbour = placer.require("neighbour", GPUS)
    mine = placer.require("tenant", GPUS)
    assert neighbour.server != mine.server
    assert mine.kind == "identity"

    bound = placer.bind(mine, plan)
    _assert_bit_identical(solo, _run(harmony, bound),
                          f"{model}/{mode}/seed{seed}")

    placer.release(neighbour)
    placer.release(mine)
    assert placer.occupancy() == 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
def test_partition_bind_is_analyzer_certified(model, mode):
    """Guarantee (b): a fractional reservation's bind re-runs the full
    static pass set with the tenant's partition as the capacity vector --
    a clean return proves the job fits inside its share."""
    harmony = _harmony(model, mode, seed=0)
    plan = harmony.plan()

    placer = FleetPlacer(fleet_of(1, GPUS))
    res = placer.require("tenant", GPUS, share=HALF)
    assert res.kind == "partition"

    bound = placer.bind(res, plan)
    assert bound.report is not None and not bound.report.errors
    ran = {r.name for r in bound.report.results if r.skipped is None}
    assert {"capacity", "hb", "lifetime"} <= ran

    # The certified capacity vector IS the carved partition: exactly
    # share x the physical card, on every device the tenant holds.
    base = bound.server.gpu.memory_bytes
    assert bound.binding.device_memory(base) \
        == [int(base * HALF)] * GPUS


def test_too_small_partition_is_rejected_up_front():
    """Guarantee (b), negative direction: a partition the job cannot fit
    in fails certification at bind time (capacity analyzer), not at run
    time -- callers release the reservation and shed."""
    harmony = _harmony("toy-transformer", "pp", seed=0)
    plan = harmony.plan()
    placer = FleetPlacer(fleet_of(1, GPUS))
    res = placer.require("tenant", GPUS, share=Fraction(1, 1 << 20))
    with pytest.raises(ScheduleAnalysisError):
        placer.bind(res, plan)
    # The reservation is still live; the caller releases it on shed.
    placer.release(res)
    assert placer.occupancy() == 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_neighbour_chaos_never_perturbs_disjoint_tenant(model, mode, seed):
    """Guarantee (c): a neighbour tenant living through a chaos run on
    server 0 leaves a server-1 tenant's virtual-time trace untouched."""
    harmony = _harmony(model, mode, seed)
    plan = harmony.plan()
    solo = _run(harmony, plan)

    placer = FleetPlacer(fleet_of(2, GPUS))
    noisy = placer.require("noisy", GPUS)
    quiet = placer.require("quiet", GPUS)
    assert set(noisy.devices) and noisy.server != quiet.server

    # The noisy neighbour runs under the standard chaos mix...
    noisy_harmony = _harmony(model, mode, seed)
    noisy_bound = placer.bind(noisy, noisy_harmony.plan())
    noisy_report = noisy_harmony.run(
        plan=noisy_bound,
        fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=seed),
    )
    assert noisy_report.metrics.iteration_time > 0

    # ...and the quiet tenant's run is still bit-identical to solo.
    quiet_bound = placer.bind(quiet, plan)
    _assert_bit_identical(solo, _run(harmony, quiet_bound),
                          f"{model}/{mode}/seed{seed}")


def test_co_resident_partition_tenants_both_execute():
    """Two half-memory tenants carved onto the SAME four GPUs both
    certify and both run -- co-residency is not mutually destructive."""
    placer = FleetPlacer(fleet_of(1, GPUS))
    reports = []
    held = []
    for tenant, seed in (("a", 0), ("b", 1)):
        harmony = _harmony("toy-transformer", "pp", seed)
        res = placer.require(tenant, GPUS, share=HALF)
        assert res.kind == "partition"
        held.append(res)
        bound = placer.bind(res, harmony.plan())
        reports.append(harmony.run(plan=bound))
    assert held[0].devices == held[1].devices
    assert placer.occupancy() == 1
    for report in reports:
        assert report.metrics.iteration_time > 0
    for res in held:
        placer.release(res)
    assert placer.occupancy() == 0
