"""The relabel verdict against the full bind it replaces on the fleet path.

:func:`repro.virt.bind.certify_relabel` decides a same-count injective
bind from the plan's own analysis and per-GPU peaks, made once per plan;
:func:`repro.virt.bind.bind` rewrites the graph and runs every analyzer
pass on it.  Their accept/reject must agree:

- on every certify call of the four ``serve-fleet`` benchmark storms,
  where every time-slice bind is still routed to the full path;
- on the bind verdict goldens (``tests/golden/verdict/bind/``), whose
  time-slice case the relabel verdict refuses;
- on seeded random permutations with random FLOPs scales and memory
  capacities one byte under, at and one byte over each device's peak,
  over toy-transformer and tiny-cnn, pp and dp, 2 and 4 GPUs, prefetch
  on and off, and two gpt2 plans whose windows grow with N.

The peak helper itself is held to the capacity pass at those same
boundaries.
"""

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest

from repro.common.errors import ScheduleAnalysisError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer
from repro.service import PlannerService
from repro.virt import DeviceBinding, PhysicalDevice, VirtualTopology
from repro.virt.bind import bind, certify_relabel
from tests.goldens import BINDS

BENCH = Path(__file__).resolve().parents[2] / "bench"

#: (model, mode, GPUs, minibatch, prefetch).  The toy models' windows
#: never grow with N; in the two gpt2 plans they do, and each GPU's
#: binding window (the earliest violated) is not its highest one.
PLANS = [
    (model, mode, gpus, 16, prefetch)
    for model in ("toy-transformer", "tiny-cnn")
    for mode in ("pp", "dp")
    for gpus in (2, 4)
    for prefetch in (True, False)
] + [("gpt2", "dp", 2, 8, True), ("gpt2-medium", "dp", 4, 16, False)]


def _full_verdict(plan, binding) -> bool:
    try:
        bind(plan, binding)
    except ScheduleAnalysisError:
        return False
    return True


def _plan(model, mode, gpus, minibatch=16, prefetch=True):
    return Harmony(model, server_for(gpus), minibatch,
                   HarmonyOptions(mode=mode, prefetch=prefetch)).plan()


def _scale_for(capacity: int, base: int) -> float:
    """A float memory scale whose device gets exactly ``capacity``
    bytes of a ``base``-byte GPU."""
    scale = capacity / base
    device = PhysicalDevice(0, memory_scale=scale)
    while device.memory_bytes(base) < capacity:
        device = PhysicalDevice(0, memory_scale=math.nextafter(
            device.memory_scale, math.inf))
    while device.memory_bytes(base) > capacity:
        device = PhysicalDevice(0, memory_scale=math.nextafter(
            device.memory_scale, 0.0))
    return device.memory_scale


def _bound_at(plan, assignment, capacities, rng) -> DeviceBinding:
    """``assignment`` onto devices of random FLOPs scales where logical
    device ``d`` lands on ``capacities[d]`` bytes."""
    base = plan.server.gpu.memory_bytes
    memory = [0.0] * len(assignment)
    for logical, physical in enumerate(assignment):
        memory[physical] = _scale_for(capacities[logical], base)
    flops = [rng.choice((0.5, 1.0, 1.25, 2.0)) for _ in assignment]
    return DeviceBinding(VirtualTopology.heterogeneous(flops, memory),
                         tuple(assignment))


@pytest.fixture(scope="module")
def storm_binds():
    """Every certify call of the ``serve-fleet`` storms, each with the
    service's verdict, the full bind's and, for a relabel, the fast
    one's; plus the bindings the service sent to the full path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    calls, routed, full = [], [], {}
    certify, placer_bind = PlannerService._certify, FleetPlacer.bind

    def checked_certify(self, record, reservation):
        plan, binding = record.plan, reservation.binding()
        verdict = certify(self, record, reservation)
        pair = (id(plan), binding.fingerprint)
        if pair not in full:
            full[pair] = (plan, _full_verdict(plan, binding))
        fast = (certify_relabel(plan, binding)
                if binding.is_permutation else None)
        calls.append((binding, verdict, full[pair][1], fast))
        return verdict

    def routed_bind(self, reservation, plan):
        routed.append(reservation.binding())
        return placer_bind(self, reservation, plan)

    with pytest.MonkeyPatch.context() as patch:
        # registered while it loads: its dataclasses look their module up
        patch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        golden = json.loads(workloads.GOLDEN_PATH.read_text())
        patch.setattr(PlannerService, "_certify", checked_certify)
        patch.setattr(FleetPlacer, "bind", routed_bind)
        workloads.ServeFleet(golden).setup()
    return calls, routed


def test_storm_verdicts_equal_the_full_bind(storm_binds):
    calls, _routed = storm_binds
    assert len(calls) > 500
    mismatches = [
        (binding.describe(), served, reference)
        for binding, served, reference, _fast in calls
        if served != reference
    ]
    assert not mismatches
    fast = [(f, reference) for _b, _s, reference, f in calls
            if f is not None]
    assert all(f == reference for f, reference in fast)
    assert {reference for _f, reference in fast} == {True, False}, (
        "the storms must exercise both relabel verdicts"
    )


def test_storm_routes_only_time_slices_to_the_full_bind(storm_binds):
    """The service sends a (plan, binding) pair to the full bind iff
    the binding time-slices; the bench storms place every job at full
    width, so none does."""
    calls, routed = storm_binds
    assert not any(b.is_permutation for b in routed)
    time_sliced = {b.fingerprint for b, *_rest in calls
                   if not b.is_permutation}
    assert {b.fingerprint for b in routed} == time_sliced


@pytest.mark.parametrize("name", sorted(BINDS))
def test_golden_binds(name):
    flops, memory = BINDS[name]
    plan = _plan("toy-transformer", "pp", 4)
    binding = DeviceBinding.pack(
        4, VirtualTopology.heterogeneous(flops, memory))
    reference = _full_verdict(plan, binding)
    assert reference == (name != "oversubscribed")
    if name == "time-slice":
        assert not binding.is_permutation
        with pytest.raises(ValueError, match="bind"):
            certify_relabel(plan, binding)
    else:
        assert certify_relabel(plan, binding) == reference


@pytest.mark.parametrize("model,mode,gpus,minibatch,prefetch", PLANS)
def test_random_relabels_equal_the_full_bind(model, mode, gpus, minibatch,
                                             prefetch):
    plan = _plan(model, mode, gpus, minibatch, prefetch)
    peaks = plan.relabel_peaks
    assert peaks is not None and len(peaks) == gpus
    assert not plan.analyze().has("channel/p2p-self")
    rng = random.Random(f"{model}/{mode}/{gpus}/{minibatch}/{prefetch}")
    rotated = tuple((d + 1) % gpus for d in range(gpus))
    cases = [
        # every device exactly full, one rotation: a check that ignores
        # the assignment compares the wrong peak with the wrong device
        (rotated, [0] * gpus),
        (rotated, [-1] + [0] * (gpus - 1)),
        (rotated, [1] * gpus),
    ]
    for _ in range(12):
        cases.append((tuple(rng.sample(range(gpus), gpus)),
                      [rng.choice((-1, 0, 0, 1)) for _ in range(gpus)]))
    verdicts = set()
    for assignment, offsets in cases:
        capacities = [max(1, peak + offset)
                      for peak, offset in zip(peaks, offsets)]
        binding = _bound_at(plan, assignment, capacities, rng)
        reference = _full_verdict(plan, binding)
        assert certify_relabel(plan, binding) == reference, (
            f"{binding.describe()} at offsets {offsets}"
        )
        verdicts.add(reference)
    assert verdicts == {True, False}


@pytest.mark.parametrize("model,mode,gpus,minibatch,prefetch", PLANS)
def test_peaks_are_the_capacity_pass_boundary(model, mode, gpus, minibatch,
                                              prefetch):
    """``capacity/gpu`` fires for a device iff its capacity is below
    its peak: at ``peak - 1`` it fires, at ``peak`` and ``peak + 1``
    it does not.  (A GPU the plan leaves idle has peak 0, and no
    capacity below it.)"""
    plan = _plan(model, mode, gpus, minibatch, prefetch)
    peaks = plan.relabel_peaks
    for offset in (-1, 0, 1):
        for low in range(gpus):
            if peaks[low] + offset < 0:
                continue
            memory = [peak + (offset if d == low else 1)
                      for d, peak in enumerate(peaks)]
            report = plan.analyze(device_memory=memory,
                                  passes=["capacity"])
            flagged = {d.device for d in report.by_rule("capacity/gpu")}
            assert flagged == ({low} if offset < 0 else set()), (
                f"gpu{low} at peak {offset:+d}"
            )
