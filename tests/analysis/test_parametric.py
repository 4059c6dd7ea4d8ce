"""Parametric capacity certificates: affine math, binding windows, and
deliberately undersized servers naming a concrete smallest violating N."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze, capacity_certificates
from repro.analysis.context import AnalysisContext
from repro.analysis.parametric import (
    CapacityCertificate,
    _device_certificate,
    _local_in_bytes,
    _window_names,
)
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.experiments.common import server_for
from repro.hardware.gpu import GpuSpec
from repro.hardware.host import HostSpec
from repro.hardware.interconnect import TopologySpec
from repro.hardware.server import ServerSpec
from repro.virt import DeviceBinding, PhysicalDevice, VirtualTopology
from tests.goldens import BENCH_PLANS, _harmony_graph


def task(tid, device=0, resident=0, local_in=0, src=None,
         kind=TaskKind.FWD, **kw):
    t = Task(tid=tid, kind=kind, first_layer=0, last_layer=0,
             device=device, microbatches=(1,), resident_bytes=resident, **kw)
    if local_in:
        t.ins.append(Move(TensorKind.Y, local_in, Channel.LOCAL, src_task=src))
    return t


def tiny_server(gpu_bytes=1000, host_bytes=1000, n_gpus=1):
    return ServerSpec(
        n_gpus=n_gpus,
        gpu=GpuSpec(name="tiny", memory_bytes=gpu_bytes, peak_flops=1e12),
        host=HostSpec(cores=4, memory_bytes=host_bytes),
        topology=TopologySpec(n_gpus=n_gpus, gpus_per_switch=max(n_gpus, 1)),
    )


def context(*tasks, n_devices=1, **kw):
    graph = TaskGraph(mode="test", n_devices=n_devices)
    for t in tasks:
        graph.add(t)
    return AnalysisContext(graph, **kw)


class TestCertificateMath:
    def test_affine_peak_and_violating_n(self):
        cert = CapacityCertificate("gpu0", fixed_bytes=10, slope_bytes=5,
                                   capacity_bytes=30)
        assert cert.peak(1) == 15
        assert cert.smallest_violating_n() == 5
        assert cert.peak(4) <= 30 < cert.peak(5)
        assert not cert.safe_for_all
        assert "violates at N = 5" in cert.describe()

    def test_zero_slope_within_budget_is_safe_for_all(self):
        cert = CapacityCertificate("gpu0", fixed_bytes=10, slope_bytes=0,
                                   capacity_bytes=30)
        assert cert.safe_for_all
        assert "safe for all N >= 1" in cert.describe()

    def test_overflow_at_the_plans_own_size(self):
        cert = CapacityCertificate("gpu0", fixed_bytes=40, slope_bytes=1,
                                   capacity_bytes=30)
        assert cert.smallest_violating_n() == 1

    def test_exact_fit_at_one_violates_at_two(self):
        cert = CapacityCertificate("gpu0", fixed_bytes=25, slope_bytes=5,
                                   capacity_bytes=30)
        assert cert.peak(1) == cert.capacity_bytes
        assert cert.smallest_violating_n() == 2


class TestDeviceCertificates:
    def three_task_context(self, **kw):
        # Windows of 2 (prefetch): [150 + 30N], [90 + 50N], [40 + 20N].
        return context(
            task(0, resident=100),
            task(1, resident=80, local_in=30, src=0),
            task(2, resident=60, local_in=20, src=1),
            server=tiny_server(gpu_bytes=1000), **kw,
        )

    def test_binding_window_is_the_earliest_violated(self):
        [cert] = capacity_certificates(self.three_task_context())
        assert (cert.fixed_bytes, cert.slope_bytes) == (90, 50)
        assert cert.smallest_violating_n() == (1000 - 90) // 50 + 1

    def test_single_buffering_shrinks_the_window(self):
        [cert] = capacity_certificates(
            self.three_task_context(prefetch=False)
        )
        assert (cert.fixed_bytes, cert.slope_bytes) == (50, 30)

    def test_cpu_offloaded_tasks_hold_no_gpu_bytes(self):
        ctx = context(
            task(0, resident=100),
            task(1, kind=TaskKind.UPD, on_cpu=True, resident=10**9),
            server=tiny_server(gpu_bytes=1000),
        )
        [cert] = capacity_certificates(ctx)
        assert cert.peak(1) == 100

    def test_empty_device_gets_a_trivial_certificate(self):
        ctx = context(task(0, resident=100), n_devices=2,
                      server=tiny_server(gpu_bytes=1000, n_gpus=2))
        gpu1 = capacity_certificates(ctx)[1]
        assert gpu1.safe_for_all and gpu1.peak(1) == 0


class TestHostCertificate:
    def stashing_context(self, state=100, inputs=40, host_bytes=1000):
        t = task(0, resident=10)
        t.outs.append(Move(TensorKind.CKPT, 7, Channel.MSG))
        return context(t, server=tiny_server(host_bytes=host_bytes),
                       host_state_bytes=state, host_input_bytes=inputs)

    def test_state_splits_into_fixed_and_per_n(self):
        host = capacity_certificates(self.stashing_context())[-1]
        assert host.scope == "host"
        assert (host.fixed_bytes, host.slope_bytes) == (100 - 40, 40 + 7)
        assert host.smallest_violating_n() == (1000 - 60) // 47 + 1

    def test_input_split_is_clamped_to_state(self):
        host = capacity_certificates(
            self.stashing_context(state=100, inputs=500)
        )[-1]
        assert (host.fixed_bytes, host.slope_bytes) == (0, 100 + 7)

    def test_no_host_certificate_without_state_bytes(self):
        ctx = context(task(0, resident=10), server=tiny_server())
        assert [c.scope for c in capacity_certificates(ctx)] == ["gpu0"]


class TestUndersizedServer:
    """The acceptance case: shrink the hardware until the pass names a
    concrete smallest violating N for a real planner schedule."""

    def plan(self, mode="pp"):
        server = server_for(4)
        options = HarmonyOptions(mode=mode)
        harmony = Harmony("toy-transformer", server, 16, options=options)
        return harmony, server, options, harmony.plan()

    def test_gpu_smaller_than_the_plan_is_unsafe_at_n_one(self):
        harmony, server, options, plan = self.plan()
        ctx = AnalysisContext(plan.graph, server=server)
        worst = max(capacity_certificates(ctx), key=lambda c: c.peak(1))
        undersized = replace(
            server, gpu=replace(server.gpu, memory_bytes=worst.peak(1) - 1)
        )
        report = analyze(plan.graph, server=undersized,
                         options=options.schedule_options())
        assert not report.ok
        assert report.has("capacity/gpu")
        # One error per overflowing scope.
        assert len(report.errors) == sum(
            c.peak(1) > c.capacity_bytes for c in report.certificates
        )
        shrunk = AnalysisContext(plan.graph, server=undersized)
        assert any(c.smallest_violating_n() == 1
                   for c in capacity_certificates(shrunk))

    def test_undersized_host_names_the_exact_ceiling(self):
        harmony, server, options, plan = self.plan()
        state = harmony.host_state_bytes
        inputs = harmony.minibatch * harmony.model.sample_bytes
        ctx = AnalysisContext(plan.graph, server=server,
                              host_state_bytes=state,
                              host_input_bytes=inputs)
        host = capacity_certificates(ctx)[-1]
        assert host.slope_bytes > 0  # inputs + stash really scale with N
        # A host that fits exactly two groups' worth violates at N = 3.
        undersized = replace(
            server, host=replace(server.host, memory_bytes=host.peak(2))
        )
        report = analyze(plan.graph, server=undersized,
                         options=options.schedule_options(),
                         host_state_bytes=state, host_input_bytes=inputs)
        assert report.ok  # as built (N = 1) the plan still fits
        [diag] = report.by_rule("capacity/host-ceiling")
        assert "ceiling at N = 2" in diag.message
        shrunk = AnalysisContext(plan.graph, server=undersized,
                                 host_state_bytes=state,
                                 host_input_bytes=inputs)
        assert capacity_certificates(shrunk)[-1].smallest_violating_n() == 3


def every_window_certificate(device, tasks, window, capacity):
    """The selection :func:`_device_certificate` replaced: a full
    certificate, ``detail`` included, for every window, then ``min``."""
    slopes = [0 if t.on_cpu else _local_in_bytes(t) for t in tasks]
    fixeds = [
        0 if t.on_cpu else max(0, t.resident_bytes - slopes[i])
        for i, t in enumerate(tasks)
    ]
    certs = [
        CapacityCertificate(
            scope=f"gpu{device}",
            fixed_bytes=sum(fixeds[i:i + window]),
            slope_bytes=sum(slopes[i:i + window]),
            capacity_bytes=capacity,
            detail=f"window {_window_names(tasks[i:i + window])}",
        )
        for i in range(len(tasks))
    ]
    if not certs:
        return CapacityCertificate(
            scope=f"gpu{device}", fixed_bytes=0, slope_bytes=0,
            capacity_bytes=capacity, detail="no tasks bound to this GPU",
        ), []

    def key(i):
        n = certs[i].smallest_violating_n()
        return (n if n is not None else 1 << 62, -certs[i].peak(1))

    at = min(range(len(certs)), key=key)
    return certs[at], tasks[at:at + window]


def assert_same_selection(device, tasks, window, capacity):
    cert, chosen = _device_certificate(device, tasks, window, capacity)
    ref, ref_chosen = every_window_certificate(device, tasks, window,
                                               capacity)
    assert cert == ref  # every field, ``detail`` included
    assert len(chosen) == len(ref_chosen)
    assert all(a is b for a, b in zip(chosen, ref_chosen))
    return cert


class TestBindingWindowSelection:
    """One certificate per scope, chosen on integer window sums, equals
    the certificate the build-every-window rule picked."""

    @pytest.mark.parametrize("case", BENCH_PLANS,
                             ids=lambda c: "/".join(map(str, c)))
    def test_zoo_plans_bound_at_fractional_shares(self, case):
        graph, kwargs = _harmony_graph(*case)
        base = kwargs["server"].gpu.memory_bytes
        n = graph.n_devices
        verdicts = set()
        for share in (1.0, 0.5, 0.25):
            for width in (n, n // 2):
                binding = DeviceBinding.pack(n, VirtualTopology(tuple(
                    PhysicalDevice(i, memory_scale=share)
                    for i in range(width)
                )))
                bound = binding.apply(graph)
                memory = binding.device_memory(base)
                for prefetch in (True, False):
                    ctx = AnalysisContext(bound, prefetch=prefetch)
                    for device, tasks in enumerate(ctx.device_order()):
                        cert = assert_same_selection(
                            device, tasks, ctx.fetch_slots, memory[device])
                        verdicts.add(cert.smallest_violating_n() == 1)
        assert False in verdicts

    @settings(max_examples=300, deadline=None)
    @given(
        residencies=st.lists(st.tuples(
            st.sampled_from((0, 10, 40, 100)) | st.integers(0, 300),
            st.sampled_from((0, 0, 10, 30)),
            st.booleans(),
        ), max_size=7),
        window=st.integers(1, 9),
        capacity=st.sampled_from((0, 50, 100, 200)) | st.integers(0, 600),
    )
    def test_residency_lists(self, residencies, window, capacity):
        """Ties, zero slopes, CPU tasks, overflow at N = 1 and windows
        longer than the task list."""
        tasks = [
            task(tid, resident=resident, local_in=local_in,
                 src=tid - 1 if tid else None,
                 **(dict(kind=TaskKind.UPD, on_cpu=True) if on_cpu else {}))
            for tid, (resident, local_in, on_cpu) in enumerate(residencies)
        ]
        assert_same_selection(0, tasks, window, capacity)
