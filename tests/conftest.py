"""Shared fixtures: a simulator, a small server, and a profiled toy model."""

from collections import OrderedDict

import pytest

from repro.analysis import STRUCTURAL_PASSES, check
from repro.core import harmony, profiler
from repro.core.decomposer import Decomposer
from repro.core.harmony import Harmony
from repro.core.profiler import Profiler
from repro.hardware.gpu import GpuSpec
from repro.hardware.host import HostSpec
from repro.hardware.interconnect import TopologySpec
from repro.hardware.server import ServerSpec
from repro.models.transformer import tiny_transformer
from repro.runtime import timemodel
from repro.runtime.executor import Executor
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder, check_trace
from repro.virt.bind import BoundPlan


@pytest.fixture(autouse=True)
def _verify_executed_graphs(request, monkeypatch):
    """Statically and dynamically verify every graph the suite executes.

    Any schedule handed to ``Executor.run`` anywhere in the test suite
    must first pass the analyzer's structural passes (structure, deadlock,
    dataflow, channel) in strict mode, with the deadlock pass granting
    the executor's own slot count.  Capacity and ablation passes need
    context a blanket hook cannot reconstruct faithfully -- dedicated
    tests cover those.  Exception: every graph executed while
    ``Harmony.run`` runs a ``repro.virt`` BoundPlan (rebound graphs of
    its retries included) additionally gets the capacity pass against
    per-physical-device memory -- the binding supplies exactly the
    context the blanket hook otherwise lacks, so every time-sliced or
    heterogeneous bind executed anywhere in the suite is re-certified.
    Tests that deliberately execute broken graphs opt out with
    ``@pytest.mark.no_graph_analysis``.

    Additionally, every run is executed with a trace recorder attached
    (unless the test brought its own) and the recorded timeline is held
    to the runtime invariants (:func:`repro.trace.check_trace`): stream
    FIFO/exclusivity, dependency order, byte and busy-time reconciliation,
    and fault-event completeness.  Opt out with
    ``@pytest.mark.no_trace_invariants``.
    """
    check_graphs = not request.node.get_closest_marker("no_graph_analysis")
    check_traces = not request.node.get_closest_marker("no_trace_invariants")
    if not check_graphs and not check_traces:
        yield
        return
    original = Executor.run
    original_harmony_run = Harmony.run
    # The binding of each BoundPlan whose Harmony.run is in progress
    # (None for an unbound plan), innermost last.
    bindings = []

    def harmony_run(self, plan=None, *args, **kwargs):
        bindings.append(plan.binding if isinstance(plan, BoundPlan)
                        else None)
        try:
            return original_harmony_run(self, plan, *args, **kwargs)
        finally:
            bindings.pop()

    def run(self, graph, iterations=1, **kwargs):
        if check_graphs:
            check(graph, passes=STRUCTURAL_PASSES, prefetch=self.prefetch)
            binding = bindings[-1] if bindings else None
            if binding is not None:
                spec = self.server.spec
                check(graph, server=spec, prefetch=self.prefetch,
                      device_memory=binding.device_memory(
                          spec.gpu.memory_bytes),
                      passes=["capacity"])
        recorder = None
        if check_traces and self.sim.trace is None:
            recorder = TraceRecorder()
            self.sim.trace = recorder
        try:
            metrics = original(self, graph, iterations, **kwargs)
        finally:
            if recorder is not None:
                self.sim.trace = None
        if recorder is not None:
            check_trace(recorder.events, graph=graph, metrics=metrics,
                        iterations=iterations, dropped=recorder.dropped)
        return metrics

    monkeypatch.setattr(Executor, "run", run)
    if check_graphs:
        monkeypatch.setattr(Harmony, "run", harmony_run)
    yield


@pytest.fixture
def cold_stores(monkeypatch):
    """Empty every process-wide store for one test: the profile store,
    the kernel-time store and the search store.  Tests that pin the work
    a first plan or run does use this, so no earlier test can warm them;
    the stores are restored afterwards."""
    monkeypatch.setattr(profiler, "_STORE", OrderedDict())
    monkeypatch.setattr(timemodel, "_STORE", OrderedDict())
    monkeypatch.setattr(harmony, "_SEARCHES", OrderedDict())


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture(scope="session")
def small_gpu():
    # 256 MiB, 1 TFLOP sustained: the toy transformer needs packing but
    # fits comfortably per layer.
    return GpuSpec(name="toy-gpu", memory_bytes=256 * 2**20,
                   peak_flops=2e12, efficiency=0.5)


@pytest.fixture(scope="session")
def small_server(small_gpu):
    return ServerSpec(
        n_gpus=2,
        gpu=small_gpu,
        host=HostSpec(cores=8, memory_bytes=64 * 2**30),
        topology=TopologySpec(n_gpus=2, gpus_per_switch=2),
    )


@pytest.fixture(scope="session")
def four_gpu_server(small_gpu):
    return ServerSpec(
        n_gpus=4,
        gpu=small_gpu,
        host=HostSpec(cores=8, memory_bytes=64 * 2**30),
        topology=TopologySpec(n_gpus=4, gpus_per_switch=4),
    )


@pytest.fixture(scope="session")
def toy_model():
    return tiny_transformer(n_blocks=6, hidden=64, seq_len=16)


@pytest.fixture(scope="session")
def toy_decomposed(toy_model):
    return Decomposer(seed=0).decompose(toy_model)


@pytest.fixture(scope="session")
def toy_profiles(toy_decomposed, small_gpu):
    return Profiler(small_gpu).profile(toy_decomposed)
