"""Tests for the Runtime executor on the simulated server."""

import pytest

from repro.core.config import Configuration
from repro.core.packing import balanced_time_packing
from repro.core.taskgraph import HarmonyGraphBuilder, ScheduleOptions
from repro.graph.layer import Phase
from repro.hardware.server import SimulatedServer
from repro.runtime.executor import Executor
from repro.runtime.timemodel import KernelTimes, TrueTimeModel
from repro.sim.engine import Simulator


CAPACITY = 1_300_000


@pytest.fixture
def toy_config(toy_profiles):
    packs_b = balanced_time_packing(Phase.BWD, 1, toy_profiles, CAPACITY)
    packs_f = balanced_time_packing(
        Phase.FWD, 2, toy_profiles, CAPACITY, backward_packs=packs_b
    )
    return Configuration(u_f=2, packs_f=packs_f, u_b=1, packs_b=packs_b)


def execute(server_spec, decomposed, profiles, config, mode="pp",
            minibatch=8, prefetch=True, **options):
    graph = HarmonyGraphBuilder(
        profiles, server_spec.n_gpus, minibatch,
        ScheduleOptions(mode=mode, **options),
    ).build(config)
    sim = Simulator()
    server = SimulatedServer(sim, server_spec)
    time_model = TrueTimeModel(KernelTimes(decomposed, server_spec.gpu),
                               server_spec.host, server_spec.n_gpus)
    executor = Executor(server, time_model, prefetch=prefetch)
    return executor.run(graph)


class TestExecution:
    def test_iteration_completes(self, small_server, toy_decomposed,
                                 toy_profiles, toy_config):
        metrics = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        assert metrics.iteration_time > 0
        assert metrics.minibatch == 8

    def test_iteration_bounded_below_by_compute(
        self, small_server, toy_decomposed, toy_profiles, toy_config
    ):
        metrics = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        busiest = max(g.compute_busy for g in metrics.gpus)
        assert metrics.iteration_time >= busiest

    def test_deterministic(self, small_server, toy_decomposed, toy_profiles,
                           toy_config):
        a = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        b = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        assert a.iteration_time == b.iteration_time
        assert a.global_swap_bytes == b.global_swap_bytes

    def test_dynamic_swap_matches_static_plan(
        self, small_server, toy_decomposed, toy_profiles, toy_config
    ):
        """Executed link traffic equals the task graph's static accounting
        (message relays count both PCIe hops at run time)."""
        graph = HarmonyGraphBuilder(
            toy_profiles, 2, 8, ScheduleOptions(mode="pp")
        ).build(toy_config)
        sim = Simulator()
        server = SimulatedServer(sim, small_server)
        time_model = TrueTimeModel(KernelTimes(toy_decomposed,
                                               small_server.gpu),
                                   small_server.host, 2)
        metrics = Executor(server, time_model).run(graph)
        assert metrics.global_swap_bytes == graph.global_swap_bytes()
        assert metrics.global_p2p_bytes == graph.p2p_bytes()

    def test_prefetch_helps_or_ties(self, small_server, toy_decomposed,
                                    toy_profiles, toy_config):
        with_prefetch = execute(small_server, toy_decomposed, toy_profiles,
                                toy_config, prefetch=True)
        without = execute(small_server, toy_decomposed, toy_profiles,
                          toy_config, prefetch=False)
        assert with_prefetch.iteration_time <= without.iteration_time * 1.001

    def test_throughput_definition(self, small_server, toy_decomposed,
                                   toy_profiles, toy_config):
        metrics = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        assert metrics.throughput == pytest.approx(
            8 / metrics.iteration_time
        )

    def test_cpu_updates_tracked(self, small_server, toy_decomposed,
                                 toy_profiles, toy_config):
        metrics = execute(small_server, toy_decomposed, toy_profiles,
                          toy_config, offload_optimizer=True)
        assert sum(g.cpu_busy for g in metrics.gpus) > 0

    def test_gpu_updates_on_compute_stream(self, small_server, toy_decomposed,
                                           toy_profiles, toy_config):
        offloaded = execute(small_server, toy_decomposed, toy_profiles,
                            toy_config, offload_optimizer=True)
        on_gpu = execute(small_server, toy_decomposed, toy_profiles,
                         toy_config, offload_optimizer=False)
        assert sum(g.compute_busy for g in on_gpu.gpus) > (
            sum(g.compute_busy for g in offloaded.gpus)
        )

    def test_dp_mode_runs(self, small_server, toy_decomposed, toy_profiles,
                          toy_config):
        metrics = execute(small_server, toy_decomposed, toy_profiles,
                          toy_config, mode="dp")
        assert metrics.iteration_time > 0
        # Both replicas compute a similar share.
        busy = [g.compute_busy for g in metrics.gpus]
        assert max(busy) < 1.5 * min(busy)

    def test_host_oom_raises(self, small_server, toy_decomposed, toy_profiles,
                             toy_config):
        from repro.common.errors import HostOutOfMemoryError

        graph = HarmonyGraphBuilder(
            toy_profiles, 2, 8, ScheduleOptions(mode="pp")
        ).build(toy_config)
        sim = Simulator()
        server = SimulatedServer(sim, small_server)
        time_model = TrueTimeModel(KernelTimes(toy_decomposed,
                                               small_server.gpu),
                                   small_server.host, 2)
        executor = Executor(server, time_model,
                            host_state_bytes=small_server.host.memory_bytes * 2)
        with pytest.raises(HostOutOfMemoryError):
            executor.run(graph)

    def test_peak_resident_tracked(self, small_server, toy_decomposed,
                                   toy_profiles, toy_config):
        metrics = execute(small_server, toy_decomposed, toy_profiles, toy_config)
        assert all(g.peak_resident_bytes > 0 for g in metrics.gpus)
        # With double buffering at most two planned task footprints live.
        assert all(
            g.peak_resident_bytes <= 2.1 * CAPACITY + 2**20
            for g in metrics.gpus
        )
