"""Tests for the ground-truth time model."""

import pytest

from repro.common.floats import ordered_sum
from repro.core.types import Task, TaskKind
from repro.graph.layer import Phase
from repro.runtime.timemodel import KernelTimes, TrueTimeModel


@pytest.fixture
def time_model(toy_decomposed, small_server):
    return TrueTimeModel(KernelTimes(toy_decomposed, small_server.gpu),
                         small_server.host, n_gpus=small_server.n_gpus)


def make_task(kind, first=1, last=3, fused=False, recompute=True,
              on_cpu=False, flops=0.0, microbatches=(2, 2)):
    return Task(tid=0, kind=kind, first_layer=first, last_layer=last,
                device=0, microbatches=microbatches, fused=fused,
                recompute=recompute, on_cpu=on_cpu, compute_flops=flops)


#: Layer spans sharing first or last layers, so a table keyed on less than
#: the whole span returns a neighbour's time.
SPANS = ((1, 3), (1, 2), (0, 3), (2, 3), (2, 2))


def _layer_sum(decomposed, gpu, task, phase, u):
    return ordered_sum(decomposed.units[i].run_time(gpu, phase, u)
                       for i in task.layers)


class TestMicrobatchTime:
    def test_pack_times_are_the_per_layer_sums(self, time_model,
                                               toy_decomposed, small_server):
        for _ in range(2):  # the second pass hits the tables
            for first, last in SPANS:
                for u in (1, 2, 5):
                    fwd = make_task(TaskKind.FWD, first, last)
                    bwd = make_task(TaskKind.BWD, first, last,
                                    recompute=False)
                    for task, phase in ((fwd, Phase.FWD), (bwd, Phase.BWD)):
                        expected = _layer_sum(toy_decomposed,
                                              small_server.gpu, task, phase, u)
                        assert time_model.microbatch_time(task, u).hex() \
                            == expected.hex()

    def test_bwd_with_recompute_costs_fwd_plus_bwd(self, time_model):
        plain = make_task(TaskKind.BWD, recompute=False)
        remat = make_task(TaskKind.BWD, recompute=True)
        fwd = make_task(TaskKind.FWD)
        assert time_model.microbatch_time(remat, 2) == (
            time_model.microbatch_time(plain, 2)
            + time_model.microbatch_time(fwd, 2)
        )

    def test_fused_equals_recompute_cost(self, time_model):
        fused = make_task(TaskKind.BWD, fused=True, recompute=False)
        remat = make_task(TaskKind.BWD, fused=False, recompute=True)
        assert time_model.microbatch_time(fused, 2) == (
            time_model.microbatch_time(remat, 2)
        )

    def test_update_task_rejected_here(self, time_model):
        with pytest.raises(ValueError):
            time_model.microbatch_time(make_task(TaskKind.UPD), 1)


class TestUpdateTime:
    def test_cpu_update_uses_host_model(self, time_model, small_server):
        task = make_task(TaskKind.UPD, on_cpu=True, flops=1e9)
        cores = small_server.host.cores // small_server.n_gpus
        assert time_model.update_time(task) == pytest.approx(
            small_server.host.optimizer_time(1e9, cores)
        )

    def test_gpu_update_sums_layer_times(self, time_model, toy_decomposed,
                                         small_server):
        """Bit for bit the per-layer sum, for spans that share a first or
        a last layer."""
        # The second pass hits the tables.
        for _ in range(2):
            for first, last in SPANS:
                task = make_task(TaskKind.UPD, first, last)
                expected = _layer_sum(toy_decomposed, small_server.gpu,
                                      task, Phase.UPD, 1)
                assert expected > 0
                assert time_model.update_time(task).hex() == expected.hex()

    def test_non_update_rejected(self, time_model):
        with pytest.raises(ValueError):
            time_model.update_time(make_task(TaskKind.FWD))


class TestTaskTotal:
    def test_group_sums_microbatches(self, time_model):
        task = make_task(TaskKind.FWD, microbatches=(3, 2, 1))
        per_mb = [time_model.microbatch_time(task, u) for u in (3, 2, 1)]
        assert time_model.task_compute_time(task) == ordered_sum(per_mb)
