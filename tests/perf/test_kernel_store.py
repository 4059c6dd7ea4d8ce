"""The shared true-kernel-time store against a naive oracle.

``KernelTimes`` keeps per-layer kernel times in a process-wide store
(``repro.runtime.timemodel._STORE``), and ``TrueTimeModel`` per-instance
pack sums over them.  The oracle is the naive computation: a fresh left-to-right sum of
``LayerUnit.run_time`` over the pack's layers, compared by ``float.hex``
for every pack of every bench-zoo plan at the benchmark's warm-up size --
with the store cold and warm.  The store's key must keep different GPUs and seeds apart, and the store must
stay within its size bound.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, OrderedDict

import pytest

from repro.core.decomposer import Decomposer, LayerUnit
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.types import Task, TaskKind
from repro.experiments.common import server_for
from repro.graph.layer import Phase
from repro.models.zoo import build_model
from repro.runtime import timemodel
from repro.runtime.timemodel import KernelTimes, TrueTimeModel

#: The bench zoo (``bench/workloads.py``): every model x mode x GPU count.
MODELS = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416", "resnet1k")
COMBOS = tuple(
    (model, mode, gpus)
    for model in MODELS for mode in ("pp", "dp") for gpus in (4, 8)
)


def warmup_minibatch(mode: str, gpus: int) -> int:
    """The bench's warm-up (and ``simulate``) minibatch of a combo."""
    return 8 if mode == "pp" else gpus * 2


@pytest.fixture(scope="module")
def zoo_plans():
    plans = []
    for model, mode, gpus in COMBOS:
        server = server_for(gpus)
        harmony = Harmony(model, server, warmup_minibatch(mode, gpus),
                          options=HarmonyOptions(mode=mode))
        plans.append((server, harmony.plan()))
    return plans


@pytest.fixture
def cold_store(monkeypatch):
    store: OrderedDict = OrderedDict()
    monkeypatch.setattr(timemodel, "_STORE", store)
    return store


def naive_pack_time(units, gpu, phase: Phase, u: int, layers) -> float:
    total = 0.0
    for i in layers:
        total += units[i].run_time(gpu, phase, u)
    return total


def naive_task_times(units, gpu, task) -> list[float]:
    """What the Runtime must charge each microbatch (or the GPU update)."""
    def pack(phase: Phase, u: int) -> float:
        return naive_pack_time(units, gpu, phase, u, task.layers)

    if task.kind is TaskKind.UPD:
        return [pack(Phase.UPD, 1)]
    if task.kind is TaskKind.FWD:
        return [pack(Phase.FWD, u) for u in task.microbatches]
    if task.fused or task.recompute:
        return [pack(Phase.FWD, u) + pack(Phase.BWD, u)
                for u in task.microbatches]
    return [pack(Phase.BWD, u) for u in task.microbatches]


def model_task_times(time_model: TrueTimeModel, task) -> list[float]:
    if task.kind is TaskKind.UPD:
        return [time_model.update_time(task)]
    return [time_model.microbatch_time(task, u) for u in task.microbatches]


def _hexes(values: list[float]) -> list[str]:
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("arm", ["cold", "warm"])
def test_every_zoo_pack_equals_the_naive_sum(arm, zoo_plans, cold_store):
    checked = 0
    for server, plan in zoo_plans:
        units = plan.decomposed.units
        rounds = 2 if arm == "warm" else 1
        for _ in range(rounds):  # warm: a second instance over a full store
            time_model = TrueTimeModel(KernelTimes(plan.decomposed,
                                                   server.gpu),
                                       server.host, n_gpus=server.n_gpus)
            for task in plan.graph.tasks:
                if task.kind is TaskKind.UPD and task.on_cpu:
                    continue
                assert _hexes(model_task_times(time_model, task)) == \
                    _hexes(naive_task_times(units, server.gpu, task)), \
                    (plan.decomposed.model.name, task.label)
                checked += 1
    assert checked >= 400  # tasks, over all 24 plans
    # One model and GPU per entry: the six zoo models on one GPU type.
    assert len(cold_store) == len(MODELS)


def _count_run_time(monkeypatch) -> Counter:
    counts: Counter = Counter()
    original = LayerUnit.run_time

    def counted(self, *args):
        counts["run_time"] += 1
        return original(self, *args)

    monkeypatch.setattr(LayerUnit, "run_time", counted)
    return counts


def test_two_harmony_instances_share_entries(cold_store, monkeypatch):
    server = server_for(2)
    first = Harmony("toy-transformer", server, 8,
                    options=HarmonyOptions(mode="pp"))
    plan = first.plan()
    counts = _count_run_time(monkeypatch)
    report = first.run(plan=plan, iterations=1)
    assert counts["run_time"] > 0
    assert len(cold_store) == 1

    counts.clear()
    second = Harmony("toy-transformer", server, 8,
                     options=HarmonyOptions(mode="pp"))
    again = second.run(plan=second.plan(), iterations=1)
    assert second.plan() is not plan
    assert counts["run_time"] == 0, "the second instance must hit the store"
    assert len(cold_store) == 1
    assert float.hex(again.metrics.iteration_time) == \
        float.hex(report.metrics.iteration_time)


def test_different_gpus_and_seeds_never_share(cold_store):
    server = server_for(2)
    model = build_model("toy-transformer")
    base = Decomposer(seed=0).decompose(model)
    task = Task(tid=0, kind=TaskKind.FWD, first_layer=0,
                last_layer=base.n_layers - 1, device=0, microbatches=(2,))
    faster = dataclasses.replace(server.gpu,
                                 peak_flops=2 * server.gpu.peak_flops)

    def pack_time(decomposed, gpu) -> float:
        time_model = TrueTimeModel(KernelTimes(decomposed, gpu), server.host,
                                   n_gpus=2)
        return time_model.microbatch_time(task, 2)

    times = {
        pack_time(base, server.gpu),
        pack_time(Decomposer(seed=1).decompose(model), server.gpu),
        pack_time(base, faster),
    }
    assert len(times) == 3
    assert len(cold_store) == 3
    assert len({id(rows) for rows in cold_store.values()}) == 3
    # The same content under a fresh decomposition is the same entry.
    assert pack_time(Decomposer(seed=0).decompose(model), server.gpu) in times
    assert len(cold_store) == 3


def test_store_stays_within_its_bound(cold_store, monkeypatch):
    monkeypatch.setattr(timemodel, "KERNEL_STORE_SIZE", 3)
    server = server_for(2)
    model = build_model("toy-transformer")
    keys = []
    for seed in range(5):
        decomposed = Decomposer(seed=seed).decompose(model)
        KernelTimes(decomposed, server.gpu)
        assert len(cold_store) <= 3
        keys.append(next(reversed(cold_store)))
    assert list(cold_store) == keys[2:]
    # A hit refreshes the entry: seed 2 is now the most recent.
    KernelTimes(Decomposer(seed=2).decompose(model), server.gpu)
    assert list(cold_store) == [keys[3], keys[4], keys[2]]
