"""Differential oracles for the planner's two hottest loops.

Algorithm 2 and the Runtime Estimator's timeline walk are written for
speed: the pack-count lower bound reads two int prefixes, the quantile
split bisects a list of running sums, the refine step skips cuts whose
neighbourhood has not changed, and the estimator works out each move's
dependencies, transfer time and lane once rather than once per
microbatch chunk.  All of them promise the exact results of the
straightforward code they replaced, which is kept here as naive
references:

- :func:`naive_essential_bytes` is the per-layer residency the lower
  bound once summed layer by layer;
- :func:`numpy_split` is the quantile split over numpy's ``cumsum``,
  ``searchsorted`` and ``clip``;
- :func:`naive_refine` re-examines every cut on every sweep over a numpy
  prefix;
- :class:`NaiveEstimator` walks every chunk of every move, resolves each
  chunk's dependency on its own, and sums task times layer by layer.

The lower bound is compared on the bench zoo and both toy models, and
the running sums with ``float.hex`` on every time table of those models.
The split and refine step are compared on seeded random prefixes (ties,
zero-time layers, one dominant layer, every pack count); the estimator
by ``float.hex`` on every candidate graph of the search-pin problems,
with all optimizations on and with each one ablated.

The per-``(phase, u)`` time tables and memory prefixes are built from
the fits' intercept and slope columns; they must equal per-layer
``LayerProfile.time`` and ``LayerProfile.memory`` calls for ``u`` in
1..64 on the zoo and on a synthetic profile whose negative intercepts
reach both clamps.  Algorithm 2's packings live in one table per
profiled model, shared by every plan of it: after a zoo sweep every
entry must equal a fresh packing of its key (an infeasible one its
message, never an exception object), and varying each argument through
one shared table must return what private profiles compute.

The search scores candidates on the graph builder's flat schedule
records and builds a task graph only for the winner.  On the same
problems and arms, every candidate's record-scored estimate must equal
the estimate of the graph built from those records, and the records
must be exactly what that graph reads back as.  The builder's memo of
candidate-independent moves lives for one search: nothing a plan keeps
may hold it.
"""

import gc
import weakref
from collections import OrderedDict
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest

from repro.common.errors import InfeasibleConfigError
from repro.common.rng import seeded_rng
from repro.core import harmony, profiler
from repro.core.config import Pack, packs_from_boundaries
from repro.core.decomposer import Decomposer
from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.packing import (
    _balanced_time_packing,
    _refine_boundaries,
    _split_packs,
    balanced_time_packing,
)
from repro.core.profiler import AffineFit, LayerProfile, ModelProfiles, Profiler
from repro.core.search import ConfigurationSearch
from repro.core.taskgraph import HarmonyGraphBuilder, mb_dependency
from repro.core.types import Channel, TaskKind, TaskRecord
from repro.core.waits import PER_TASK_TENSORS
from repro.experiments.common import server_for
from repro.graph.layer import Phase
from repro.models.zoo import build_model

#: The six bench zoo models and both toy models.
ZOO = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416", "resnet1k",
       "toy-transformer", "tiny-cnn")


def _profiles(model):
    server = server_for(4)
    decomposed = Decomposer(seed=HarmonyOptions().seed) \
        .decompose(build_model(model))
    return Profiler(server.gpu).profile(decomposed)


# -- Algorithm 2 lower bound and quantile split ----------------------------------


def naive_essential_bytes(profiles, phase, layer, u):
    """The residency one layer adds to the pack-count lower bound."""
    params = profiles[layer].param_bytes
    if phase is Phase.FWD:
        return params
    return 2 * params + profiles[layer].act_out_bytes(u)


@pytest.mark.parametrize("model", ZOO)
def test_essential_bytes_match_per_layer_sums(model):
    profiles = _profiles(model)
    for phase in (Phase.FWD, Phase.BWD):
        for u in range(1, 17):
            expected = 0
            assert profiles.essential_bytes(phase, 0, u) == 0
            for n in range(1, len(profiles) + 1):
                expected += naive_essential_bytes(profiles, phase, n - 1, u)
                assert profiles.essential_bytes(phase, n, u) == expected, \
                    (phase, u, n)


@pytest.mark.parametrize("model", ZOO)
def test_running_sums_match_numpy_cumsum(model):
    """``accumulate`` is the sequential fold ``np.cumsum`` is, so the two
    agree bit for bit on every time table; a slice's running sums are a
    prefix of the table's, for both."""
    profiles = _profiles(model)
    for phase in (Phase.FWD, Phase.BWD):
        for u in range(1, 17):
            times = profiles.layer_times(phase, u)
            expected = np.cumsum(np.asarray(times, dtype=float)).tolist()
            assert [t.hex() for t in accumulate(times)] == \
                [t.hex() for t in expected], (phase, u)


def numpy_split(prefix: list[float], n_packs: int):
    """The quantile split over a numpy prefix, then the refine step."""
    n_layers = len(prefix)
    if n_packs == 1:
        return (Pack(0, n_layers - 1),)
    array = np.asarray(prefix, dtype=float)
    targets = np.arange(1, n_packs) * (array[-1] / n_packs)
    cuts = np.searchsorted(array, targets, side="left") + 1
    cuts = np.clip(cuts, 1, n_layers - 1)
    boundaries = [0] + sorted(set(int(c) for c in cuts))
    if len(boundaries) != n_packs:
        return None
    return packs_from_boundaries(_refine_boundaries(prefix, boundaries),
                                 n_layers)


@pytest.mark.parametrize("shape", ["random", "ties", "zeros", "dominant"])
@pytest.mark.parametrize("seed", range(10))
def test_bisect_split_matches_numpy(shape, seed):
    rng = seeded_rng(seed, f"split-oracle-{shape}")
    n_layers = rng.randrange(1, 60)
    prefix = list(accumulate(_layer_times(rng, shape, n_layers)))
    for n_packs in range(1, n_layers + 1):
        assert _split_packs(prefix, n_packs) == \
            numpy_split(prefix, n_packs), n_packs


# -- Algorithm 2 refine ----------------------------------------------------------


def naive_refine(prefix: np.ndarray, boundaries: list[int]) -> list[int]:
    """Sweep every cut until a whole sweep moves none."""
    n_layers = len(prefix)

    def pack_time(first: int, last_exclusive: int) -> float:
        left = prefix[first - 1] if first > 0 else 0.0
        return float(prefix[last_exclusive - 1] - left)

    improved = True
    while improved:
        improved = False
        for i in range(1, len(boundaries)):
            lo = boundaries[i - 1] + 1
            hi = boundaries[i + 1] - 1 if i + 1 < len(boundaries) else n_layers - 1
            cur = boundaries[i]
            left_first = boundaries[i - 1]
            right_end = boundaries[i + 1] if i + 1 < len(boundaries) else n_layers
            best_cut, best_cost = cur, max(
                pack_time(left_first, cur), pack_time(cur, right_end)
            )
            for cut in (cur - 1, cur + 1):
                if not lo <= cut <= hi:
                    continue
                cost = max(pack_time(left_first, cut), pack_time(cut, right_end))
                if cost < best_cost - 1e-12:
                    best_cut, best_cost = cut, cost
            if best_cut != cur:
                boundaries[i] = best_cut
                improved = True
    return boundaries


def _layer_times(rng, shape: str, n_layers: int) -> list[float]:
    if shape == "ties":
        levels = [rng.choice((1e-3, 2e-3, 4e-3)) for _ in range(3)]
        return [rng.choice(levels) for _ in range(n_layers)]
    times = [rng.uniform(1e-4, 5e-3) for _ in range(n_layers)]
    if shape == "zeros":
        for i in rng.sample(range(n_layers), n_layers // 2):
            times[i] = 0.0
    elif shape == "dominant":
        times[rng.randrange(n_layers)] = 100 * sum(times)
    return times


@pytest.mark.parametrize("shape", ["random", "ties", "zeros", "dominant"])
@pytest.mark.parametrize("seed", range(10))
def test_refine_matches_full_sweeps(shape, seed):
    rng = seeded_rng(seed, f"refine-oracle-{shape}")
    n_layers = rng.randrange(2, 40)
    prefix = np.cumsum(np.asarray(_layer_times(rng, shape, n_layers)))
    for n_packs in range(2, n_layers + 1):
        for _ in range(3):
            cuts = sorted(rng.sample(range(1, n_layers), n_packs - 1))
            boundaries = [0] + cuts
            expected = naive_refine(prefix, list(boundaries))
            assert _refine_boundaries(prefix.tolist(), list(boundaries)) \
                == expected, (n_packs, boundaries)


# -- coefficient-column tables -------------------------------------------------


def _synthetic_profiles():
    """Fits with negative intercepts and slopes of both signs, so both
    clamps run inside ``u`` in 1..64."""
    layers = []
    for i in range(12):
        sign = -1.0 if i % 4 == 3 else 1.0
        layers.append(LayerProfile(
            index=i, name=f"synthetic{i}", param_bytes=4096 * (i + 1),
            time_fwd=AffineFit(-1e-3 * (i + 1), sign * 1.1e-4),
            time_bwd=AffineFit(0.1 - 0.03 * i, sign * 3.3e-3 * (i % 3)),
            time_upd=1e-4 * i,
            mem_fwd=AffineFit(-2.5e6 * (i + 1) + 0.3, sign * 1.7e5),
            mem_bwd=AffineFit(1e6 - 4e5 * i, sign * 9.9e4 * (i % 5)),
            act_in_per_sample=1024, act_out_per_sample=1024,
        ))
    return ModelProfiles(layers, optimizer_slots=2,
                         gpu=server_for(4).gpu)


@pytest.mark.parametrize("model", ZOO + ("synthetic",))
def test_column_tables_match_per_layer_calls(model):
    """Every time table equals per-layer ``LayerProfile.time`` calls by
    ``float.hex`` and every memory prefix the per-layer
    ``LayerProfile.memory`` sums, for ``u`` in 1..64."""
    profiles = _synthetic_profiles() if model == "synthetic" \
        else _profiles(model)
    layers = profiles.layers
    clamped = [0, 0]  # (time, memory) entries below zero before the clamp
    for u in range(1, 65):
        assert profiles.layer_times(Phase.UPD, u) == \
            tuple(layer.time(Phase.UPD, u) for layer in layers), u
        for phase in (Phase.FWD, Phase.BWD):
            assert [t.hex() for t in profiles.layer_times(phase, u)] == \
                [layer.time(phase, u).hex() for layer in layers], (phase, u)
            assert profiles._mem_prefix(phase, u) == list(accumulate(
                (layer.memory(phase, u) for layer in layers), initial=0)), \
                (phase, u)
            fits = ((layer.time_fwd, layer.mem_fwd) if phase is Phase.FWD
                    else (layer.time_bwd, layer.mem_bwd) for layer in layers)
            for time, memory in fits:
                clamped[0] += time(u) < 0.0
                clamped[1] += int(memory(u)) < 0
    if model == "synthetic":
        assert min(clamped) > 100, "the synthetic fits must reach both clamps"


# -- the packing table shared per profiled model ---------------------------------


@pytest.fixture(scope="module")
def zoo_sweep():
    """Plan the bench zoo (every model, mode and GPU count) at two
    minibatch sizes from cold stores: ``{entry: profiles}`` for every
    profile-store entry the sweep filled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiler, "_STORE", OrderedDict())
        mp.setattr(harmony, "_SEARCHES", OrderedDict())
        swept = {}
        for model in ZOO[:6]:
            for mode in ("pp", "dp"):
                for gpus in (4, 8):
                    for step in (0, 1):
                        minibatch = 8 + step if mode == "pp" \
                            else gpus * (2 + step)
                        plan = Harmony(model, server_for(gpus), minibatch,
                                       HarmonyOptions(mode=mode)).plan()
                        swept.setdefault(plan.profiles._entry, plan.profiles)
        assert list(swept) == list(profiler._STORE.values())
        yield swept


def test_shared_packings_match_fresh_packings(zoo_sweep):
    """Every stored packing -- written by any plan of the model -- is what
    a fresh ``_balanced_time_packing`` on fresh profiles returns for its
    key, and an infeasible one stores that packing's message."""
    outcomes = set()
    for entry, profiles in zoo_sweep.items():
        fresh = ModelProfiles(profiles.layers, profiles.optimizer_slots,
                              profiles.gpu)
        assert fresh._entry is not entry and not fresh._entry.packings
        for key, stored in entry.packings.items():
            _, phase, u, capacity, tail, min_packs = key
            try:
                expected = (True, _balanced_time_packing(
                    phase, u, fresh, capacity, tail, min_packs))
            except InfeasibleConfigError as exc:
                expected = (False, str(exc))
            assert stored == expected, key
            outcomes.add(stored[0])
    assert outcomes == {True, False}


def test_packing_table_holds_no_exception(zoo_sweep):
    """A stored exception's traceback would keep a plan's frames alive as
    long as the store entry: entries are packs or a message."""
    for entry in zoo_sweep:
        assert entry.packings
        for ok, value in entry.packings.values():
            if ok:
                assert type(value) is tuple
                assert all(type(pack) is Pack for pack in value)
            else:
                assert type(value) is str


@pytest.mark.parametrize("model", ("toy-transformer", "tiny-cnn", "gpt2"))
def test_packing_table_key_holds_every_argument(model, cold_stores):
    """Through one shared table, vary each argument of
    ``balanced_time_packing`` in turn: every call returns what private
    profiles compute, and each varied argument changes some result."""
    shared = _profiles(model)
    n = len(shared)
    whole = shared.pack_memory(Phase.BWD, Pack(0, n - 1), 8)
    capacities = (whole, whole // 3, whole // 9)
    tail = balanced_time_packing(Phase.BWD, 2, shared, whole // 3)
    grid = [(phase, u, capacity, tails, min_packs)
            for phase in (Phase.FWD, Phase.BWD)
            for u in (1, 2, 8)
            for capacity in capacities
            for tails in (None, tail)
            for min_packs in (1, 3)]
    results = {}
    for args in grid:
        phase, u, capacity, tails, min_packs = args
        private = ModelProfiles(shared.layers, shared.optimizer_slots,
                                shared.gpu)
        outcome = []
        for profiles in (shared, private):
            try:
                outcome.append(balanced_time_packing(
                    phase, u, profiles, capacity, backward_packs=tails,
                    min_packs=min_packs))
            except InfeasibleConfigError as exc:
                outcome.append(str(exc))
        assert outcome[0] == outcome[1], args
        results[args] = outcome[0]
    for position in range(len(grid[0])):
        varied = {}
        for args, result in results.items():
            rest = args[:position] + args[position + 1:]
            varied.setdefault(rest, set()).add(result)
        assert any(len(seen) > 1 for seen in varied.values()), position


# -- Runtime Estimator ----------------------------------------------------------

class _TaskTimes(NamedTuple):
    mb_done: list[float]
    done: float
    outs_flushed: float


class NaiveEstimator(RuntimeEstimator):
    """The estimator walked chunk by chunk, with per-layer time sums
    (memoized per task shape, as the estimator always has), one
    ``_TaskTimes`` per task and every update timed on its own call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._naive_times = {}

    def mb_time(self, task, u):
        key = (task.kind, task.first_layer, task.last_layer, u,
               task.fused or task.recompute)
        if key not in self._naive_times:
            self._naive_times[key] = self._layer_sum(task, u)
        return self._naive_times[key]

    def _layer_sum(self, task, u):
        layers = task.layers
        if task.kind is TaskKind.FWD:
            return sum(self.profiles[i].time(Phase.FWD, u) for i in layers)
        bwd = sum(self.profiles[i].time(Phase.BWD, u) for i in layers)
        if task.fused or task.recompute:
            bwd += sum(self.profiles[i].time(Phase.FWD, u) for i in layers)
        return bwd

    def update_time(self, task, n_gpus):
        if task.on_cpu:
            host = self.server.host
            cores = max(1, host.cores // max(1, n_gpus))
            return host.optimizer_time(task.compute_flops, cores)
        return sum(self.profiles[i].time(Phase.UPD, 1) for i in task.layers)

    def estimate(self, graph):
        self._naive_dep_maps = {}
        self._producer_sizes = {
            task.tid: task.microbatches for task in graph.tasks
        }
        n = graph.n_devices
        compute_free = [0.0] * n
        swap_in_free = [0.0] * n
        swap_out_free = [0.0] * n
        p2p_free = [0.0] * n
        cpu_free = [0.0] * n
        prev_compute_done = [0.0] * n

        times = []
        finish = 0.0

        for task in graph.tasks:
            d = task.device
            if task.kind is TaskKind.UPD:
                tt = self._estimate_update(task, times, cpu_free, compute_free)
                times.append(tt)
                finish = max(finish, tt.outs_flushed)
                continue

            fetch_floor = 0.0 if self.prefetch else prev_compute_done[d]

            state_bytes = 0
            state_dep = 0.0
            for move in task.ins:
                if move.tensor not in PER_TASK_TENSORS:
                    continue
                if move.src_task is not None:
                    state_dep = max(state_dep, times[move.src_task].outs_flushed)
                if move.channel is not Channel.LOCAL:
                    state_bytes += move.nbytes
            start = max(swap_in_free[d], state_dep, fetch_floor)
            state_ready = start + state_bytes / self._swap_bw
            swap_in_free[d] = state_ready

            mbs = task.microbatches
            input_ready = [state_ready] * len(mbs)
            for move in task.ins:
                if move.tensor in PER_TASK_TENSORS:
                    continue
                chunk = move.nbytes / len(mbs) if mbs else 0.0
                for i in range(len(mbs)):
                    dep = self._chunk_dep(move, task, i, times)
                    if move.channel is Channel.LOCAL:
                        input_ready[i] = max(input_ready[i], dep)
                        continue
                    lane = p2p_free if move.channel is Channel.P2P else swap_in_free
                    begin = max(lane[d], dep, fetch_floor)
                    end = begin + self._xfer(move, int(chunk))
                    lane[d] = end
                    input_ready[i] = max(input_ready[i], end)

            mb_done = []
            for i, u in enumerate(mbs):
                begin = max(compute_free[d], input_ready[i])
                end = begin + self.mb_time(task, u)
                compute_free[d] = end
                mb_done.append(end)
            done = mb_done[-1]
            prev_compute_done[d] = done

            outs_flushed = done
            for move in task.outs:
                if move.channel is Channel.LOCAL or move.nbytes == 0:
                    continue
                if move.tensor in PER_TASK_TENSORS:
                    begin = max(swap_out_free[d], done)
                    end = begin + self._xfer(move, move.nbytes)
                else:
                    chunk = move.nbytes / len(mbs)
                    end = swap_out_free[d]
                    for i in range(len(mbs)):
                        begin = max(end, mb_done[i])
                        end = begin + self._xfer(move, int(chunk))
                swap_out_free[d] = end
                outs_flushed = max(outs_flushed, end)

            times.append(_TaskTimes(mb_done, done, outs_flushed))
            finish = max(finish, outs_flushed)

        return finish

    def _chunk_dep(self, move, task, mb_index, times):
        if move.src_task is None:
            return 0.0
        producer = times[move.src_task]
        if move.channel is Channel.SWAP:
            return producer.outs_flushed
        src_sizes = self._producer_sizes[move.src_task]
        if sum(src_sizes) != task.group_samples:
            return producer.done
        dep_key = (src_sizes, task.microbatches)
        dep_map = self._naive_dep_maps.get(dep_key)
        if dep_map is None:
            dep_map = self._naive_dep_maps[dep_key] = tuple(
                mb_dependency(src_sizes, task.microbatches)
            )
        return producer.mb_done[dep_map[mb_index]]

    def _estimate_update(self, task: TaskRecord, times: list[_TaskTimes],
                         cpu_free: list[float], compute_free: list[float]) -> _TaskTimes:
        d = task.device
        dep = 0.0
        for move in task.ins:
            if move.src_task is not None:
                dep = max(dep, times[move.src_task].outs_flushed)
        duration = self.update_time(task, n_gpus=len(cpu_free))
        if task.on_cpu:
            begin = max(cpu_free[d], dep)
            end = begin + duration
            cpu_free[d] = end
        else:
            swap_bytes = sum(
                m.nbytes for m in task.ins if m.channel.via_host
            )
            out_bytes = sum(
                m.nbytes for m in task.outs if m.channel.via_host
            )
            begin = max(compute_free[d], dep + swap_bytes / self._swap_bw)
            end = begin + duration + out_bytes / self._swap_bw
            compute_free[d] = end
        return _TaskTimes([end], end, end)


#: The search-pin problems: (model, mode, gpus, minibatch).
PROBLEMS = (
    ("gpt2", "pp", 4, 32),
    ("vgg416", "pp", 4, 16),
    ("resnet1k", "pp", 8, 16),
    ("bert-large", "dp", 4, 16),
    ("vgg416", "dp", 4, 16),
)
ABLATIONS = (None, "prefetch", "grouping", "p2p", "jit", "offload_optimizer")


def _search(problem, ablation) -> ConfigurationSearch:
    model, mode, gpus, minibatch = problem
    options = HarmonyOptions(mode=mode)
    if ablation is not None:
        options = options.without(ablation)
    server = server_for(gpus)
    decomposed = Decomposer(seed=options.seed).decompose(build_model(model))
    profiles = Profiler(server.gpu).profile(decomposed)
    return ConfigurationSearch(profiles, server, minibatch,
                               options.schedule_options(),
                               options.search_settings())


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a or "all-on")
@pytest.mark.parametrize(
    "problem", PROBLEMS, ids=lambda p: f"{p[0]}-{p[1]}-x{p[2]}-mb{p[3]}",
)
def test_estimator_matches_chunk_walk(problem, ablation):
    search = _search(problem, ablation)
    naive = NaiveEstimator(search.profiles, search.server,
                           prefetch=search.options.prefetch)
    compared = 0
    for config in search._enumerate_candidates():
        try:
            graph = search.builder.assemble(config)
        except InfeasibleConfigError:
            continue
        assert search.estimator.estimate(graph).hex() == \
            naive.estimate(graph).hex(), config.describe()
        compared += 1
    assert compared


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a or "all-on")
@pytest.mark.parametrize(
    "problem", PROBLEMS, ids=lambda p: f"{p[0]}-{p[1]}-x{p[2]}-mb{p[3]}",
)
def test_record_scores_match_built_graphs(problem, ablation):
    """Scoring a candidate's records is scoring the graph built from them.

    The graph is made by the path ``build`` takes (``assemble``), with a
    fresh builder, so the search builder's memo state cannot leak in."""
    search = _search(problem, ablation)
    fresh = HarmonyGraphBuilder(search.profiles, search.server.n_gpus,
                                search.minibatch, search.options)
    compared = 0
    for config in search._enumerate_candidates():
        try:
            records = search.builder.records(config)
        except InfeasibleConfigError:
            continue
        graph = fresh.assemble(config)
        assert [TaskRecord.of(task) for task in graph.tasks] == records, \
            config.describe()
        assert search.estimator.estimate(records).hex() == \
            search.estimator.estimate(graph).hex(), config.describe()
        compared += 1
    assert compared


@pytest.mark.parametrize("mode", ("pp", "dp"))
def test_plan_holds_no_builder_memo(mode, monkeypatch, cold_stores):
    """Every builder's memo is freed once ``plan()`` returns: the plan
    keeps its profiles, search result and graph, never the memo."""
    memos = []
    init = HarmonyGraphBuilder.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memos.append(weakref.ref(self._memo))

    monkeypatch.setattr(HarmonyGraphBuilder, "__init__", tracked)
    plan = Harmony("gpt2", server_for(4), 16,
                   options=HarmonyOptions(mode=mode)).plan()
    gc.collect()
    assert len(memos) == 2, "one builder for the search, one for the winner"
    assert plan.search.explored and plan.graph.tasks
    assert all(ref() is None for ref in memos), \
        "a builder memo outlived plan()"
