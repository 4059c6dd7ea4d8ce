"""Exact work counts for one plan and one run: the tier-1 perf gate.

A wall-clock gate on a shared machine has to tolerate tens of percent of
noise, so it misses the regressions that matter here: a lost memo, an
extra validation pass, a spurious engine event.  Those all change a
*count*, and counts are deterministic.  For three small zoo cases this
suite pins, exactly:

- one ``Harmony.plan()`` builds (and so validates) one graph: the winner;
- ``HarmonyGraphBuilder.assemble`` runs once, for that build: candidates
  are scored on the builder's schedule records, never on a task graph;
- ``HarmonyGraphBuilder.records`` runs once per search candidate, plus
  once for the winner's graph, and a second ``plan()`` is a memo hit;
- a second ``Harmony`` on the same problem takes the search from the
  process-wide search store: no search, no packing request, no time
  table, one records/assemble/build/validate for its own winner graph
  and the memory prefixes that graph's task footprints read;
- the number of candidates Algorithm 1 enumerates;
- the per-(phase, microbatch size) time tables and memory prefixes one
  ``plan()`` builds, each once, however many packs and candidates are
  timed and sized from it;
- the Algorithm 2 packings one cold ``plan()`` computes, and that a
  second ``Harmony`` on the same model, at a new minibatch and GPU
  count, computes only packings the first did not: the packing table is
  shared per profiled model;
- the ``LayerProfile.act_out_bytes`` calls one ``plan()`` makes:
  Algorithm 2's pack-count lower bound reads a per-sample prefix, not
  one call per layer per forced tail and microbatch size;
- the ``TrueTimeModel.microbatch_time`` calls the estimator makes in
  one cold ``plan()``: one per distinct microbatch size of each task
  shape, not one per microbatch; and its ``ModelProfiles.memo`` calls:
  the emitter reads footprints and update FLOPs off its own memo, not
  one memo call per emitted task, and a forward task and a recomputing
  backward task over the same layers share one fitted span time;
- the ``Simulator.steps`` one simulated iteration drains; an ``AllOf``
  takes a hop only for its final countdown (or a failure), never one
  per constituent;
- the ``LayerUnit.run_time`` calls (true kernel times) the first run of
  a plan draws, one per layer per (phase, microbatch size) it runs, and
  that a second run from a new ``Harmony`` draws none: the kernel-time
  store is shared across runs;
- the interval unions one ``analyze_trace`` merges over a traced gpt2
  iteration: one per device figure that spans two lanes (swap in and
  out, p2p in and out); every other figure reads one lane's union as
  the recorder kept it, and no event is scanned;
- that every traced bench warm-up run adds each tracked span to its
  lane's union in end-time order: no span needs an out-of-order
  insertion;
- that a traced gpt2 iteration whose only reader is its analytics
  builds no ``TraceEvent``: the recorder keeps raw rows and builds the
  events when (and each time) they are read;
- that a fleet storm simulates each served plan key once and verifies
  each (plan, binding) pair once, and that a second ``PlannerService``
  on the same storm does that same work again: only searches are shared
  across services, so a rerun compares two real simulations and
  analyses.

It also holds the estimator's drift from the simulated iteration time
under a ceiling per case, so the cost model may get closer to the
Runtime but never further from it.

A deliberate change to the search or the Runtime moves these numbers on
purpose; re-measure and update ``CASES`` in the same change.  Wall-clock
speed is measured by the repository benchmark under ``bench/``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.core import packing
from repro.core.decomposer import LayerUnit
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import LayerProfile, ModelProfiles
from repro.core.search import ConfigurationSearch
from repro.core.taskgraph import HarmonyGraphBuilder
from repro.core.types import TaskGraph
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer, fleet_of
from repro.runtime.executor import Executor
from repro.runtime.timemodel import TrueTimeModel
from repro.service import PlannerService, ServiceConfig, scripted_workload
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder, analytics
from repro.trace import recorder as recorder_module


@dataclass(frozen=True)
class Case:
    model: str
    mode: str
    gpus: int
    minibatch: int
    #: ``n_feasible + n_infeasible`` of the search: the schedules scored
    #: from records, each without a task graph.
    candidates: int
    #: Time tables one ``plan()`` builds.
    time_tables: int
    #: Memory prefixes one ``plan()`` builds.
    mem_prefixes: int
    #: Memory prefixes a plan that takes the stored search builds for
    #: its winner graph's task footprints (it builds no time table).
    winner_prefixes: int
    #: ``_balanced_time_packing`` runs of one cold ``plan()``.
    packings: int
    #: Those of a second ``Harmony`` on the model at twice the GPUs and
    #: twice the minibatch.
    warm_packings: int
    #: ``LayerProfile.act_out_bytes`` calls made by one ``plan()``.
    act_outs: int
    #: ``TrueTimeModel.microbatch_time`` calls made by one cold ``plan()``.
    mb_times: int
    #: ``ModelProfiles.memo`` calls made by one cold ``plan()``.
    memo_calls: int
    #: ``Simulator.steps`` drained by ``run(plan=..., iterations=1)``.
    steps: int
    #: ``LayerUnit.run_time`` calls made by that run, kernel store cold.
    kernel_times: int
    #: Ceiling on ``|best_estimate - iteration_time| / iteration_time``.
    max_drift: float


CASES = (
    Case("toy-transformer", "pp", 2, 8,
         candidates=48, time_tables=8, mem_prefixes=8, winner_prefixes=2,
         packings=20, warm_packings=22, act_outs=9, mb_times=24,
         memo_calls=120,
         steps=427, kernel_times=25, max_drift=0.39),
    Case("tiny-cnn", "dp", 2, 8,
         candidates=9, time_tables=6, mem_prefixes=3, winner_prefixes=1,
         packings=6, warm_packings=0, act_outs=2, mb_times=3,
         memo_calls=26,
         steps=157, kernel_times=26, max_drift=0.17),
    Case("gpt2", "pp", 4, 32,
         candidates=68, time_tables=12, mem_prefixes=12, winner_prefixes=2,
         packings=65, warm_packings=28, act_outs=243, mb_times=323,
         memo_calls=2287,
         steps=5233, kernel_times=152, max_drift=0.02),
)

#: ``analytics._union`` calls one ``analyze_trace`` makes over a traced
#: gpt2 pp x4 mb32 iteration (1,782 events) that merge two or more lanes:
#: one per device, for its swap-in and swap-out lanes.
TRACED_GPT2_MERGES = 4

#: (model, mode, gpus, minibatch) of the bench's warm-up problems
#: (``bench/workloads.py``), each run for two iterations there.
BENCH_WARMUPS = tuple(
    (model, mode, gpus, 8 if mode == "pp" else gpus * 2)
    for model in ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                  "resnet1k")
    for mode in ("pp", "dp") for gpus in (4, 8)
)


by_case = pytest.mark.parametrize(
    "case", CASES,
    ids=lambda c: f"{c.model}-{c.mode}-x{c.gpus}-mb{c.minibatch}",
)


def _count_calls(monkeypatch, counts: Counter, cls: type, name: str) -> None:
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def _count_tables(monkeypatch, counts: Counter) -> None:
    """Count the per-(phase, u) time tables (``"times"``) and memory
    prefixes (``"memp"``) built."""
    memo = ModelProfiles.memo

    def counted(self, key, compute):
        if key[0] in ("times", "memp") and key not in self._memo:
            counts[key[0]] += 1
        return memo(self, key, compute)

    monkeypatch.setattr(ModelProfiles, "memo", counted)


def _record_requests(monkeypatch) -> list:
    """The key of every packing Algorithm 2 asks the shared table for,
    hit or miss, in call order."""
    requested: list = []
    shared = ModelProfiles.packing

    def recorded(self, key, compute):
        requested.append(key)
        return shared(self, key, compute)

    monkeypatch.setattr(ModelProfiles, "packing", recorded)
    return requested


def _record_packings(monkeypatch) -> list:
    """The key of every packing Algorithm 2 computes, in call order."""
    keys: list = []
    original = packing._balanced_time_packing

    def recorded(phase, u, profiles, capacity, forced_tail, min_packs):
        keys.append(("btp", phase, u, capacity, forced_tail, min_packs))
        return original(phase, u, profiles, capacity, forced_tail, min_packs)

    monkeypatch.setattr(packing, "_balanced_time_packing", recorded)
    return keys


@by_case
def test_plan_and_run_do_exact_work(case, monkeypatch, cold_stores):
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "build")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "assemble")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "records")
    _count_calls(monkeypatch, counts, TaskGraph, "validate")
    _count_tables(monkeypatch, counts)
    _count_calls(monkeypatch, counts, ModelProfiles, "memo")
    _count_calls(monkeypatch, counts, TrueTimeModel, "microbatch_time")
    _count_calls(monkeypatch, counts, LayerProfile, "act_out_bytes")
    packings = _record_packings(monkeypatch)
    simulators: list[Simulator] = []
    original_init = Simulator.__init__

    def init(self):
        original_init(self)
        simulators.append(self)

    monkeypatch.setattr(Simulator, "__init__", init)

    harmony = Harmony(case.model, server_for(case.gpus), case.minibatch,
                      options=HarmonyOptions(mode=case.mode))
    plan = harmony.plan()
    search = plan.search
    assert search.n_feasible + search.n_infeasible == case.candidates
    expected = {"build": 1, "validate": 1, "assemble": 1,
                "records": case.candidates + 1, "times": case.time_tables,
                "memp": case.mem_prefixes,
                "act_out_bytes": case.act_outs,
                "microbatch_time": case.mb_times,
                "memo": case.memo_calls}
    assert counts == expected, (
        "one plan() must assemble, build and validate only the winner, "
        "emit each candidate's records once, build each time table and "
        "memory prefix once, read the lower bound off prefixes, time "
        "each microbatch size of a task shape once and read footprints "
        "and update FLOPs off the builder's memo"
    )
    assert len(packings) == len(set(packings)) == case.packings
    assert harmony.plan() is plan
    assert counts == expected, "a second plan() must be a memo hit"
    assert len(packings) == case.packings

    kernel_counts: Counter = Counter()
    _count_calls(monkeypatch, kernel_counts, LayerUnit, "run_time")
    report = harmony.run(plan=plan, iterations=1)
    iteration_time = report.metrics.iteration_time
    assert len(simulators) == 1
    assert simulators[0].steps == case.steps
    assert kernel_counts == {"run_time": case.kernel_times}
    kernel_counts.clear()
    rerun = Harmony(case.model, server_for(case.gpus), case.minibatch,
                    options=HarmonyOptions(mode=case.mode))
    rerun.run(plan=plan, iterations=1)
    assert kernel_counts == {}, (
        "a second run of the plan must take every kernel time from the "
        "store"
    )
    assert simulators[1].steps == case.steps
    drift = (search.best_estimate - iteration_time) / iteration_time
    assert abs(drift) <= case.max_drift, (
        f"estimator drift {drift:+.3f} exceeds the ceiling "
        f"{case.max_drift} for {case.model} {case.mode}"
    )


@by_case
def test_second_harmony_takes_the_stored_search(case, monkeypatch,
                                                 cold_stores):
    def fresh() -> Harmony:
        return Harmony(case.model, server_for(case.gpus), case.minibatch,
                       options=HarmonyOptions(mode=case.mode))

    plan = fresh().plan()
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, ConfigurationSearch, "search")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "build")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "assemble")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "records")
    _count_calls(monkeypatch, counts, TaskGraph, "validate")
    _count_tables(monkeypatch, counts)
    requested = _record_requests(monkeypatch)
    packings = _record_packings(monkeypatch)
    again = fresh().plan()
    assert counts == {"build": 1, "validate": 1, "assemble": 1,
                      "records": 1, "memp": case.winner_prefixes}, (
        "a stored search must not search again or build a time table; "
        "only the winner graph and its footprints' prefixes are built"
    )
    assert requested == packings == [], \
        "a stored search must not ask for a packing, stored or not"
    assert again.search is plan.search
    assert again.graph is not plan.graph


@by_case
def test_second_model_plan_packs_only_new_keys(case, monkeypatch,
                                               cold_stores):
    """A second ``Harmony`` on the model at a new minibatch and GPU count
    takes every packing the first plan computed from the shared table."""
    packings = _record_packings(monkeypatch)
    first = Harmony(case.model, server_for(case.gpus), case.minibatch,
                    options=HarmonyOptions(mode=case.mode)).plan()
    cold = set(packings)
    assert len(packings) == len(cold) == case.packings
    requested = _record_requests(monkeypatch)
    packings.clear()
    second = Harmony(case.model, server_for(2 * case.gpus),
                     2 * case.minibatch,
                     options=HarmonyOptions(mode=case.mode)).plan()
    assert second.profiles._entry is first.profiles._entry
    assert len(packings) == len(set(packings)) == case.warm_packings
    assert not cold & set(packings), \
        "a packing the first plan computed was computed again"
    assert cold & set(requested), "the second plan took no stored packing"


def test_traced_run_analytics_do_exact_work(monkeypatch):
    counts: Counter = Counter()
    union = analytics._union

    def counted_union(tracks):
        counts["union"] += len(tracks) > 1
        return union(tracks)

    analyze = analytics.analyze_trace

    def counted_analyze(*args, **kwargs):
        counts["analyze"] += 1
        return analyze(*args, **kwargs)

    monkeypatch.setattr(analytics, "_union", counted_union)
    monkeypatch.setattr("repro.trace.analyze_trace", counted_analyze)
    harmony = Harmony("gpt2", server_for(4), 32,
                      options=HarmonyOptions(mode="pp"))
    recorder = TraceRecorder()
    report = harmony.run(iterations=1, trace=recorder)
    assert len(recorder) == 1782
    assert report.metrics.trace.link_contention
    assert counts == {"analyze": 1, "union": TRACED_GPT2_MERGES}, (
        "analyze_trace must merge only the figures that span two lanes"
    )


def test_traced_run_builds_events_only_when_read(monkeypatch):
    built: Counter = Counter()
    new_event = recorder_module._new_event

    def counted_new_event(cls, fields):
        built[cls.__name__] += 1
        return new_event(cls, fields)

    monkeypatch.setattr(recorder_module, "_new_event", counted_new_event)
    harmony = Harmony("gpt2", server_for(4), 16,
                      options=HarmonyOptions(mode="pp"))
    recorder = TraceRecorder()
    report = harmony.run(iterations=1, trace=recorder)
    assert report.metrics.trace.n_events == len(recorder) > 0
    assert built == {}, "recording or analytics built a TraceEvent"
    events = recorder.events
    assert built == {"TraceEvent": len(recorder)} == {"TraceEvent":
                                                       len(events)}


def test_traced_bench_runs_keep_every_lane_in_end_time_order(monkeypatch):
    out_of_order: Counter = Counter()
    insert = recorder_module._insert

    def counted_insert(track, t0, t1):
        if track and t1 < track[-1]:
            out_of_order[(t0, t1)] += 1
        return insert(track, t0, t1)

    monkeypatch.setattr(recorder_module, "_insert", counted_insert)
    spans = 0
    for model, mode, gpus, minibatch in BENCH_WARMUPS:
        recorder = TraceRecorder()
        Harmony(model, server_for(gpus), minibatch,
                options=HarmonyOptions(mode=mode)).run(iterations=2,
                                                       trace=recorder)
        spans += sum(e.kind == "span" and e.cat in recorder_module.TRACKED
                     for e in recorder.events)
    assert spans > 0
    assert not out_of_order, "a tracked span arrived out of end-time order"


def test_each_service_runs_and_verifies_each_key_once(monkeypatch):
    requests = scripted_workload(30, seed=1, gpus=(2, 4), shares=(1.0, 0.5),
                                 execute_fraction=0.5)
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, Executor, "run")
    bind = FleetPlacer.bind

    def counted_bind(self, reservation, plan):
        counts["verified_bind"] += 1
        return bind(self, reservation, plan)

    monkeypatch.setattr(FleetPlacer, "bind", counted_bind)

    def storm() -> PlannerService:
        service = PlannerService(ServiceConfig(workers=3),
                                 fleet=FleetPlacer(fleet_of(1, 4)))
        service.run(requests)
        return service

    first = storm()
    run_keys = {r.plan_key for r in first.results if r.run_seconds > 0}
    assert run_keys and first.fleet_bounds
    expected = {"run": len(run_keys), "verified_bind": len(first.fleet_bounds)}
    assert counts == expected, (
        "a storm must simulate each run key and verify each "
        "(plan, binding) pair once"
    )
    counts.clear()
    second = storm()
    assert counts == expected, (
        "a second service must simulate and verify again, not reuse "
        "another service's results"
    )
    assert second.metrics.snapshot() == first.metrics.snapshot()
