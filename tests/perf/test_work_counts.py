"""Exact work counts for one plan and one run: the tier-1 perf gate.

A wall-clock gate on a shared machine has to tolerate tens of percent of
noise, so it misses the regressions that matter here: a lost memo, an
extra validation pass, a spurious engine event.  Those all change a
*count*, and counts are deterministic.  For three small zoo cases this
suite pins, exactly:

- one ``Harmony.plan()`` builds (and so validates) one graph: the winner;
- ``HarmonyGraphBuilder.assemble`` runs once, for that build: candidates
  are scored on the tasks the builder emits, never on a task graph, and
  the winner graph holds the very task list its ``records`` call
  returned (no task or move is copied);
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
  shape, not one per microbatch; and its ``ModelProfiles.span_time``
  calls: a forward task and a recomputing backward task over the same
  layers share one fitted span time;
- the memo-table fills one cold ``plan()`` makes, over the profiles'
  time and memory tables and the builders' schedule memos: each key is
  filled once however often it is read, so a table that refilled per
  lookup would move the count;
- the ``Simulator.steps`` one simulated iteration drains; an ``AllOf``
  takes a hop only for its final countdown (or a failure), never one
  per constituent;
- the ``Process`` and ``SimEvent`` objects that iteration builds
  (subclasses included in the ``SimEvent`` count): a stream runs its ops
  inside its drain, not one process per op, and a free
  ``Resource.request()`` returns its resource's one fired event;
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
- that a fleet storm simulates each served plan key once, analyzes
  each plan it certifies by relabel once (a same-count injective bind
  runs no pass of its own), fully re-analyzes each time-slice (plan,
  binding) pair once, and that a second ``PlannerService`` on the same
  storm does that same work again: only searches are shared across
  services, so a rerun compares two real simulations and analyses;
- that the two storms together digest each ``DeviceBinding`` shape
  once: every reservation of one ``(share, width, n_logical)`` shares
  one binding and its cached fingerprint, so a certify call's memo key
  is a lookup, not a digest.
- that a fleet storm builds at most one ``Fraction`` per
  ``FleetPlacer.reserve`` call (its share) and none anywhere else in the
  placer: placement, release and the service's occupancy reads are
  integer arithmetic on capacity units.

It also holds the estimator's drift from the simulated iteration time
under a ceiling per case, so the cost model may get closer to the
Runtime but never further from it.

A deliberate change to the search or the Runtime moves these numbers on
purpose; re-measure and update ``CASES`` in the same change.  Wall-clock
speed is measured by the repository benchmark under ``bench/``.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.core import packing
from repro.core.decomposer import LayerUnit
from repro.core.harmony import Harmony, HarmonyOptions, HarmonyPlan
from repro.core.profiler import FittedModel, LayerProfile, ModelProfiles, _Table
from repro.core.search import ConfigurationSearch
from repro.core.taskgraph import HarmonyGraphBuilder
from repro.core.types import TaskGraph
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer, fleet_of
from repro.fleet import placer as placer_module
from repro.runtime.executor import Executor
from repro.runtime.timemodel import TrueTimeModel
from repro.service import PlannerService, ServiceConfig, scripted_workload
from repro.sim.engine import Process, SimEvent, Simulator
from repro.trace import TraceRecorder, analytics
from repro.trace import recorder as recorder_module
from repro.virt import devices as devices_module


@dataclass(frozen=True)
class Case:
    model: str
    mode: str
    gpus: int
    minibatch: int
    #: ``n_feasible + n_infeasible`` of the search: the schedules scored
    #: from emitted tasks, each without a task graph.
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
    #: ``ModelProfiles.span_time`` calls made by one cold ``plan()``.
    span_times: int
    #: Memo-table (``_Table``) fills made by one cold ``plan()``.
    table_fills: int
    #: ``Simulator.steps`` drained by ``run(plan=..., iterations=1)``.
    steps: int
    #: ``Process`` objects that run builds.
    processes: int
    #: ``SimEvent`` objects that run builds, ``Process``, ``Timeout``
    #: and ``AllOf`` included.
    events: int
    #: ``LayerUnit.run_time`` calls made by that run, kernel store cold.
    kernel_times: int
    #: Ceiling on ``|best_estimate - iteration_time| / iteration_time``.
    max_drift: float


CASES = (
    Case("toy-transformer", "pp", 2, 8,
         candidates=48, time_tables=8, mem_prefixes=8, winner_prefixes=2,
         packings=20, warm_packings=22, act_outs=9, mb_times=24,
         span_times=32, table_fills=40,
         steps=427, processes=12, events=250, kernel_times=25,
         max_drift=0.39),
    Case("tiny-cnn", "dp", 2, 8,
         candidates=9, time_tables=6, mem_prefixes=3, winner_prefixes=1,
         packings=6, warm_packings=0, act_outs=2, mb_times=3,
         span_times=6, table_fills=21,
         steps=157, processes=9, events=114, kernel_times=26,
         max_drift=0.17),
    Case("gpt2", "pp", 4, 32,
         candidates=68, time_tables=12, mem_prefixes=12, winner_prefixes=2,
         packings=65, warm_packings=28, act_outs=243, mb_times=323,
         span_times=396, table_fills=412,
         steps=5233, processes=63, events=2416, kernel_times=152,
         max_drift=0.02),
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


def _count_made(monkeypatch, counts: Counter, cls: type) -> None:
    """Count the ``cls`` objects built, by class name; a subclass's
    ``super().__init__`` counts it under ``cls`` too."""
    original = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def _count_tables(monkeypatch, counts: Counter) -> None:
    """Count the per-(phase, u) time tables (``"times"``) and memory
    prefixes (``"memp"``) built."""
    for name, key in (("layer_times", "times"), ("mem_prefix", "memp")):
        build = getattr(FittedModel, name)

        def counted(self, phase, u, build=build, key=key):
            counts[key] += 1
            return build(self, phase, u)

        monkeypatch.setattr(FittedModel, name, counted)


def _count_fills(monkeypatch, counts: Counter) -> None:
    """Count the keys every memo table fills (``"fills"``)."""
    fill = _Table.__missing__

    def counted(self, key):
        counts["fills"] += 1
        return fill(self, key)

    monkeypatch.setattr(_Table, "__missing__", counted)


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
    _count_fills(monkeypatch, counts)
    _count_calls(monkeypatch, counts, ModelProfiles, "span_time")
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
                "span_time": case.span_times, "fills": case.table_fills}
    assert counts == expected, (
        "one plan() must assemble, build and validate only the winner, "
        "emit each candidate's records once, build each time table and "
        "memory prefix once, read the lower bound off prefixes, time "
        "each microbatch size of a task shape once, share span times "
        "and fill each memo table key once"
    )
    assert len(packings) == len(set(packings)) == case.packings
    assert harmony.plan() is plan
    assert counts == expected, "a second plan() must be a memo hit"
    assert len(packings) == case.packings

    kernel_counts: Counter = Counter()
    _count_calls(monkeypatch, kernel_counts, LayerUnit, "run_time")
    made: Counter = Counter()
    _count_made(monkeypatch, made, SimEvent)
    _count_made(monkeypatch, made, Process)
    report = harmony.run(plan=plan, iterations=1)
    iteration_time = report.metrics.iteration_time
    assert len(simulators) == 1
    assert simulators[0].steps == case.steps
    assert kernel_counts == {"run_time": case.kernel_times}
    built = {"Process": case.processes, "SimEvent": case.events}
    assert made == built, (
        "a stream op must run inside its drain, not as a process, and a "
        "free grant must not build an event"
    )
    kernel_counts.clear()
    made.clear()
    rerun = Harmony(case.model, server_for(case.gpus), case.minibatch,
                    options=HarmonyOptions(mode=case.mode))
    rerun.run(plan=plan, iterations=1)
    assert kernel_counts == {}, (
        "a second run of the plan must take every kernel time from the "
        "store"
    )
    assert simulators[1].steps == case.steps
    assert made == built
    drift = (search.best_estimate - iteration_time) / iteration_time
    assert abs(drift) <= case.max_drift, (
        f"estimator drift {drift:+.3f} exceeds the ceiling "
        f"{case.max_drift} for {case.model} {case.mode}"
    )


@by_case
def test_winner_graph_holds_the_emitted_tasks(case, monkeypatch,
                                              cold_stores):
    emitted: list = []
    records = HarmonyGraphBuilder.records

    def recorded(self, config):
        emitted.append(records(self, config))
        return emitted[-1]

    monkeypatch.setattr(HarmonyGraphBuilder, "records", recorded)
    plan = Harmony(case.model, server_for(case.gpus), case.minibatch,
                   options=HarmonyOptions(mode=case.mode)).plan()
    assert len(emitted) == case.candidates + 1
    assert plan.graph.tasks is emitted[-1], (
        "assemble must put the emitted task list into the graph as is"
    )
    assert all(task.tid == tid for tid, task in enumerate(plan.graph.tasks))


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
    _count_calls(monkeypatch, counts, FleetPlacer, "bind")
    analyze = HarmonyPlan.analyze

    def counted_analyze(self, graph=None, **kwargs):
        counts["plan_analysis" if graph is None else "bind_analysis"] += 1
        return analyze(self, graph, **kwargs)

    monkeypatch.setattr(HarmonyPlan, "analyze", counted_analyze)
    # The binding digests and certify calls both storms make; the
    # shared bindings start cold, so no earlier test's shapes hide one.
    work: Counter = Counter()
    placer_module._binding.cache_clear()
    digest = devices_module.fingerprint

    def counted_digest(*parts):
        work["binding_digests"] += 1
        return digest(*parts)

    monkeypatch.setattr(devices_module, "fingerprint", counted_digest)
    certify = PlannerService._certify
    certified: list = []

    def recorded_certify(self, record, reservation):
        work["_certify"] += 1
        binding = reservation.binding()
        if binding.fingerprint not in record.verdicts:
            certified.append((record, record.plan, binding))
        return certify(self, record, reservation)

    monkeypatch.setattr(PlannerService, "_certify", recorded_certify)
    shapes: set = set()

    def storm() -> PlannerService:
        certified.clear()
        service = PlannerService(ServiceConfig(workers=3),
                                 fleet=FleetPlacer(fleet_of(1, 4)))
        results = service.run(requests)
        shapes.update((r.share, r.n_devices, r.n_logical)
                      for r in (result.reservation for result in results)
                      if r is not None)
        return service

    first = storm()
    records = [first.cache.get(key) for key in
               {r.plan_key for r in first.results if r.plan_key}]
    assert None not in records, "the storm evicts no plan"
    run_records = [rec for rec in records if rec.run_seconds is not None]
    assert {rec.key for rec in run_records} == \
        {r.plan_key for r in first.results if r.run_seconds > 0}
    # The memo misses, in order: each plan object certified by relabel
    # is analyzed once, each time-slice pair bound once.
    relabeled = {id(plan) for _record, plan, binding in certified
                 if binding.is_permutation}
    full = [pair for pair in certified if not pair[2].is_permutation]
    assert run_records and len(full) == 2
    assert sum(len(rec.verdicts) for rec in records) \
        == len(certified) < work["_certify"]
    assert len(relabeled) < len(certified) - len(full)
    expected = {"run": len(run_records), "plan_analysis": len(relabeled),
                "bind": len(full), "bind_analysis": len(full)}
    assert counts == expected, (
        "a storm must simulate each live record once, analyze each plan "
        "it certifies by relabel once (none per bind), and fully verify "
        "each time-slice (plan, binding) pair once"
    )
    counts.clear()
    second = storm()
    assert counts == expected, (
        "a second service must simulate and verify again, not reuse "
        "another service's results"
    )
    assert second.metrics.snapshot() == first.metrics.snapshot()
    assert 0 < work["binding_digests"] <= len(shapes) < work["_certify"], (
        "the storms must digest each binding shape at most once, not "
        "once per certify call"
    )


def test_fleet_storm_builds_a_fraction_only_for_each_reserved_share(
        monkeypatch):
    requests = scripted_workload(30, seed=1, gpus=(2, 4), shares=(1.0, 0.5),
                                 execute_fraction=0.5)
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, FleetPlacer, "reserve")
    _count_calls(monkeypatch, calls, FleetPlacer, "release")
    made: Counter = Counter()
    fraction = placer_module.Fraction

    def counted_fraction(*args):
        made[sys._getframe(1).f_code.co_name] += 1
        return fraction(*args)

    monkeypatch.setattr(placer_module, "Fraction", counted_fraction)
    service = PlannerService(ServiceConfig(workers=3),
                             fleet=FleetPlacer(fleet_of(1, 4)))
    service.run(requests)
    assert calls["reserve"] and calls["release"]
    assert service.metrics.fleet_gpu_seconds > 0
    assert set(made) <= {"reserve"} and made["reserve"] <= calls["reserve"], (
        f"Fractions built by caller: {dict(made)}; placement, release "
        f"and the service's occupancy reads must stay integer"
    )
