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
  process-wide search store: no search, no ``LayerProfile.time`` call,
  and one records/assemble/build/validate for its own winner graph;
- the number of candidates Algorithm 1 enumerates;
- the ``LayerProfile.time`` calls one ``plan()`` makes: one per layer
  per (phase, microbatch size) time table, however many packs and
  candidates are timed from it;
- the ``LayerProfile.act_out_bytes`` calls one ``plan()`` makes:
  Algorithm 2's pack-count lower bound reads a per-sample prefix, not
  one call per layer per forced tail and microbatch size;
- the ``Simulator.steps`` one simulated iteration drains; an ``AllOf``
  takes a hop only for its final countdown (or a failure), never one
  per constituent;
- the ``LayerUnit.run_time`` calls (true kernel times) the first run of
  a plan draws, one per layer per (phase, microbatch size) it runs, and
  that a second run from a new ``Harmony`` draws none: the kernel-time
  store is shared across runs;
- the interval unions one ``analyze_trace`` makes over a traced gpt2
  iteration: one per (device, track) and one per link, not one per
  (waiting transfer, link) pair;
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

from repro.core.decomposer import LayerUnit
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.profiler import LayerProfile
from repro.core.search import ConfigurationSearch
from repro.core.taskgraph import HarmonyGraphBuilder
from repro.core.types import TaskGraph
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer, fleet_of
from repro.runtime.executor import Executor
from repro.service import PlannerService, ServiceConfig, scripted_workload
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder, analytics


@dataclass(frozen=True)
class Case:
    model: str
    mode: str
    gpus: int
    minibatch: int
    #: ``n_feasible + n_infeasible`` of the search: the schedules scored
    #: from records, each without a task graph.
    candidates: int
    #: ``LayerProfile.time`` calls made by one ``plan()``.
    layer_times: int
    #: ``LayerProfile.act_out_bytes`` calls made by one ``plan()``.
    act_outs: int
    #: ``Simulator.steps`` drained by ``run(plan=..., iterations=1)``.
    steps: int
    #: ``LayerUnit.run_time`` calls made by that run, kernel store cold.
    kernel_times: int
    #: Ceiling on ``|best_estimate - iteration_time| / iteration_time``.
    max_drift: float


CASES = (
    Case("toy-transformer", "pp", 2, 8,
         candidates=48, layer_times=80, act_outs=9, steps=427,
         kernel_times=25, max_drift=0.39),
    Case("tiny-cnn", "dp", 2, 8,
         candidates=9, layer_times=78, act_outs=2, steps=157,
         kernel_times=26, max_drift=0.17),
    Case("gpt2", "pp", 4, 32,
         candidates=68, layer_times=624, act_outs=243, steps=5233,
         kernel_times=152, max_drift=0.02),
)

#: ``analytics._union`` calls one ``analyze_trace`` makes over a traced
#: gpt2 pp x4 mb32 iteration (1,782 events).
TRACED_GPT2_UNIONS = 42


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


@by_case
def test_plan_and_run_do_exact_work(case, monkeypatch, cold_stores):
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "build")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "assemble")
    _count_calls(monkeypatch, counts, HarmonyGraphBuilder, "records")
    _count_calls(monkeypatch, counts, TaskGraph, "validate")
    _count_calls(monkeypatch, counts, LayerProfile, "time")
    _count_calls(monkeypatch, counts, LayerProfile, "act_out_bytes")
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
                "records": case.candidates + 1, "time": case.layer_times,
                "act_out_bytes": case.act_outs}
    assert counts == expected, (
        "one plan() must assemble, build and validate only the winner, "
        "emit each candidate's records once, time each layer once per "
        "time table and read the lower bound off prefixes"
    )
    assert harmony.plan() is plan
    assert counts == expected, "a second plan() must be a memo hit"

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
    _count_calls(monkeypatch, counts, LayerProfile, "time")
    again = fresh().plan()
    assert counts == {"build": 1, "validate": 1, "assemble": 1,
                      "records": 1}, (
        "a stored search must not search or time a layer again; only the "
        "winner graph is built"
    )
    assert again.search is plan.search
    assert again.graph is not plan.graph


def test_traced_run_analytics_do_exact_work(monkeypatch):
    counts: Counter = Counter()
    union = analytics._union

    def counted_union(intervals):
        counts["union"] += 1
        return union(intervals)

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
    assert counts == {"analyze": 1, "union": TRACED_GPT2_UNIONS}, (
        "analyze_trace must union each track and each link once"
    )


def test_each_service_runs_and_verifies_each_key_once(monkeypatch):
    requests = scripted_workload(30, seed=1, gpus=(2, 4), shares=(1.0, 0.5),
                                 execute_fraction=0.5)
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, Executor, "run")
    bind = FleetPlacer.bind

    def counted_bind(self, reservation, plan, *, verify=True):
        if verify:
            counts["verified_bind"] += 1
        return bind(self, reservation, plan, verify=verify)

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
