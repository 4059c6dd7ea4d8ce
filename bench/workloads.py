"""The benchmark's workloads: problem catalogue, timed ops and their facts.

Every workload is a closed loop with one client: ops run one after another
in passes, and every pass of a workload covers a fixed set of cases.  The
run seed only permutes the order of a pass, so runs at different seeds do
the same work and their wall-clock spread measures the host, not the
inputs (a seed-drawn catalogue moved the metrics by 15-20% between seeds).

- ``plan-zoo``   -- a fresh ``Harmony(...).plan()`` per op.  Pass ``k``
  gives every (model, mode, GPUs) combo its own minibatch, rotated so no
  planning problem repeats within the ``SIZE_STEPS - 1`` timed passes a
  run may have (nor with the warm-up); a cross-instance plan memo
  therefore cannot make the workload cheaper, profile sharing can.
- ``simulate``   -- ``Harmony.run(plan, iterations=2)`` on plans built in
  set-up; the planner is bypassed.
- ``simulate-traced`` -- the same op with a ``TraceRecorder`` attached.
- ``serve-fleet`` -- one chaos request storm through a fleet-backed
  ``PlannerService`` per op; the only workload that reaches admission,
  the plan cache, placement, bind certification and planner retries.

Correctness facts are exact (``float.hex``, byte counts, outcome digests)
and are compared against ``golden.json`` (see ``make_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

MODELS = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416", "resnet1k")
COMBOS = tuple(
    (model, mode, gpus)
    for model in MODELS for mode in ("pp", "dp") for gpus in (4, 8)
)
#: Minibatch sizes per combo.  Step 0 is the warm-up and ``simulate``
#: size; timed ``plan-zoo`` passes rotate through steps 1..6.
SIZE_STEPS = 7

#: ``serve-fleet`` storms, one pass = one storm of each seed.  With a
#: 240 s arrival window 8-18% of each storm's requests get no plan and
#: the degraded (stale, baseline) rungs are not reached; a 120 s window
#: reaches them once or twice but sheds about 40% at a full queue.
STORM_SEEDS = (0, 1, 2, 3)
STORM_REQUESTS = 200
STORM_DURATION = 240.0
STORM_MODELS = ("toy-transformer", "tiny-cnn", "gpt2-medium", "bert-large")

ITERATIONS = 2


def minibatch(combo: tuple, step: int) -> int:
    """Minibatch of ``combo`` at size ``step``: 8..14 samples per pipeline
    for pp, 2..8 samples per GPU for dp.  Chosen small enough that a
    24-op pass plans in a few seconds (the paper's 16..64 sizes take
    ~18 s a pass, too long for repeated runs)."""
    _, mode, gpus = combo
    return 8 + step if mode == "pp" else gpus * (2 + step)


def problem_key(combo: tuple, mb: int) -> str:
    model, mode, gpus = combo
    return f"{model}|{mode}|{gpus}|{mb}"


def warmup_problems() -> list[tuple]:
    return [(combo, minibatch(combo, 0)) for combo in COMBOS]


def plan_zoo_pass(k: int) -> list[tuple]:
    """The problems of timed ``plan-zoo`` pass ``k`` (Latin rotation)."""
    steps = SIZE_STEPS - 1
    return [
        (combo, minibatch(combo, 1 + (k + i) % steps))
        for i, combo in enumerate(COMBOS)
    ]


def pass_order(seed: int, k: int, n: int) -> list[int]:
    """The seeded order in which pass ``k`` visits its ``n`` cases."""
    order = list(range(n))
    random.Random(f"bench-order:{seed}:{k}").shuffle(order)
    return order


def load_golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


# -- facts -------------------------------------------------------------------


def plan_facts(plan: Any) -> dict:
    """Exact facts of a plan, or of the typed error planning raised."""
    if isinstance(plan, Exception):
        return {"error": type(plan).__name__}
    config = plan.config
    fwd = ",".join(str(p) for p in config.packs_f)
    bwd = ",".join(str(p) for p in config.packs_b)
    return {
        "config": f"U_F={config.u_f} P_F={fwd} U_B={config.u_b} P_B={bwd}",
        "estimate": float.hex(plan.search.best_estimate),
        "n_tasks": len(plan.graph),
    }


def run_facts(metrics: Any) -> dict:
    return {
        "iteration_time": float.hex(metrics.iteration_time),
        "swap_bytes": metrics.global_swap_bytes,
        "p2p_bytes": metrics.global_p2p_bytes,
    }


def storm_facts(service: Any, results: list) -> dict:
    body = json.dumps({
        "snapshot": service.metrics.snapshot(),
        "outcomes": [r.outcome.value for r in results],
    }, sort_keys=True)
    return {
        "digest": hashlib.sha256(body.encode()).hexdigest(),
        "no_plan": sum(1 for r in results if not r.outcome.carries_plan),
    }


def facts_digest(records: list["Checked"]) -> str:
    body = json.dumps(sorted((r.key, r.facts) for r in records),
                      sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Checked:
    """One op's verdict and the deterministic values the metrics need."""

    key: str
    facts: dict
    ok: bool
    problem: str = ""
    #: user-level units the op served (requests for serve-fleet) and
    #: how many of them carried a plan / completed a run
    units: int = 1
    units_ok: int = 1
    #: simulated samples/s and virtual latencies the op produced
    throughputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    #: |estimate - simulated| / simulated (simulate workloads only)
    drift: Optional[float] = None


def _harmony(case: tuple) -> Any:
    from repro.core.harmony import Harmony, HarmonyOptions
    from repro.experiments.common import server_for

    (model, mode, gpus), mb = case
    return Harmony(model, server_for(gpus), mb, HarmonyOptions(mode=mode))


def _planned(case: tuple) -> tuple:
    harmony = _harmony(case)
    return harmony, harmony.plan()


def _expect(key: str, facts: dict, golden: Optional[dict]) -> tuple[bool, str]:
    if golden is None:
        return False, f"{key}: no golden facts (regenerate golden.json)"
    if facts != golden:
        return False, f"{key}: facts {facts} != golden {golden}"
    return True, ""


# -- workloads ---------------------------------------------------------------


def untimed(fn: Callable[[], Any]) -> Any:
    return fn()


class Workload:
    """Base: ``setup`` builds inputs and warms up; ``op`` is what is timed;
    ``check`` turns an op's result into a :class:`Checked` verdict."""

    name = ""

    def __init__(self, golden: dict):
        self.golden = golden

    def pass_cases(self, k: int) -> list:
        """The cases of timed pass ``k``; empty once the catalogue is
        used up."""
        raise NotImplementedError

    def setup(self, step: Callable[[Callable[[], Any]], Any] = untimed
              ) -> list[str]:
        """(Re)build the inputs and run one warm-up pass (not counted as
        timed ops); returns the problems found.  All of the work runs in
        calls ``step(fn)``, which return ``fn()`` and let the caller time
        each piece."""
        raise NotImplementedError

    def op(self, case: Any) -> Any:
        raise NotImplementedError

    def check(self, case: Any, result: Any, deep: bool = False) -> Checked:
        raise NotImplementedError

    def _warm_up(self, cases: list, step: Callable) -> list[str]:
        problems = []
        for case in cases:
            checked = self.check(case, step(partial(self.op, case)))
            if not checked.ok:
                problems.append(checked.problem)
        return problems


class PlanZoo(Workload):
    name = "plan-zoo"

    def pass_cases(self, k: int) -> list:
        return plan_zoo_pass(k) if k < SIZE_STEPS - 1 else []

    def setup(self, step: Callable = untimed) -> list[str]:
        return self._warm_up(warmup_problems(), step)

    def op(self, case: tuple) -> Any:
        from repro.common.errors import ReproError

        try:
            return _harmony(case).plan()
        except ReproError as exc:
            return exc

    def check(self, case: tuple, result: Any, deep: bool = False) -> Checked:
        key = problem_key(*case)
        facts = plan_facts(result)
        ok, problem = _expect(key, facts, self.golden["plan"].get(key))
        planned = not isinstance(result, Exception)
        checked = Checked(key, facts, ok, problem, units_ok=int(planned))
        if planned:
            estimate = result.search.best_estimate
            checked.throughputs.append(case[1] / estimate)
            checked.latencies.append(estimate)
        return checked


class Simulate(Workload):
    name = "simulate"
    traced = False

    def pass_cases(self, k: int) -> list:
        return warmup_problems()

    def setup(self, step: Callable = untimed) -> list[str]:
        problems = []
        self.plans = {}
        for case in warmup_problems():
            harmony, plan = step(partial(_planned, case))
            key = problem_key(*case)
            ok, problem = _expect(key, plan_facts(plan),
                                  self.golden["plan"].get(key))
            if not ok:
                problems.append(problem)
            self.plans[case] = (harmony, plan)
        return problems + self._warm_up(warmup_problems(), step)

    def op(self, case: tuple) -> Any:
        harmony, plan = self.plans[case]
        if not self.traced:
            return harmony.run(plan=plan, iterations=ITERATIONS), None
        from repro.trace import TraceRecorder

        recorder = TraceRecorder()
        report = harmony.run(plan=plan, iterations=ITERATIONS, trace=recorder)
        return report, recorder

    def check(self, case: tuple, result: Any, deep: bool = False) -> Checked:
        report, recorder = result
        metrics = report.metrics
        key = problem_key(*case)
        facts = run_facts(metrics)
        ok, problem = _expect(key, facts, self.golden["simulate"].get(key))
        if ok and deep and recorder is not None:
            from repro.trace.invariants import TraceInvariantError, check_trace

            try:
                check_trace(recorder.events, graph=report.plan.graph,
                            metrics=metrics, iterations=ITERATIONS,
                            dropped=recorder.dropped)
            except TraceInvariantError as exc:
                ok, problem = False, f"{key}: trace invariant: {exc}"
        estimate = report.plan.search.best_estimate
        return Checked(
            key, facts, ok, problem,
            throughputs=[metrics.throughput],
            latencies=[metrics.iteration_time],
            drift=abs(estimate - metrics.iteration_time)
            / metrics.iteration_time,
        )


class SimulateTraced(Simulate):
    name = "simulate-traced"
    traced = True


class ServeFleet(Workload):
    name = "serve-fleet"

    def pass_cases(self, k: int) -> list:
        return list(STORM_SEEDS)

    def setup(self, step: Callable = untimed) -> list[str]:
        from repro.service import scripted_workload

        self.storms = {
            seed: step(partial(
                scripted_workload, STORM_REQUESTS, seed=seed,
                duration=STORM_DURATION, models=STORM_MODELS, gpus=(2, 4),
                shares=(1.0, 0.5), execute_fraction=0.1,
            ))
            for seed in STORM_SEEDS
        }
        return self._warm_up(list(STORM_SEEDS), step)

    def op(self, case: int) -> Any:
        from repro.fleet import FleetPlacer, fleet_of
        from repro.service import (
            PlannerService, ServiceChaosSpec, ServiceConfig, ServiceFaultPlan,
        )

        service = PlannerService(
            ServiceConfig(),
            chaos=ServiceFaultPlan(ServiceChaosSpec.chaos(1.0), seed=case),
            fleet=FleetPlacer(fleet_of(2, 4)),
            seed=case,
        )
        return service, service.run(self.storms[case])

    def check(self, case: int, result: Any, deep: bool = False) -> Checked:
        from repro.core.harmony import HarmonyPlan
        from repro.service import Outcome

        service, results = result
        key = f"storm{case}"
        facts = storm_facts(service, results)
        ok, problem = _expect(key, facts,
                              self.golden["storms"].get(str(case)))
        n = len(self.storms[case])
        if not (len(results) == n
                and all(isinstance(r.outcome, Outcome) for r in results)
                and sum(service.metrics.outcomes.values()) == n):
            ok, problem = False, f"{key}: outcomes do not cover the storm"
        if service.fleet.occupancy() != 0:
            ok, problem = False, f"{key}: fleet occupancy did not drain"
        checked = Checked(key, facts, ok, problem, units=n,
                          units_ok=n - facts["no_plan"])
        for r in results:
            if not r.outcome.carries_plan:
                continue
            checked.latencies.append(r.latency)
            if isinstance(r.plan, HarmonyPlan):
                checked.throughputs.append(
                    r.request.minibatch / r.plan.search.best_estimate
                )
        return checked


WORKLOADS = {
    cls.name: cls for cls in (PlanZoo, Simulate, SimulateTraced, ServeFleet)
}