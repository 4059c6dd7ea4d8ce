"""The plan cache's capacity bounds everything the service keeps per plan.

Every fact the service derives from a cached plan -- its bind verdicts
and a run request's simulated iteration seconds -- lives on the plan's
cache record, so evicting the plan frees them, and baseline plans are
planned on demand.  These tests run the ``serve-fleet`` benchmark's storm
shape through a service whose cache holds only a few plans:

- at most ``capacity`` plans and plan keys stay reachable from the
  service (its results aside);
- a fact recomputed after an eviction equals the evicted one, so the
  storm's outcomes, latencies, run seconds and metrics equal those
  recorded for the same storms when the verdict and run-seconds memos
  were dicts keyed by plan key that never evicted.
"""

import gc
import hashlib
import json
from collections import defaultdict
from dataclasses import replace
from types import BuiltinFunctionType, FunctionType, ModuleType

import pytest

from repro.core.harmony import HarmonyPlan, plan_key
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer, fleet_of
from repro.models.zoo import build_model
from repro.service import (
    PlannerService,
    ServiceChaosSpec,
    ServiceConfig,
    ServiceFaultPlan,
    scripted_workload,
)
from repro.service import daemon

#: the ``serve-fleet`` benchmark storm's models
STORM_MODELS = ("toy-transformer", "tiny-cnn", "gpt2-medium", "bert-large")
CAPACITIES = (4, 8)
SEEDS = (0, 1)

#: sha256 of each storm's outcomes, latencies, run seconds and metrics
#: snapshot, by (capacity, seed), recorded with per-service dicts that
#: kept every verdict and iteration time past the plan's eviction
DIGESTS = {
    (4, 0):
        "2267b894187ad5dba89cdc0810e6888801e4af0b01c92d09f17d389f979b36ef",
    (4, 1):
        "be808640660dc4aea4169586763791d6eabf35b5eb7c1bbeed306d5149af15c0",
    (8, 0):
        "fb73166cd049f221ce1b2161dc1b4e5481df429b72f988b09c2c99a4fce69cb3",
    (8, 1):
        "79cbe8b1d4859200d07e0c43e3a6bc85e509cf92e4bd0b421456f0ccb699efd9",
}


def _storm(capacity, seed):
    requests = scripted_workload(
        200, seed=seed, duration=240.0, models=STORM_MODELS, gpus=(2, 4),
        shares=(1.0, 0.5), execute_fraction=0.1,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(daemon, "CACHE_CAPACITY", capacity)
        service = PlannerService(
            ServiceConfig(),
            chaos=ServiceFaultPlan(ServiceChaosSpec.chaos(1.0), seed=seed),
            fleet=FleetPlacer(fleet_of(2, 4)),
            seed=seed,
        )
    results = service.run(requests)
    return requests, service, results


@pytest.fixture(scope="module")
def storms():
    return {(capacity, seed): _storm(capacity, seed)
            for capacity in CAPACITIES for seed in SEEDS}


def _digest(service, results) -> str:
    body = json.dumps({
        "outcomes": [r.outcome.value for r in results],
        "latencies": [float.hex(r.latency) for r in results],
        "run_seconds": [float.hex(r.run_seconds) for r in results],
        "snapshot": service.metrics.snapshot(),
    }, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _reachable(service) -> list:
    """Every object reachable from ``service`` except through its
    results.  The walk stops at each ``HarmonyPlan`` (what a plan itself
    holds is not the service's to bound) and at code and modules."""
    seen = {id(service.results)}
    stack, found = [service], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, ModuleType, FunctionType, BuiltinFunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, HarmonyPlan):
            continue
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, dict):
            # a str-keyed dict does not report its keys as referents
            stack.extend(obj)
    return found


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_cache_capacity_bounds_the_plans_and_keys_kept(
        storms, capacity, seed):
    requests, service, _results = storms[(capacity, seed)]
    assert service.cache.evictions > 0
    keys = {
        plan_key(build_model(r.model), server_for(r.gpus), r.minibatch,
                 replace(service.options, mode=r.mode))
        for r in requests
    }
    reached = _reachable(service)
    plans = [obj for obj in reached if isinstance(obj, HarmonyPlan)]
    kept = {obj for obj in reached if isinstance(obj, str) and obj in keys}
    assert 0 < len(plans) <= capacity
    assert 0 < len(kept) <= capacity, (
        f"{len(kept)} plan keys outlive a {capacity}-plan cache"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_recomputed_facts_equal_the_evicted_ones(storms, capacity, seed):
    _requests, service, results = storms[(capacity, seed)]
    seconds = defaultdict(set)
    for result in results:
        if result.run_seconds > 0:
            seconds[result.plan_key].add(result.run_seconds)
    assert seconds
    assert all(len(values) == 1 for values in seconds.values())
    assert _digest(service, results) == DIGESTS[(capacity, seed)]
