"""Planner-as-a-service: a hardened, deterministic planning daemon.

The rest of the package answers one question at a time ("plan this model
on this server"); this package turns the planner into a *service*: a
long-running daemon that accepts concurrent plan/run requests over an
async queue and keeps answering under chaos.  Hardening layers, outermost
first:

- **admission control** (:class:`PlannerService`): a bounded request
  queue and per-tenant quotas -- excess load is shed at the door with a
  typed reason, never by unbounded queueing;
- **deadlines** (:class:`~repro.service.request.PlanRequest.deadline`):
  every request carries a virtual-time budget; work that cannot finish
  inside it is abandoned *before* it is spent, and retries wait per the
  shared :class:`repro.common.backoff.BackoffPolicy` (seeded jitter, so
  retry storms decorrelate deterministically);
- **circuit breaker** (:class:`~repro.service.breaker.CircuitBreaker`):
  repeated planner timeouts/failures open the breaker; cooldowns grow on
  the same exponential schedule, so the breaker flaps less and less;
- **graceful degradation** (the ladder in
  :meth:`PlannerService._serve`): exact cached plan -> fresh plan ->
  near-spec cached plan packed into the requested device range
  (:meth:`repro.virt.DeviceBinding.pack`) -> cheap baseline-scheme
  plan -> shed with a reason.  Every admitted request resolves
  terminally; nothing hangs, nothing is silently dropped;
- **fleet co-placement** (:mod:`repro.fleet`, optional): with a
  :class:`~repro.fleet.FleetPlacer` attached, a placement rung between
  admission and planning carves each job's devices out of a shared
  server fleet at the job's declared memory share; misses shed with a
  typed ``SHED_NO_CAPACITY`` and served plans are analyzer-certified
  against the tenant's partition;
- **chaos** (:mod:`repro.service.chaos`): seeded service-level faults
  (slow planners, crashed planner attempts, poisoned requests) drawn
  statelessly like every :mod:`repro.faults` decision, so an entire
  request storm is bit-reproducible from its seed.

Everything runs in virtual time on :class:`repro.sim.engine.Simulator`;
:class:`~repro.service.metrics.ServiceMetrics` aggregates the outcome
counts, queue depths and latency quantiles the acceptance checks pin.
"""

from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.cache import PlanCache, plan_key
from repro.service.chaos import (
    ServiceChaosSpec,
    ServiceFaultPlan,
    ScriptedServiceFaultPlan,
)
from repro.service.daemon import PlannerService, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.request import Outcome, PlanRequest, RequestResult
from repro.service.workload import scripted_workload

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Outcome",
    "PlanCache",
    "PlanRequest",
    "PlannerService",
    "RequestResult",
    "ScriptedServiceFaultPlan",
    "ServiceChaosSpec",
    "ServiceConfig",
    "ServiceFaultPlan",
    "ServiceMetrics",
    "plan_key",
    "scripted_workload",
]
