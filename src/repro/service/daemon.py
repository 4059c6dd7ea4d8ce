"""The planning daemon: admission -> queue -> workers -> degradation.

:class:`PlannerService` runs a pool of worker processes on the discrete-
event simulator (:mod:`repro.sim.engine`): requests arrive on a seeded
schedule, pass admission control (tenant quota, bounded queue), wait in
FIFO order, and are served by the first free worker.  All *timing* is
virtual and deterministic; the *plans themselves* are real -- a cache
miss runs the actual Decomposer/Profiler/Scheduler stack (wall clock;
the configuration search runs once per content key per process, in
``repro.core.harmony``'s search store), so a served plan is exactly
what ``repro plan`` would print.

With a :class:`~repro.fleet.FleetPlacer` attached, a placement rung runs
between admission and planning: the request's logical devices are
reserved on the shared fleet at the request's declared memory share
(identity / partition / time-slice, per the placer's ladder).  A miss is
a typed :attr:`~repro.service.request.Outcome.SHED_NO_CAPACITY`; a hit
holds the carved capacity until the request resolves, and served plans
are re-certified by the analyzer against the tenant's partition before
they count as served (degraded plans are plan-only and skip
certification -- they carry no execution promise).

Serving walks the degradation ladder, cheapest-and-best first:

1. **exact cache hit** -- the content-addressed key matches a plan
   served before (any tenant, any time): serve it for ``CACHE_COST``;
2. **fresh plan** -- if the circuit breaker admits it: nominal virtual
   cost scaled by the model's depth, inflated by chaos slowdowns,
   retried with seeded-jitter backoff after chaos crashes.  An attempt
   that cannot finish inside the request's deadline is abandoned
   *before* the time is spent and counts as a planner timeout (these
   trip the breaker, exactly like crashes);
3. **stale/near-spec plan** -- a cached plan of the same workload family
   on fewer devices, embedded into the requested device range via
   :meth:`repro.virt.DeviceBinding.embed` (late binding makes the
   schedule valid under the new labeling);
4. **baseline plan** -- a :class:`~repro.baselines.GpipeSwapPlanner`
   schedule: pessimistic but always plannable;
5. **shed** -- with a typed reason (deadline expired, or breaker open
   with the degraded rungs exhausted).

Every admitted request terminates in exactly one
:class:`~repro.service.request.Outcome`; the simulator's unhandled-
failure guarantee means a bug here surfaces as a typed exception, never
a hang or a silently dropped request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Generator, Optional

from repro.common.backoff import BackoffPolicy
from repro.common.errors import (
    ReproError,
    ScheduleAnalysisError,
    SimulationError,
)
from repro.fleet.placer import FleetPlacer, FleetReservation
from repro.core.harmony import Harmony, HarmonyOptions, HarmonyPlan
from repro.experiments.common import server_for
from repro.hardware.server import ServerSpec
from repro.models.zoo import build_model
from repro.service.breaker import CircuitBreaker
from repro.service.cache import PlanCache, family_key, plan_key
from repro.service.chaos import ServiceFaultPlan
from repro.service.metrics import ServiceMetrics
from repro.service.request import Outcome, PlanRequest, RequestResult
from repro.sim.engine import SimEvent, Simulator
from repro.virt.devices import DeviceBinding


#: virtual budget for requests that carry no deadline
DEFAULT_DEADLINE = 30.0
#: nominal virtual seconds of planner work per fresh plan (scaled by
#: model depth; chaos slowdowns multiply it further)
PLAN_COST = 2.0
#: virtual seconds to serve an exact cache hit
CACHE_COST = 0.02
#: virtual seconds to relabel + serve a near-spec stale plan
STALE_COST = 0.10
#: virtual seconds to produce + serve the baseline plan
BASELINE_COST = 0.50
#: virtual seconds to detect and reject a poisoned request
DETECT_COST = 0.01
#: virtual seconds for a fleet placement decision (fleet mode only)
PLACE_COST = 0.05
#: retry schedule for crashed planner attempts (seeded jitter
#: decorrelates a storm of retrying requests; the service binds its
#: seed into the draw)
PLANNER_RETRY = BackoffPolicy(
    max_retries=2, base=0.5, factor=2.0, jitter=0.25, cap=4.0
)
#: plan-cache capacity
CACHE_CAPACITY = 64
#: simulator watchdog: callbacks before a stuck service aborts
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """The service's tunables; defaults give a hardened 2-worker daemon."""

    #: concurrent planner workers
    workers: int = 2
    #: waiting requests beyond this are shed (bounded backpressure)
    queue_limit: int = 16
    #: unresolved requests (queued + in service) per tenant; 0 = no quota
    tenant_quota: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.tenant_quota < 0:
            raise ValueError(
                f"tenant_quota must be >= 0, got {self.tenant_quota}"
            )


@dataclass(frozen=True)
class StalePlan:
    """A near-spec cached plan rebound onto the requested device range."""

    source: HarmonyPlan = field(repr=False)
    graph: Any = field(repr=False)
    source_gpus: int = 0
    gpus: int = 0


_EPS = 1e-9


class PlannerService:
    """The hardened planning daemon (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        options: Optional[HarmonyOptions] = None,
        chaos: Optional[ServiceFaultPlan] = None,
        trace: Optional[Any] = None,
        seed: int = 0,
        fleet: Optional[FleetPlacer] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.options = options if options is not None else HarmonyOptions()
        self.chaos = chaos if chaos is not None else ServiceFaultPlan()
        self.seed = seed
        self.sim = Simulator()
        self.sim.trace = trace
        self.trace = trace
        # The service seed scopes the retry jitter; labels still
        # decorrelate requests.
        self.retry = replace(PLANNER_RETRY, seed=seed)
        self.cache = PlanCache(CACHE_CAPACITY)
        self.breaker = CircuitBreaker()
        self.metrics = ServiceMetrics()
        self.results: list[RequestResult] = []
        self._queue: deque[tuple[PlanRequest, float]] = deque()
        self._wakeup: SimEvent = self.sim.event("svc.wakeup")
        self._remaining = 0
        self._tenant_load: dict[str, int] = {}
        #: mode -> the service's options in that mode (one object per
        #: mode, so its cached fingerprint makes plan keys cheap)
        self._modes: dict[str, HarmonyOptions] = {}
        #: plan key -> memoized simulated iteration seconds
        self._run_seconds: dict[str, float] = {}
        #: plan key -> memoized baseline plan
        self._baselines: dict[str, Any] = {}
        self.fleet = fleet
        #: rid -> (live reservation, virtual placement time)
        self._reservations: dict[int, tuple[FleetReservation, float]] = {}
        #: (plan key, bound topology's fingerprint) -> certified bound
        #: plan (None = analyzer rejected that placement)
        self.fleet_bounds: dict[tuple, Optional[Any]] = {}
        #: rid -> its reservation, kept after release for reporting
        self.fleet_placed: dict[int, FleetReservation] = {}
        self._fleet_last = 0.0

    # -- public API --------------------------------------------------------------

    def run(self, requests: list[PlanRequest]) -> list[RequestResult]:
        """Serve ``requests`` to terminal resolution; returns results by
        request id.  Raises :class:`SimulationError` if any request
        fails to resolve (the watchdog makes that a loud failure)."""
        ordered = sorted(requests, key=lambda r: (r.arrival, r.rid))
        self._remaining = len(ordered)
        if ordered:
            self.sim.process(self._arrivals(ordered), name="svc.arrivals")
            for wid in range(self.config.workers):
                self.sim.process(self._worker(wid), name=f"svc.worker{wid}")
        self.sim.run(max_steps=MAX_STEPS)
        if len(self.results) != len(ordered):
            raise SimulationError(
                f"service run ended with {len(ordered) - len(self.results)} "
                f"request(s) unresolved"
            )
        self.metrics.cache_hits = self.cache.hits
        self.metrics.cache_misses = self.cache.misses
        self.metrics.breaker_trips = self.breaker.trips
        self.metrics.breaker_flaps = self.breaker.flaps
        if self.fleet is not None:
            self._fleet_tick(self.sim.now)
            self.metrics.fleet_servers = self.fleet.n_servers
            self.metrics.fleet_gpus = self.fleet.total_gpus
        return sorted(self.results, key=lambda r: r.request.rid)

    # -- simulation processes ----------------------------------------------------

    def _arrivals(self, ordered: list[PlanRequest]) -> Generator:
        for request in ordered:
            delay = request.arrival - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._submit(request)

    def _worker(self, wid: int) -> Generator:
        while True:
            if not self._queue:
                if self._remaining <= 0:
                    return
                yield self._wakeup
                continue
            request, enqueued = self._queue.popleft()
            yield from self._serve(wid, request, enqueued)

    # -- admission ---------------------------------------------------------------

    def _submit(self, request: PlanRequest) -> None:
        self.metrics.requests += 1
        now = self.sim.now
        if self.trace is not None:
            self.trace.instant(
                "service", f"arrive req{request.rid}", now,
                lane="service", tenant=request.tenant,
            )
        quota = self.config.tenant_quota
        if quota and self._tenant_load.get(request.tenant, 0) >= quota:
            self._resolve(
                request, Outcome.SHED_QUOTA,
                detail=f"tenant {request.tenant} at quota {quota}",
                admitted=False,
            )
            return
        if len(self._queue) >= self.config.queue_limit:
            self._resolve(
                request, Outcome.SHED_QUEUE_FULL,
                detail=f"queue at limit {self.config.queue_limit}",
                admitted=False,
            )
            return
        self.metrics.admitted += 1
        self._tenant_load[request.tenant] = \
            self._tenant_load.get(request.tenant, 0) + 1
        self._queue.append((request, now))
        self.metrics.peak_queue_depth = max(
            self.metrics.peak_queue_depth, len(self._queue)
        )
        self._wake()

    def _wake(self) -> None:
        fired, self._wakeup = self._wakeup, self.sim.event("svc.wakeup")
        fired.succeed()

    # -- serving -----------------------------------------------------------------

    def _serve(self, wid: int, request: PlanRequest,
               enqueued: float) -> Generator:
        started = self.sim.now
        wait = started - enqueued
        budget = (request.deadline if request.deadline is not None
                  else DEFAULT_DEADLINE)
        deadline = request.arrival + budget

        def fits(cost: float) -> bool:
            return self.sim.now + cost <= deadline + _EPS

        # Poisoned / malformed requests: cheap detection, typed failure,
        # no breaker involvement (the planner did nothing wrong).
        if self.chaos.poisoned(request.rid):
            yield self.sim.timeout(DETECT_COST)
            self.metrics.chaos_poisoned += 1
            self._resolve(
                request, Outcome.FAILED_POISONED,
                detail="malformed request rejected at validation",
                wait=wait,
            )
            return
        try:
            model = build_model(request.model)
        except (KeyError, ValueError) as exc:
            yield self.sim.timeout(DETECT_COST)
            self._resolve(
                request, Outcome.FAILED_POISONED, detail=str(exc), wait=wait,
            )
            return
        # Fleet rung: carve the job's devices out of the shared fleet
        # before any planning happens.  The reservation is held until
        # the request resolves (released in _resolve); a placement miss
        # is a typed shed, not a queue hang.
        if self.fleet is not None:
            yield self.sim.timeout(PLACE_COST)
            reservation = self.fleet.reserve(
                request.tenant, request.gpus,
                share=Fraction(request.memory_share),
            )
            if reservation is None:
                self._resolve(
                    request, Outcome.SHED_NO_CAPACITY,
                    detail=f"no server can host {request.gpus} device(s) "
                           f"at share {request.memory_share:g}",
                    wait=wait,
                )
                return
            self._place(request, reservation)

        server = server_for(request.gpus)
        options = self._options(request.mode)
        key = plan_key(model, server, request.minibatch, options)
        family = family_key(model, request.minibatch, options)

        # Rung 1: exact content-addressed cache hit.
        plan = self.cache.get(key)
        if plan is not None:
            if fits(CACHE_COST):
                yield self.sim.timeout(CACHE_COST)
                yield from self._finish(
                    request, Outcome.SERVED_CACHED, plan=plan, key=key,
                    wait=wait, deadline=deadline,
                )
            else:
                self._resolve(
                    request, Outcome.TIMED_OUT,
                    detail="deadline expired before the cached plan "
                           "could be served",
                    wait=wait, plan_key=key,
                )
            return

        # Rung 2: fresh planning, behind the breaker.
        attempts = 0
        if self.breaker.allow(self.sim.now):
            done, attempts = yield from self._plan_fresh(
                request, model, server, options, key, family, deadline, wait,
            )
            if done:
                return
        elif self.trace is not None:
            self.trace.instant(
                "service", f"breaker_denied req{request.rid}", self.sim.now,
                lane="service",
            )

        # Rungs 3-4: degraded service.
        near = self.cache.near(family, request.gpus, exclude=key)
        if near is not None and fits(STALE_COST):
            source_gpus, source_key, source = near
            # The cached plan's logical devices embed in-place into
            # the request's (larger or equal) physical device range;
            # late binding makes the graph rewrite purely mechanical.
            embedding = DeviceBinding.embed(source.graph.n_devices,
                                            request.gpus)
            graph = embedding.apply(source.graph)
            yield self.sim.timeout(STALE_COST)
            self.metrics.stale_rebinds += 1
            stale = StalePlan(
                source=source, graph=graph,
                source_gpus=source_gpus, gpus=request.gpus,
            )
            self._resolve(
                request, Outcome.DEGRADED_STALE,
                detail=f"reused {source_gpus}-gpu plan relabeled onto "
                       f"{request.gpus} device(s)",
                wait=wait, plan=stale, plan_key=source_key,
                attempts=attempts,
            )
            return
        if fits(BASELINE_COST):
            baseline = self._baseline_plan(key, model, server,
                                           request.minibatch)
            if baseline is not None:
                yield self.sim.timeout(BASELINE_COST)
                self.metrics.baseline_plans += 1
                self._resolve(
                    request, Outcome.DEGRADED_BASELINE,
                    detail="gpipe-swap baseline plan",
                    wait=wait, plan=baseline, attempts=attempts,
                )
                return

        # Rung 5: shed, with the honest reason.  The deadline is the
        # binding constraint when the cheapest degraded rung no longer
        # fits the remaining budget (an expired deadline included);
        # otherwise the planner (breaker open, crashes, no plannable
        # rung) is what failed the request.
        if not fits(min(STALE_COST, BASELINE_COST)):
            self._resolve(
                request, Outcome.TIMED_OUT,
                detail="deadline expired before any rung could serve",
                wait=wait, attempts=attempts,
            )
        else:
            self._resolve(
                request, Outcome.SHED_BREAKER,
                detail="planner unavailable and degraded rungs exhausted",
                wait=wait, attempts=attempts,
            )

    def _plan_fresh(self, request: PlanRequest, model: Any,
                    server: ServerSpec, options: HarmonyOptions, key: str,
                    family: str, deadline: float,
                    wait: float) -> Generator:
        """Fresh planning with chaos, deadline checks and seeded-backoff
        retries.  Returns ``(resolved, attempts)``; ``resolved`` False
        means the caller should fall down the degradation ladder."""
        attempt = 0
        nominal = self._plan_cost(model)
        while True:
            factor = self.chaos.slowdown(request.rid, attempt)
            if factor > 1.0:
                self.metrics.chaos_slowdowns += 1
            duration = nominal * factor
            if self.sim.now + duration > deadline + _EPS:
                # Abandon before burning time we cannot afford: this is
                # the planner timing out from the request's view.
                self.metrics.planner_failures += 1
                self.breaker.record_failure(self.sim.now)
                if self.trace is not None:
                    self.trace.instant(
                        "service", f"planner_timeout req{request.rid}",
                        self.sim.now, lane="service", attempt=attempt,
                    )
                return False, attempt + 1
            yield self.sim.timeout(duration)
            if self.chaos.crash(request.rid, attempt):
                self.metrics.chaos_crashes += 1
                self.metrics.planner_failures += 1
                if self.trace is not None:
                    self.trace.instant(
                        "service", f"planner_crash req{request.rid}",
                        self.sim.now, lane="service", attempt=attempt,
                    )
                if self.retry.exhausted(attempt):
                    self.breaker.record_failure(self.sim.now)
                    return False, attempt + 1
                pause = self.retry.delay(attempt, "plan", request.rid)
                if self.sim.now + pause > deadline + _EPS:
                    self.breaker.record_failure(self.sim.now)
                    return False, attempt + 1
                self.metrics.retries += 1
                yield self.sim.timeout(pause)
                attempt += 1
                continue
            try:
                plan = Harmony(
                    model, server, request.minibatch, options=options
                ).plan()
            except ReproError:
                # Planner-side failure (infeasible config, scheduler
                # error): terminal for the fresh rung.  Anything untyped
                # is a bug and propagates.
                self.metrics.planner_failures += 1
                self.breaker.record_failure(self.sim.now)
                return False, attempt + 1
            self.breaker.record_success(self.sim.now)
            self.cache.put(key, plan, family=family, n_gpus=request.gpus)
            yield from self._finish(
                request, Outcome.SERVED_FRESH, plan=plan, key=key,
                wait=wait, deadline=deadline, attempts=attempt + 1,
            )
            return True, attempt + 1

    def _finish(self, request: PlanRequest, outcome: Outcome, *, plan: Any,
                key: str, wait: float, deadline: float,
                attempts: int = 0) -> Generator:
        """Resolve a served request, running one simulated iteration
        first for run requests (when it fits the deadline).

        Fleet mode gates serving on certification: the plan is bound
        onto the held reservation and re-proved by the analyzer against
        the tenant's memory partition (memoized per plan and bound
        topology, so a storm pays each unique analysis once).  A rejected
        bind sheds with ``SHED_NO_CAPACITY`` -- the fleet cannot honestly
        host the job at its declared share."""
        if self.fleet is not None:
            held = self._reservations.get(request.rid)
            if held is not None:
                bound = self._certify(request, key, plan, held[0])
                if bound is None:
                    self.metrics.fleet_rejections += 1
                    self._resolve(
                        request, Outcome.SHED_NO_CAPACITY,
                        detail=f"analyzer rejected the carved partition "
                               f"(share {request.memory_share:g})",
                        wait=wait, plan_key=key, attempts=attempts,
                    )
                    return
                self.metrics.fleet_certified += 1
        detail = ""
        run_seconds = 0.0
        if request.execute:
            seconds = self._iteration_seconds(key, plan)
            if seconds > 0 and self.sim.now + seconds <= deadline + _EPS:
                yield self.sim.timeout(seconds)
                run_seconds = seconds
                self.metrics.runs_executed += 1
                self.metrics.run_virtual_seconds += seconds
                detail = f"ran 1 iteration ({seconds:.3f}s simulated)"
            else:
                detail = "run skipped (deadline)"
        self._resolve(
            request, outcome, detail=detail, wait=wait, plan=plan,
            plan_key=key, attempts=attempts, run_seconds=run_seconds,
        )

    # -- resolution --------------------------------------------------------------

    def _resolve(self, request: PlanRequest, outcome: Outcome, *,
                 detail: str = "", wait: float = 0.0,
                 plan: Optional[Any] = None, plan_key: str = "",
                 attempts: int = 0, admitted: bool = True,
                 run_seconds: float = 0.0) -> None:
        now = self.sim.now
        latency = now - request.arrival
        held = self._reservations.pop(request.rid, None)
        if held is not None and self.fleet is not None:
            reservation, placed_at = held
            self._fleet_tick(now)
            self.fleet.release(reservation)
            if self.trace is not None:
                self.trace.span(
                    "fleet", f"hold req{request.rid}", placed_at, now,
                    lane="fleet", tenant=request.tenant,
                    server=reservation.server, kind=reservation.kind,
                    devices=reservation.devices,
                )
        self.metrics.count(outcome)
        if outcome.carries_plan:
            self.metrics.latencies.append(latency)
        if admitted:
            load = self._tenant_load.get(request.tenant, 0)
            if load > 0:
                self._tenant_load[request.tenant] = load - 1
        self.metrics.makespan = max(self.metrics.makespan, now)
        self.results.append(RequestResult(
            request=request, outcome=outcome, detail=detail,
            resolved_at=now, latency=latency, wait=wait,
            attempts=attempts, plan_key=plan_key, plan=plan,
            run_seconds=run_seconds,
        ))
        if self.trace is not None:
            self.trace.span(
                "service", f"req{request.rid}", request.arrival, now,
                lane="service", outcome=outcome.value,
                tenant=request.tenant,
            )
        self._remaining -= 1
        if self._remaining <= 0:
            self._wake()

    # -- fleet placement ---------------------------------------------------------

    def _place(self, request: PlanRequest,
               reservation: FleetReservation) -> None:
        """Record a successful placement: accounting + trace instant."""
        assert self.fleet is not None
        now = self.sim.now
        self._fleet_tick(now)
        self._reservations[request.rid] = (reservation, now)
        self.fleet_placed[request.rid] = reservation
        self.metrics.fleet_placements += 1
        if reservation.kind == "identity":
            self.metrics.fleet_identity += 1
        elif reservation.kind == "partition":
            self.metrics.fleet_partitioned += 1
        else:
            self.metrics.fleet_timesliced += 1
        self.metrics.fleet_peak_occupancy = max(
            self.metrics.fleet_peak_occupancy,
            float(self.fleet.occupancy()),
        )
        if self.trace is not None:
            self.trace.instant(
                "fleet", f"place req{request.rid}", now, lane="fleet",
                tenant=request.tenant, server=reservation.server,
                kind=reservation.kind, devices=reservation.devices,
            )

    def _fleet_tick(self, now: float) -> None:
        """Advance the occupied-GPU-seconds integral to ``now``.  Must
        run *before* any occupancy change (the integrand is piecewise
        constant between placement events)."""
        assert self.fleet is not None
        dt = now - self._fleet_last
        if dt > 0:
            self.metrics.fleet_gpu_seconds += (
                float(self.fleet.occupancy()) * self.fleet.total_gpus * dt
            )
        self._fleet_last = now

    def _certify(self, request: PlanRequest, key: str, plan: Any,
                 reservation: FleetReservation) -> Optional[Any]:
        """Analyzer-certified bound plan for (plan, bound topology), or
        None when the partition cannot hold the schedule.  Memoized on
        the content the verdict depends on: the plan and the binding the
        reservation realizes, not the request or a summary of its shape."""
        assert self.fleet is not None
        memo_key = (key, reservation.binding().fingerprint())
        if memo_key in self.fleet_bounds:
            return self.fleet_bounds[memo_key]
        try:
            bound = self.fleet.bind(reservation, plan)
        except ScheduleAnalysisError:
            bound = None
        self.fleet_bounds[memo_key] = bound
        return bound

    # -- plan production ---------------------------------------------------------

    def _options(self, mode: str) -> HarmonyOptions:
        options = self._modes.get(mode)
        if options is None:
            options = self._modes[mode] = replace(self.options, mode=mode)
        return options

    def _plan_cost(self, model: Any) -> float:
        """Nominal virtual planning cost, scaled by model depth."""
        return PLAN_COST * (1.0 + model.n_layers / 32.0)

    def _baseline_plan(self, key: str, model: Any, server: ServerSpec,
                       minibatch: int) -> Optional[Any]:
        """GPipe-swap baseline plan memoized by the request's plan key
        (None if even the baseline cannot plan this request -- then the
        ladder sheds)."""
        if key in self._baselines:
            return self._baselines[key]
        from repro.baselines import GpipeSwapPlanner

        try:
            plan = GpipeSwapPlanner(model, server, minibatch).plan()
        except ReproError:
            plan = None
        self._baselines[key] = plan
        return plan

    def _iteration_seconds(self, key: str, plan: Any) -> float:
        """Memoized simulated iteration time of a served plan (run
        requests).  The first run request per plan key pays one real
        simulated execution; later ones reuse its virtual duration."""
        if key in self._run_seconds:
            return self._run_seconds[key]
        harmony = Harmony(plan.model, plan.server, plan.minibatch,
                          plan.options)
        seconds = harmony.run(plan=plan).metrics.iteration_time
        self._run_seconds[key] = seconds
        return seconds
