"""PlannerService behavior: admission, deadlines, the degradation ladder.

Each test scripts exactly the fault it probes via
:class:`ScriptedServiceFaultPlan` so outcomes are forced, not sampled.
Virtual costs are the defaults (cache 0.02s, stale 0.10s, baseline
0.50s, fresh ~2.4s for the toy transformer), which the deadline tests
lean on.
"""

import pytest

from repro.baselines import GpipeSwapPlanner
from repro.common.errors import InfeasibleConfigError, SimulationError
from repro.core.harmony import Harmony
from repro.service import (
    Outcome,
    PlannerService,
    PlanRequest,
    ScriptedServiceFaultPlan,
    ServiceConfig,
)
from repro.service.daemon import StalePlan
from repro.trace import TraceRecorder
from repro.trace.events import LANES


def _request(rid=0, *, tenant="t0", model="toy-transformer", minibatch=8,
             mode="pp", gpus=2, arrival=0.0, deadline=None, execute=False):
    return PlanRequest(rid=rid, tenant=tenant, model=model,
                       minibatch=minibatch, mode=mode, gpus=gpus,
                       arrival=arrival, deadline=deadline, execute=execute)


def _serve(requests, config=None, chaos=None, trace=None, **kwargs):
    service = PlannerService(
        config if config is not None else ServiceConfig(),
        chaos=chaos, trace=trace, **kwargs,
    )
    results = service.run(requests)
    return service, {r.request.rid: r for r in results}


class TestHappyPath:
    def test_fresh_then_cached_across_tenants(self):
        service, by_rid = _serve([
            _request(0, tenant="alice", arrival=0.0),
            _request(1, tenant="bob", arrival=10.0),
        ])
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[1].outcome is Outcome.SERVED_CACHED
        assert by_rid[0].plan_key == by_rid[1].plan_key
        assert by_rid[1].plan is by_rid[0].plan
        assert service.metrics.served == 2

    def test_every_result_carries_latency_and_resolution(self):
        _, by_rid = _serve([_request(0, arrival=1.5)])
        result = by_rid[0]
        assert result.resolved_at >= 1.5
        assert result.latency == pytest.approx(result.resolved_at - 1.5)


class TestAdmissionControl:
    def test_tenant_quota_sheds_at_the_door(self):
        config = ServiceConfig(tenant_quota=1, workers=1)
        service, by_rid = _serve([
            _request(0, tenant="greedy", arrival=0.0),
            _request(1, tenant="greedy", arrival=0.1),
            _request(2, tenant="patient", arrival=0.2),
        ], config=config)
        assert by_rid[1].outcome is Outcome.SHED_QUOTA
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[2].outcome is Outcome.SERVED_CACHED
        assert service.metrics.admitted == 2

    def test_bounded_queue_sheds_overflow(self):
        config = ServiceConfig(queue_limit=1, workers=1, tenant_quota=0)
        _, by_rid = _serve([
            _request(rid, tenant=f"t{rid}", arrival=0.01 * rid)
            for rid in range(4)
        ], config=config)
        outcomes = [by_rid[r].outcome for r in range(4)]
        assert Outcome.SHED_QUEUE_FULL in outcomes
        # Everyone still resolves terminally.
        assert all(o is not None for o in outcomes)

    def test_quota_slot_frees_on_resolution(self):
        config = ServiceConfig(tenant_quota=1, workers=1)
        _, by_rid = _serve([
            _request(0, tenant="t", arrival=0.0),
            _request(1, tenant="t", arrival=20.0),  # after rid 0 resolved
        ], config=config)
        assert by_rid[1].outcome is Outcome.SERVED_CACHED


class TestDeadlines:
    def test_impossible_deadline_times_out(self):
        """No rung (not even the baseline) fits a 1 ms budget."""
        _, by_rid = _serve([_request(0, deadline=0.001)])
        assert by_rid[0].outcome is Outcome.TIMED_OUT

    def test_deadline_counts_from_arrival_not_service_start(self):
        """Queue wait burns the budget: a worker starved by an earlier
        long request must abandon the attempt it cannot afford."""
        config = ServiceConfig(workers=1)
        chaos = ScriptedServiceFaultPlan(slowdowns={0: 8.0})
        _, by_rid = _serve([
            _request(0, arrival=0.0, deadline=45.0),
            _request(1, model="tiny-cnn", arrival=0.1, deadline=5.0),
        ], config=config, chaos=chaos)
        assert by_rid[1].outcome is Outcome.TIMED_OUT

    def test_generous_deadline_serves(self):
        _, by_rid = _serve([_request(0, deadline=100.0)])
        assert by_rid[0].outcome is Outcome.SERVED_FRESH


class TestPoisonedRequests:
    def test_poisoned_fails_without_touching_the_breaker(self):
        chaos = ScriptedServiceFaultPlan(poisoned_rids={0})
        service, by_rid = _serve([_request(0)], chaos=chaos)
        assert by_rid[0].outcome is Outcome.FAILED_POISONED
        assert service.breaker.trips == 0
        assert service.metrics.chaos_poisoned == 1

    def test_unknown_model_is_poisoned_not_crash(self):
        _, by_rid = _serve([_request(0, model="no-such-model")])
        assert by_rid[0].outcome is Outcome.FAILED_POISONED


class TestDegradationLadder:
    def test_stale_rung_relabels_a_smaller_plan(self):
        """rid 0 caches a 1-gpu plan; rid 1 (2 gpus, planner crashing)
        falls to the stale rung and gets that plan relabeled."""
        chaos = ScriptedServiceFaultPlan(crashes={1: -1})
        service, by_rid = _serve([
            _request(0, gpus=1, arrival=0.0),
            _request(1, gpus=2, arrival=20.0),
        ], chaos=chaos)
        result = by_rid[1]
        assert result.outcome is Outcome.DEGRADED_STALE
        assert isinstance(result.plan, StalePlan)
        assert result.plan.source_gpus == 1
        assert result.plan.gpus == 2
        assert result.plan.graph.n_devices == 2
        assert service.metrics.stale_rebinds == 1

    def test_baseline_rung_when_no_family_plan_exists(self):
        chaos = ScriptedServiceFaultPlan(crashes={0: -1})
        service, by_rid = _serve([_request(0)], chaos=chaos)
        assert by_rid[0].outcome is Outcome.DEGRADED_BASELINE
        assert by_rid[0].plan is not None
        assert service.metrics.baseline_plans == 1

    def test_degradation_disabled_sheds_instead(self):
        config = ServiceConfig(degradation=False)
        chaos = ScriptedServiceFaultPlan(crashes={0: -1, 1: -1, 2: -1})
        service, by_rid = _serve([
            _request(rid, tenant=f"t{rid}", arrival=float(rid))
            for rid in range(3)
        ], config=config, chaos=chaos)
        outcomes = {by_rid[r].outcome for r in range(3)}
        assert outcomes <= {Outcome.SHED_BREAKER, Outcome.TIMED_OUT}
        assert service.breaker.trips >= 1

    def test_crashed_attempts_retry_with_backoff_then_recover(self):
        """Two crashes inside the retry budget still end SERVED_FRESH."""
        chaos = ScriptedServiceFaultPlan(crashes={0: 2})
        service, by_rid = _serve([_request(0)], chaos=chaos)
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[0].attempts == 3
        assert service.metrics.retries == 2
        assert service.metrics.chaos_crashes == 2


class TestPlannerFailures:
    """Only typed planner errors fall down the ladder; anything else is a
    bug in the planner and must not be counted as a planner failure."""

    @staticmethod
    def _raising(monkeypatch, cls, error):
        def plan(self):
            raise error

        monkeypatch.setattr(cls, "plan", plan)

    def test_typed_planner_error_falls_to_the_baseline(self, monkeypatch):
        self._raising(monkeypatch, Harmony, InfeasibleConfigError("no fit"))
        service, by_rid = _serve([_request(0)])
        assert by_rid[0].outcome is Outcome.DEGRADED_BASELINE
        assert service.metrics.planner_failures == 1

    def test_untyped_planner_error_propagates(self, monkeypatch):
        self._raising(monkeypatch, Harmony, RuntimeError("planner bug"))
        with pytest.raises(RuntimeError, match="planner bug"):
            _serve([_request(0)])

    def test_untyped_baseline_error_propagates(self, monkeypatch):
        self._raising(monkeypatch, GpipeSwapPlanner,
                      RuntimeError("baseline bug"))
        chaos = ScriptedServiceFaultPlan(crashes={0: -1})
        with pytest.raises(RuntimeError, match="baseline bug"):
            _serve([_request(0)], chaos=chaos)


class TestRunRequests:
    def test_execute_runs_one_iteration_and_memoizes(self):
        service, by_rid = _serve([
            _request(0, execute=True, arrival=0.0, deadline=100.0),
            _request(1, execute=True, arrival=50.0, deadline=100.0),
        ])
        first, second = by_rid[0], by_rid[1]
        assert first.outcome is Outcome.SERVED_FRESH
        assert second.outcome is Outcome.SERVED_CACHED
        assert first.run_seconds > 0
        assert second.run_seconds == first.run_seconds
        assert service.metrics.runs_executed == 2
        assert service.metrics.run_virtual_seconds == pytest.approx(
            2 * first.run_seconds
        )


class TestObservability:
    def test_trace_records_service_lane_events(self):
        recorder = TraceRecorder()
        assert "service" in LANES
        _serve([_request(0)], trace=recorder)
        service_events = [e for e in recorder.events if e.cat == "service"]
        assert any(e.kind == "instant" and e.name == "arrive req0"
                   for e in service_events)
        spans = [e for e in service_events if e.kind == "span"]
        assert len(spans) == 1
        assert spans[0].lane == "service"
        assert dict(spans[0].meta)["outcome"] == "served_fresh"

    def test_empty_run_resolves_trivially(self):
        assert PlannerService(ServiceConfig()).run([]) == []

    def test_unresolved_request_is_a_loud_error(self, monkeypatch):
        """A service bug can never silently drop a request: run() raises."""
        def lost(self, wid, request, enqueued):
            return
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(PlannerService, "_serve", lost)
        with pytest.raises(SimulationError):
            PlannerService(ServiceConfig()).run([_request(0)])


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_limit": 0},
        {"tenant_quota": -1},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            _request(0, minibatch=0)
        with pytest.raises(ValueError):
            _request(0, deadline=0.0)
        with pytest.raises(ValueError):
            _request(0, mode="zz")
        with pytest.raises(ValueError):
            _request(0, gpus=0)
