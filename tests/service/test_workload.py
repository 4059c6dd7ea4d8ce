"""Seeded workloads and the service chaos oracle."""

import pytest

from repro.service import (
    ScriptedServiceFaultPlan,
    ServiceChaosSpec,
    ServiceFaultPlan,
    scripted_workload,
)


class TestScriptedWorkload:
    def test_deterministic_per_seed(self):
        assert scripted_workload(50, seed=3) == scripted_workload(50, seed=3)
        assert scripted_workload(50, seed=3) != scripted_workload(50, seed=4)

    def test_arrivals_sorted_within_duration(self):
        requests = scripted_workload(40, seed=0, duration=60.0)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a <= 60.0 for a in arrivals)
        assert [r.rid for r in requests] == list(range(40))

    def test_infeasible_dp_demoted_to_pp(self):
        """A DP draw whose minibatch does not divide the GPUs is demoted
        -- the storm probes the service, not infeasibility handling."""
        requests = scripted_workload(
            200, seed=0, modes=("dp",), minibatches=(9,), gpus=(2,)
        )
        assert all(r.mode == "pp" for r in requests)

    def test_execute_fraction(self):
        none = scripted_workload(50, seed=0, execute_fraction=0.0)
        everything = scripted_workload(50, seed=0, execute_fraction=1.0)
        assert not any(r.execute for r in none)
        assert all(r.execute for r in everything)

    @pytest.mark.parametrize("kwargs", [
        {"n_requests": -1},
        {"duration": 0.0},
        {"tenants": 0},
        {"execute_fraction": 1.5},
    ])
    def test_validation(self, kwargs):
        args = {"n_requests": 10, **kwargs}
        n = args.pop("n_requests")
        with pytest.raises(ValueError):
            scripted_workload(n, **args)


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ServiceChaosSpec(slow_rate=1.5)
        with pytest.raises(ValueError):
            ServiceChaosSpec(slow_factor=0.5)
        with pytest.raises(ValueError):
            ServiceChaosSpec.chaos(-1.0)

    def test_none_disables_everything(self):
        spec = ServiceChaosSpec.none()
        assert not spec.any_enabled
        plan = ServiceFaultPlan(spec, seed=0)
        assert not any(plan.poisoned(r) or plan.crash(r, 0)
                       or plan.slowdown(r, 0) != 1.0 for r in range(100))

    def test_intensity_scales_rates(self):
        mild, harsh = ServiceChaosSpec.chaos(0.5), ServiceChaosSpec.chaos(2.0)
        assert mild.crash_rate < harsh.crash_rate
        assert harsh.crash_rate <= 1.0


class TestFaultPlanDraws:
    def test_stateless_and_order_independent(self):
        plan = ServiceFaultPlan(ServiceChaosSpec.chaos(1.0), seed=5)
        forward = [plan.crash(rid, 0) for rid in range(50)]
        backward = [plan.crash(rid, 0) for rid in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_scripted_overrides_and_fallthrough(self):
        plan = ScriptedServiceFaultPlan(
            poisoned_rids={3}, crashes={1: 2, 2: -1}, slowdowns={0: 7.0},
        )
        assert plan.poisoned(3) and not plan.poisoned(0)
        assert plan.slowdown(0, 0) == 7.0
        assert plan.slowdown(9, 0) == 1.0
        assert plan.crash(1, 0) and plan.crash(1, 1) and not plan.crash(1, 2)
        assert plan.crash(2, 99)  # -1 = every attempt
        assert not plan.crash(9, 0)  # unscripted, spec disabled
        assert plan.enabled
