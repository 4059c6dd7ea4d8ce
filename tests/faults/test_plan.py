"""FaultSpec / FaultPlan / RecoveryPolicy unit behavior."""

from dataclasses import replace

import pytest

from repro.faults import (
    Crash,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    ScriptedFaultPlan,
)


class TestFaultSpec:
    def test_defaults_disabled(self):
        spec = FaultSpec()
        assert not spec.any_enabled
        assert FaultSpec.none() == spec

    def test_chaos_preset_enabled(self):
        spec = FaultSpec.chaos()
        assert spec.any_enabled
        assert 0 < spec.transfer_fault_rate < 1

    def test_chaos_intensity_scales_and_clamps(self):
        mild = FaultSpec.chaos(0.5)
        wild = FaultSpec.chaos(100.0)
        assert mild.transfer_fault_rate == pytest.approx(0.01)
        assert wild.transfer_fault_rate == 1.0  # clamped

    @pytest.mark.parametrize("field,value", [
        ("transfer_fault_rate", -0.1),
        ("transfer_fault_rate", 1.5),
        ("link_degrade_factor", 0.0),
        ("link_degrade_factor", 1.5),
        ("gpu_slowdown_factor", 0.5),
        ("gpu_persistent_rate", 2.0),
        ("link_flap_interval", 0.0),
        ("host_pressure_interval", -1.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            FaultSpec(**{field: value})

    def test_chaos_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.chaos(-1.0)

    def test_describe_mentions_nondefault_fields(self):
        assert "transfer_fault_rate" in FaultSpec.chaos().describe()
        assert FaultSpec().describe() == "FaultSpec(off)"


class TestFaultPlan:
    def test_disabled_plan_not_enabled(self):
        assert not FaultPlan(FaultSpec.none(), seed=3).enabled
        assert FaultPlan(FaultSpec.chaos(), seed=3).enabled

    def test_decisions_are_deterministic(self):
        a = FaultPlan(FaultSpec.chaos(), seed=42)
        b = FaultPlan(FaultSpec.chaos(), seed=42)
        for attempt in range(8):
            assert a.transfer_fault("gpu0.swap_in", "W3", attempt) == \
                b.transfer_fault("gpu0.swap_in", "W3", attempt)
            assert a.task_crash(5, 1, attempt) == b.task_crash(5, 1, attempt)
        assert a.gpu_slowdown(0) == b.gpu_slowdown(0)
        assert a.link_degradation("gpu0.up", 7) == \
            b.link_degradation("gpu0.up", 7)
        assert a.host_pressure(3) == b.host_pressure(3)

    def test_rate_one_always_faults_rate_zero_never(self):
        always = FaultPlan(FaultSpec(transfer_fault_rate=1.0), seed=0)
        never = FaultPlan(FaultSpec(), seed=0)
        for attempt in range(16):
            fraction = always.transfer_fault("e", "l", attempt)
            assert fraction is not None and 0.05 <= fraction <= 0.95
            assert never.transfer_fault("e", "l", attempt) is None

    def test_context_rolls_fresh_dice(self):
        plan = FaultPlan(FaultSpec(task_crash_rate=0.5), seed=1)
        outcomes = {
            plan.task_crash(0, 0, 0, context=(0, a)) is not None
            for a in range(32)
        }
        # With rate 0.5 and 32 restart contexts, both outcomes must occur.
        assert outcomes == {True, False}

    def test_slowdown_is_run_scoped(self):
        plan = FaultPlan(FaultSpec(gpu_slowdown_rate=1.0,
                                   gpu_slowdown_factor=3.0), seed=9)
        multiplier, _ = plan.gpu_slowdown(1)
        assert multiplier == 3.0
        assert plan.gpu_slowdown(1) == plan.gpu_slowdown(1)

    def test_with_spec_keeps_seed(self):
        plan = FaultPlan(FaultSpec.chaos(), seed=5)
        quiet = FaultPlan(replace(plan.spec, transfer_fault_rate=0.0),
                          seed=plan.seed)
        assert quiet.seed == 5
        assert quiet.spec.transfer_fault_rate == 0.0
        assert quiet.spec.link_degrade_rate == plan.spec.link_degrade_rate

    def test_describe_names_seed(self):
        assert "seed=7" in FaultPlan(FaultSpec.chaos(), seed=7).describe()


class TestScriptedFaultPlan:
    def test_scripted_overrides_fire(self):
        plan = ScriptedFaultPlan(
            transfer_faults={("W3", 0): 0.25},
            crashes={(2, 1, 0): 0.5},
            slowdowns={1: (2.0, True)},
        )
        assert plan.enabled
        assert plan.transfer_fault("anything", "W3", 0) == 0.25
        assert plan.transfer_fault("anything", "W3", 1) is None
        assert plan.task_crash(2, 1, 0) == Crash(fraction=0.5)
        assert plan.task_crash(2, 1, 1) is None
        assert plan.gpu_slowdown(1) == (2.0, True)
        assert plan.gpu_slowdown(0) == (1.0, False)

    def test_empty_script_disabled(self):
        assert not ScriptedFaultPlan().enabled

    def test_falls_through_to_spec(self):
        plan = ScriptedFaultPlan(spec=FaultSpec(transfer_fault_rate=1.0))
        assert plan.enabled
        assert plan.transfer_fault("e", "l", 0) is not None


class TestRecoveryPolicy:
    @pytest.mark.parametrize("field,value", [
        ("max_task_retries", -1),
        ("max_iteration_restarts", -1),
        ("replan_patience", -1),
        ("max_replans", -1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            RecoveryPolicy(**{field: value})
