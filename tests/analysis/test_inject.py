"""The seeded-defect injectors and the runtime gates around the analyzer."""

import pytest

from repro.analysis import INJECTIONS, ScheduleAnalysisError, analyze, inject
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for


def toy_plan(options):
    server = server_for(4)
    return server, Harmony(
        "toy-transformer", server, 16, options=options
    ).plan()


@pytest.mark.parametrize("defect", sorted(INJECTIONS))
def test_each_injected_defect_trips_exactly_its_rules(defect):
    options = HarmonyOptions(mode="pp")
    server, plan = toy_plan(options)
    harmony = Harmony("toy-transformer", server, 16, options=options)
    sched_options, expected = inject(defect, plan.graph, options.schedule_options())
    report = analyze(
        plan.graph, server=server, options=sched_options,
        host_state_bytes=harmony.host_state_bytes,
        prefetch=sched_options.prefetch,
    )
    # Zero false negatives (every named rule fires) *and* zero
    # collateral findings (nothing else does).
    assert {d.rule for d in report.errors} == set(expected), report.describe()


def test_unknown_defect_rejected():
    options = HarmonyOptions(mode="pp")
    _server, plan = toy_plan(options)
    with pytest.raises(KeyError, match="unknown defect"):
        inject("nonsense", plan.graph, options.schedule_options())


class TestHarmonyGate:
    def test_strict_mode_passes_clean_schedule(self):
        options = HarmonyOptions(mode="pp", analyze="strict")
        _server, plan = toy_plan(options)
        harmony = Harmony("toy-transformer", server_for(4), 16,
                          options=options)
        report = harmony.run(plan)
        assert report.metrics.iteration_time > 0

    def test_strict_mode_rejects_injected_defect(self):
        options = HarmonyOptions(mode="pp", analyze="strict")
        server, plan = toy_plan(options)
        inject("illegal-p2p", plan.graph, options.schedule_options())
        harmony = Harmony("toy-transformer", server, 16, options=options)
        with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
            harmony.run(plan)

    @pytest.mark.no_graph_analysis  # the defect must reach the Executor
    def test_warn_mode_prints_but_runs(self, capsys):
        # use-before-produce is a pure dataflow defect: the simulator
        # happily transfers the phantom bytes, so warn mode can both
        # report it and still complete the run.
        options = HarmonyOptions(mode="pp", analyze="warn")
        server, plan = toy_plan(options)
        inject("use-before-produce", plan.graph, options.schedule_options())
        harmony = Harmony("toy-transformer", server, 16, options=options)
        report = harmony.run(plan)
        assert report.metrics.iteration_time > 0
        assert "dataflow/use-before-produce" in capsys.readouterr().err

    def test_bad_analyze_value_rejected(self):
        with pytest.raises(ValueError, match="analyze"):
            HarmonyOptions(analyze="loud")
