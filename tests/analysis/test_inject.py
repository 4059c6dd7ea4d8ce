"""The seeded-defect injectors: each trips exactly the rules it names."""

import pytest

from repro.analysis import INJECTIONS, analyze, inject
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

