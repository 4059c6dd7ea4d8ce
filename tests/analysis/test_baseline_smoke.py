"""Satellite smoke: every baseline planner's schedule passes the analyzer.

The one exception is declared, not hidden: the ZeRO-Infinity analog
models the real system's memory-throttled transfer engine with the
Runtime's two fetch slots at *pack* granularity, so the pack-level
double-buffer bound (``capacity/gpu``) over-approximates the true peak.
The scheme carries an explicit :class:`~repro.analysis.Waiver` for
exactly that rule -- the findings still surface in the report as INFO with the justification attached, and
the analyzer turns any *unmatched* waiver into an error, so the waiver
dies with the violation it excuses.
"""

from functools import partial

import pytest

from repro.analysis import Waiver, analyze
from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.experiments.common import server_for

PLANNERS = (
    DpSwapPlanner,
    GpipeSwapPlanner,
    partial(GpipeSwapPlanner, recompute=True),
    PipeDream2BWPlanner,
    partial(PipeDream2BWPlanner, recompute=True),
    ZeroInfinityPlanner,
)


def scheme_name(make) -> str:
    """The ``name`` an instance reports (recompute variants add ``-r``)."""
    return make("toy-transformer", server_for(4), 32).name


def analyzed(make, waivers=None):
    server = server_for(4)
    scheme = make("bert-large", server, 32)
    plan = scheme.plan()
    return analyze(
        plan.graph,
        server=server,
        host_state_bytes=plan.host_state_bytes,
        prefetch=not scheme.reactive,
        waivers=scheme.waivers if waivers is None else waivers,
    )


@pytest.mark.parametrize("make", PLANNERS, ids=scheme_name)
def test_baseline_schedule_analyzes_clean(make):
    report = analyzed(make)
    assert report.ok and not report.warnings, report.describe()


class TestZeroInfinityWaiver:
    def test_waived_findings_surface_as_info(self):
        report = analyzed(ZeroInfinityPlanner)
        assert report.ok, report.describe()
        # The waived findings are demoted, not silenced: the report
        # names the original rule and carries the justification.
        waived = report.by_rule("waiver/capacity.gpu")
        assert waived and all(
            "watermark" in (d.hint or "") for d in waived
        ), report.describe()

    def test_waiver_is_load_bearing(self):
        # Without the waiver the violations come back as errors; if the
        # planner stops over-approximating, remove the waiver.
        report = analyzed(ZeroInfinityPlanner, waivers=())
        assert report.has("capacity/gpu"), report.describe()

    def test_unmatched_waiver_is_an_error(self):
        report = analyzed(
            DpSwapPlanner,
            waivers=(Waiver("capacity/gpu", "does not apply here"),),
        )
        assert not report.ok
        assert report.has("waiver/unused"), report.describe()
