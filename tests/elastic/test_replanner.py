"""Online re-planning: reduced servers, memoized subset plans, relabeling.

These tests drive :meth:`Harmony.plan_for_server` and
:class:`ElasticReplanner` directly -- the same entry points the
fault-tolerant runner escalates through when a device is lost with no
spare.
"""

import pytest

from repro.analysis import analyze
from repro.common.errors import SchedulingError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.elastic import ElasticReplanner
from repro.experiments.common import server_for


class TestReducedServer:
    def test_shape(self, toy_pp):
        reduced = toy_pp.reduced_server(1)
        assert reduced.n_gpus == 1
        assert reduced.topology.n_gpus == 1
        assert reduced.gpu is toy_pp.server.gpu
        assert reduced.host is toy_pp.server.host

    def test_range_validated(self, toy_pp):
        with pytest.raises(ValueError):
            toy_pp.reduced_server(0)
        with pytest.raises(ValueError):
            toy_pp.reduced_server(3)


class TestPlanForServer:
    def test_memoized(self, toy_pp):
        first = toy_pp.plan_for_server(1)
        assert toy_pp.plan_for_server(1) is first

    def test_full_count_reuses_base_plan(self, toy_pp):
        assert toy_pp.plan_for_server(2) is toy_pp.plan()

    def test_reduced_plan_fits_survivor_count(self, toy_pp):
        plan = toy_pp.plan_for_server(1)
        assert plan.server.n_gpus == 1
        assert {t.device for t in plan.graph.tasks} == {0}
        # the full plan's decomposition and profile-store entry: the
        # model did not change, only the machine shrank
        assert plan.profiles.layers is toy_pp.plan().profiles.layers
        assert plan.decomposed == toy_pp.plan().decomposed

    def test_dp_falls_back_to_pp_when_minibatch_cannot_split(self):
        # minibatch 8 across 3 survivors: DP needs an even split, the
        # wrap-around pipeline does not.
        harmony = Harmony(
            "toy-transformer", server_for(4), minibatch=8,
            options=HarmonyOptions(mode="dp"),
        )
        plan = harmony.plan_for_server(3)
        assert plan.options.mode == "pp"
        assert plan.server.n_gpus == 3

    def test_dp_kept_when_minibatch_splits(self, toy_dp):
        plan = toy_dp.plan_for_server(1)
        assert plan.options.mode == "dp"


class TestElasticReplanner:
    def test_replan_binds_only_survivors(self, toy_pp):
        eplan = ElasticReplanner(toy_pp).replan([1])
        assert eplan.survivors == (1,)
        assert {t.device for t in eplan.graph.tasks} == {1}
        # relabeled graph keeps the *full* server's device range so
        # per-device metric arrays stay sized
        assert eplan.graph.n_devices == toy_pp.server.n_gpus
        assert eplan.mode == "pp"
        assert not eplan.mode_switched

    def test_replan_passes_strict_analysis_on_reduced_spec(self, toy_pp):
        eplan = ElasticReplanner(toy_pp).replan([0])
        report = analyze(
            eplan.plan.graph,
            server=eplan.plan.server,
            options=eplan.plan.options.schedule_options(),
            host_state_bytes=toy_pp.host_state_bytes,
            prefetch=eplan.plan.options.prefetch,
        )
        assert report.ok, report.describe()

    def test_mode_switch_reported(self):
        harmony = Harmony(
            "toy-transformer", server_for(4), minibatch=8,
            options=HarmonyOptions(mode="dp"),
        )
        eplan = ElasticReplanner(harmony).replan([0, 2, 3])
        assert eplan.mode == "pp"
        assert eplan.mode_switched
        assert {t.device for t in eplan.graph.tasks} == {0, 2, 3}
        assert "mode switch" in eplan.describe()

    def test_survivors_deduped_and_sorted(self, toy_pp):
        eplan = ElasticReplanner(toy_pp).replan([1, 1, 0])
        assert eplan.survivors == (0, 1)

    def test_no_survivors_rejected(self, toy_pp):
        with pytest.raises(SchedulingError, match="no surviving"):
            ElasticReplanner(toy_pp).replan([])

    def test_out_of_range_survivor_rejected(self, toy_pp):
        with pytest.raises(SchedulingError, match="outside"):
            ElasticReplanner(toy_pp).replan([0, 7])
