"""The search scores unvalidated candidate graphs; plans are still certified.

``ConfigurationSearch`` estimates each candidate on the builder's
``assemble`` output and only the winner goes through ``build`` (and so
``TaskGraph.validate()``).  Two properties keep that sound:

- every candidate the search explores is a valid graph anyway, so skipping
  its validation hides nothing (an invalid graph is a builder bug that
  aborts planning, never an infeasible candidate to skip);
- a corrupted chosen graph is still refused by every planning entry point.
"""

import pytest

from repro.analysis.inject import inject_illegal_p2p
from repro.common.errors import ScheduleAnalysisError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.taskgraph import HarmonyGraphBuilder
from repro.experiments.common import server_for
from repro.models.zoo import available_models

GPUS = 4
MINIBATCH = 16


@pytest.mark.parametrize("model", available_models())
@pytest.mark.parametrize("mode", ("pp", "dp"))
def test_every_explored_candidate_validates(model, mode):
    options = HarmonyOptions(mode=mode)
    plan = Harmony(model, server_for(GPUS), MINIBATCH, options=options).plan()
    builder = HarmonyGraphBuilder(plan.profiles, GPUS, MINIBATCH,
                                  options.schedule_options())
    assert plan.search.explored
    for explored in plan.search.explored:
        builder.assemble(explored.config).validate()


def _corrupt_assemble(monkeypatch):
    """From now on every assembled graph carries a ghost-peer p2p move:
    the estimator prices it, only validation rejects it."""
    assemble = HarmonyGraphBuilder.assemble

    def corrupted(self, config):
        graph = assemble(self, config)
        inject_illegal_p2p(graph, self.options)
        return graph

    monkeypatch.setattr(HarmonyGraphBuilder, "assemble", corrupted)


@pytest.mark.parametrize("mode", ("pp", "dp"))
def test_plan_rejects_a_corrupted_chosen_graph(mode, monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode=mode))
    _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan()


def test_explicit_config_plan_rejects_a_corrupted_graph(monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode="pp"))
    config = harmony.plan().config
    _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan(config=config)


def test_replan_rejects_a_corrupted_chosen_graph(monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode="pp"))
    harmony.plan()  # the memoized full plan the re-plan reuses
    _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan_for_server(GPUS - 1)
