"""The search scores unvalidated candidate schedules; plans are still certified.

``ConfigurationSearch`` estimates each candidate on the builder's flat
schedule records and only the winner becomes a graph, through ``build``
(``assemble``, then ``TaskGraph.validate()``).  Two properties keep that
sound:

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


def _corrupt_assemble(monkeypatch) -> list[int]:
    """From now on every assembled graph carries a ghost-peer p2p move:
    the estimator would price it, only validation rejects it.

    ``assemble`` is the one path by which ``build`` makes a graph; the
    returned counter records each injection, so a test fails rather than
    passing vacuously if graphs stop coming through it."""
    assemble = HarmonyGraphBuilder.assemble
    injected = [0]

    def corrupted(self, config):
        graph = assemble(self, config)
        inject_illegal_p2p(graph, self.options)
        injected[0] += 1
        return graph

    monkeypatch.setattr(HarmonyGraphBuilder, "assemble", corrupted)
    return injected


@pytest.mark.parametrize("mode", ("pp", "dp"))
def test_plan_rejects_a_corrupted_chosen_graph(mode, monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode=mode))
    injected = _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan()
    assert injected[0] == 1, "only the winner is assembled"


def test_explicit_config_plan_rejects_a_corrupted_graph(monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode="pp"))
    config = harmony.plan().config
    injected = _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan(config=config)
    assert injected[0] == 1


def test_replan_rejects_a_corrupted_chosen_graph(monkeypatch):
    harmony = Harmony("toy-transformer", server_for(GPUS), MINIBATCH,
                      options=HarmonyOptions(mode="pp"))
    harmony.plan()  # the memoized full plan the re-plan reuses
    injected = _corrupt_assemble(monkeypatch)
    with pytest.raises(ScheduleAnalysisError, match="channel/bad-peer"):
        harmony.plan_for_server(GPUS - 1)
    assert injected[0] == 1
