"""DeviceBinding is the one device rewrite.

The elastic replanner relabels a survivor plan's logical devices onto
the surviving physical ids, and the fault runner rebinds a troubled
device onto a spare; both are a ``DeviceBinding`` applied to a graph.
The replanner's executable graph must equal the binding applied to its
plan (dataclass equality covers tasks, devices, move lists, channels),
and every task and move peer must land where the mapping says.
"""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.elastic import ElasticReplanner
from repro.experiments.common import server_for
from repro.virt import DeviceBinding, VirtualTopology

#: Survivor subsets of a 4-GPU server: (survivor ids, logical->physical).
SURVIVOR_CASES = (
    ((0, 1, 2), {0: 0, 1: 1, 2: 2}),
    ((0, 2, 3), {0: 0, 1: 2, 2: 3}),
    ((1, 3), {0: 1, 1: 3}),
    ((2,), {0: 2}),
)


@pytest.fixture(scope="module")
def harmony():
    return Harmony("toy-transformer", server_for(4), 16,
                   options=HarmonyOptions(mode="pp"))


def assert_follows(graph, bound, mapping):
    """Every task and move peer of ``bound`` is ``graph``'s, mapped."""
    for old, new in zip(graph.tasks, bound.tasks, strict=True):
        assert new.device == mapping.get(old.device, old.device)
        for (_, before), (_, after) in zip(old.moves(), new.moves(),
                                           strict=True):
            if after.peer is not None:
                assert after.peer == mapping.get(before.peer, before.peer)


@pytest.mark.parametrize("survivors,mapping", SURVIVOR_CASES,
                         ids=["-".join(map(str, s))
                              for s, _ in SURVIVOR_CASES])
def test_binding_matches_relabel_on_survivor_subsets(
        harmony, survivors, mapping):
    eplan = ElasticReplanner(harmony).replan(survivors)
    binding = DeviceBinding.from_mapping(
        mapping, len(survivors), VirtualTopology.uniform(4),
    )
    bound = binding.apply(eplan.plan.graph)
    assert bound == eplan.graph
    assert bound.n_devices == 4
    assert bound.p2p_bytes() == eplan.plan.graph.p2p_bytes()
    assert_follows(eplan.plan.graph, bound, mapping)


def test_binding_matches_recovery_rebind(harmony):
    """The recovery rebind (degraded -> spare) is the same rewrite."""
    plan = harmony.plan_for_server(3)
    mapping = {1: 3}  # gpu1 degraded, gpu3 is the spare
    bound = DeviceBinding.from_mapping(
        mapping, 3, VirtualTopology.uniform(4),
    ).apply(plan.graph)
    assert bound.n_devices == 4
    assert {t.device for t in bound.tasks} == {0, 2, 3}
    assert bound.p2p_bytes() == plan.graph.p2p_bytes()
    assert_follows(plan.graph, bound, mapping)
    bound.validate()
