"""The elastic relabel: a ``DeviceBinding`` applied to a survivor plan.

The replanner maps a fresh plan's logical devices ``0..k-1`` onto the
surviving physical GPUs with ``DeviceBinding.from_mapping(...).apply``.
The mapping applies simultaneously, so a target may also be a source,
and an injective map never collapses a P2P move.  The recovery rebind
onto a spare is the same rewrite (tests/faults/test_recovery.py).
"""

import pytest

from repro.core.types import Channel
from repro.virt import DeviceBinding, VirtualTopology


def relabel(graph, mapping, n_physical=None):
    n = graph.n_devices if n_physical is None else n_physical
    return DeviceBinding.from_mapping(
        mapping, graph.n_devices, VirtualTopology.uniform(n),
    ).apply(graph)


class TestRelabelGraph:
    def test_target_may_equal_another_source(self, toy_pp):
        # {0: 1, 1: 2} relabels simultaneously: old-gpu0 tasks land on
        # gpu1, old-gpu1 tasks on gpu2 -- nothing collapses.
        graph = toy_pp.plan().graph
        moved = relabel(graph, {0: 1, 1: 2}, 4)
        assert {t.device for t in moved.tasks} == {1, 2}
        assert moved.p2p_bytes() == graph.p2p_bytes()
        moved.validate()

    def test_swap_is_legal(self, toy_pp):
        graph = toy_pp.plan().graph
        swapped = relabel(graph, {0: 1, 1: 0})
        assert {t.device for t in swapped.tasks} == {0, 1}
        assert swapped.p2p_bytes() == graph.p2p_bytes()
        swapped.validate()

    def test_out_of_range_target_rejected(self, toy_pp):
        graph = toy_pp.plan().graph
        with pytest.raises(ValueError, match="outside"):
            relabel(graph, {0: 5})

    def test_no_spurious_p2p_collapse(self, toy_pp):
        # Distinct targets keep every P2P move a real transfer; only a
        # genuine endpoint collision may become LOCAL, and an injective
        # relabel never creates one.
        graph = toy_pp.plan().graph
        assert graph.p2p_bytes() > 0
        moved = relabel(graph, {0: 3, 1: 2}, 4)
        channels = [
            m.channel for t in moved.tasks for _, m in t.moves()
        ]
        assert channels.count(Channel.P2P) == [
            m.channel for t in graph.tasks for _, m in t.moves()
        ].count(Channel.P2P)

    def test_original_graph_untouched(self, toy_pp):
        graph = toy_pp.plan().graph
        before = [(t.tid, t.device) for t in graph.tasks]
        relabel(graph, {0: 1, 1: 0})
        assert [(t.tid, t.device) for t in graph.tasks] == before

    def test_n_devices_widens_device_range(self, toy_pp):
        graph = toy_pp.plan().graph
        moved = relabel(graph, {1: 3}, 4)
        assert moved.n_devices == 4
