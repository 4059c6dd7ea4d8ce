"""Tests for the layer DAG."""

import pytest

from repro.common.errors import GraphError
from repro.graph.graph import Edge, LayerGraph
from repro.graph.layer import LayerSpec


def spec(i, params=100):
    return LayerSpec(
        index=i, name=f"l{i}", kind="dense", param_bytes=params,
        flops_fwd_per_sample=10.0, act_in_bytes_per_sample=8,
        act_out_bytes_per_sample=8,
    )


@pytest.fixture
def chain():
    return LayerGraph.chain("c", [spec(i) for i in range(5)])


class TestConstruction:
    def test_chain_builder_renumbers(self):
        graph = LayerGraph.chain("c", [spec(9), spec(9), spec(9)])
        assert [l.index for l in graph] == [0, 1, 2]

    def test_chain_has_chain_edges(self, chain):
        assert chain.is_chain()
        assert len(chain.edges) == 4

    def test_dense_index_enforced(self):
        with pytest.raises(GraphError):
            LayerGraph("bad", [spec(0), spec(2)], [])

    def test_backward_edge_rejected(self):
        layers = [spec(0), spec(1)]
        with pytest.raises(GraphError):
            LayerGraph("bad", layers, [Edge(1, 0)])

    def test_duplicate_edge_rejected(self):
        layers = [spec(0), spec(1)]
        with pytest.raises(GraphError):
            LayerGraph("bad", layers, [Edge(0, 1), Edge(0, 1)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            LayerGraph("bad", [spec(0)], [Edge(0, 5)])


class TestQueries:
    def test_len_iter_getitem(self, chain):
        assert len(chain) == 5
        assert chain[2].index == 2
        assert [l.index for l in chain] == list(range(5))

    def test_predecessors_successors(self, chain):
        assert chain.predecessors(2) == [1]
        assert chain.successors(2) == [3]
        assert chain.predecessors(0) == []
        assert chain.successors(4) == []

    def test_branching_is_not_chain(self):
        layers = [spec(0), spec(1), spec(2)]
        graph = LayerGraph("b", layers, [Edge(0, 1), Edge(1, 2), Edge(0, 2)])
        assert not graph.is_chain()

    def test_aggregate_stats(self, chain):
        assert chain.total_param_bytes == 500
        assert chain.n_parameters == 125
        assert chain.model_state_bytes(optimizer_slots=2) == 2000

    def test_summary_mentions_name(self, chain):
        assert "c:" in chain.summary()
