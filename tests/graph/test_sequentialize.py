"""Tests for the branch-sequentialization pass (Figure 6)."""

from repro.graph.graph import Edge, LayerGraph
from repro.graph.layer import LayerSpec
from repro.graph.sequentialize import sequentialize


def spec(i, out_bytes=10):
    return LayerSpec(
        index=i, name=f"l{i}", kind="dense", param_bytes=100,
        flops_fwd_per_sample=10.0, act_in_bytes_per_sample=out_bytes,
        act_out_bytes_per_sample=out_bytes,
    )


class TestSequentialize:
    def test_chain_returned_unchanged(self):
        chain = LayerGraph.chain("c", [spec(i) for i in range(3)])
        assert sequentialize(chain) is chain

    def test_skip_edge_becomes_carried_payload(self):
        # 0 -> 1 -> 2 -> 3 plus a skip 0 -> 3 (residual over 1, 2).
        layers = [spec(i) for i in range(4)]
        edges = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)]
        graph = LayerGraph("res", layers, edges)
        chain = sequentialize(graph)
        assert chain.is_chain()
        # Layers 1 and 2 carry layer 0's 10-byte output alongside their own.
        assert chain[1].act_out_bytes_per_sample == 20
        assert chain[2].act_out_bytes_per_sample == 20
        assert chain[2].act_in_bytes_per_sample == 20
        # The destination's input includes the relayed payload.
        assert chain[3].act_in_bytes_per_sample == 20

    def test_boundary_layers_unchanged(self):
        layers = [spec(i) for i in range(4)]
        edges = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)]
        chain = sequentialize(LayerGraph("res", layers, edges))
        assert chain[0].act_out_bytes_per_sample == 10
        assert chain[3].act_out_bytes_per_sample == 10

    def test_layer_count_preserved(self):
        layers = [spec(i) for i in range(6)]
        edges = [Edge(i, i + 1) for i in range(5)] + [Edge(1, 4)]
        chain = sequentialize(LayerGraph("g", layers, edges))
        assert len(chain) == 6

    def test_overlapping_skips_accumulate(self):
        layers = [spec(i) for i in range(5)]
        edges = [Edge(i, i + 1) for i in range(4)] + [Edge(0, 3), Edge(1, 4)]
        chain = sequentialize(LayerGraph("g", layers, edges))
        # Layer 2 is inside both skips: carries both payloads.
        assert chain[2].act_out_bytes_per_sample == 30

    def test_compute_costs_untouched(self):
        layers = [spec(i) for i in range(4)]
        edges = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)]
        chain = sequentialize(LayerGraph("g", layers, edges))
        for before, after in zip(layers, chain):
            assert after.flops_fwd_per_sample == before.flops_fwd_per_sample
            assert after.param_bytes == before.param_bytes
