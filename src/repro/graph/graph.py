"""The layer-level DAG.

Nodes are :class:`~repro.graph.layer.LayerSpec`; edges carry activations
from producer to consumer.  A *chain* graph (every node consumes only its
predecessor) is what the Scheduler packs; branching graphs must first go
through :func:`~repro.graph.sequentialize.sequentialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.common.errors import GraphError
from repro.graph.layer import LayerSpec


@dataclass(frozen=True)
class Edge:
    """Activation flow from layer ``src`` to layer ``dst``."""

    src: int
    dst: int


@dataclass(frozen=True)
class LayerGraph:
    """A DAG of layers, indexed 0..R-1 in topological (definition) order.

    Immutable once built (layers and edges are stored as tuples), so a
    content address derived from it -- ``ModelSpec.fingerprint`` -- can
    be cached without going stale.
    """

    name: str
    layers: tuple[LayerSpec, ...] = ()
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "edges", tuple(self.edges))
        self.validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def chain(cls, name: str, layers: Sequence[LayerSpec]) -> "LayerGraph":
        """Build a pure chain graph from an ordered layer list."""
        indexed = [layer.with_index(i) for i, layer in enumerate(layers)]
        edges = [Edge(i, i + 1) for i in range(len(indexed) - 1)]
        return cls(name=name, layers=indexed, edges=edges)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        for i, layer in enumerate(self.layers):
            if layer.index != i:
                raise GraphError(
                    f"layer at position {i} has index {layer.index}; graphs "
                    "must be indexed densely in topological order"
                )
        n = len(self.layers)
        seen = set()
        for edge in self.edges:
            if not (0 <= edge.src < n and 0 <= edge.dst < n):
                raise GraphError(f"edge {edge} references a missing layer")
            if edge.src >= edge.dst:
                raise GraphError(
                    f"edge {edge} is not forward; layer order must be "
                    "topological"
                )
            if (edge.src, edge.dst) in seen:
                raise GraphError(f"duplicate edge {edge}")
            seen.add((edge.src, edge.dst))

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerSpec:
        return self.layers[index]

    def predecessors(self, index: int) -> list[int]:
        return [e.src for e in self.edges if e.dst == index]

    def successors(self, index: int) -> list[int]:
        return [e.dst for e in self.edges if e.src == index]

    def is_chain(self) -> bool:
        """True if every layer consumes exactly its predecessor's output."""
        expected = {(i, i + 1) for i in range(len(self.layers) - 1)}
        return {(e.src, e.dst) for e in self.edges} == expected

    # -- aggregate stats -----------------------------------------------------

    @property
    def total_param_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)

    @property
    def n_parameters(self) -> int:
        return self.total_param_bytes // 4  # fp32

    def model_state_bytes(self, optimizer_slots: int) -> int:
        """Weights + gradients + optimizer state, the persistent footprint."""
        return self.total_param_bytes * (2 + optimizer_slots)

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self.layers)} layers, "
            f"{self.n_parameters / 1e9:.2f} B params, "
            f"{self.total_param_bytes / 2**30:.1f} GiB weights"
        )


def subchain_layers(graph: LayerGraph, first: int,
                    last: int) -> tuple[LayerSpec, ...]:
    """Layers ``first..last`` inclusive, with bounds checking."""
    if not (0 <= first <= last < len(graph)):
        raise GraphError(f"bad subchain [{first}, {last}] of {len(graph)} layers")
    return graph.layers[first : last + 1]


def iter_packs(boundaries: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Validate a pack list is contiguous and ordered; yields it unchanged."""
    prev_last = -1
    for first, last in boundaries:
        if first != prev_last + 1:
            raise GraphError(
                f"pack ({first}, {last}) does not start right after layer "
                f"{prev_last}; packs must partition the chain contiguously"
            )
        if last < first:
            raise GraphError(f"pack ({first}, {last}) is empty")
        prev_last = last
        yield first, last
