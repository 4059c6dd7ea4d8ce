"""Model-level metadata wrapping a layer graph."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.fingerprint import fingerprint
from repro.graph.graph import LayerGraph

#: Extra fp32 state per parameter kept by each optimizer (Adam: two
#: moments; SGD with momentum: one velocity buffer).
OPTIMIZER_SLOTS = {"adam": 2, "sgd": 1, "plain-sgd": 0}


@dataclass(frozen=True)
class ModelSpec:
    """A layer graph plus the training metadata scheduling needs."""

    name: str
    graph: LayerGraph
    optimizer: str
    sample_bytes: int  # one input sample (token ids / image), host side
    description: str = ""

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZER_SLOTS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                f"expected one of {sorted(OPTIMIZER_SLOTS)}"
            )

    @cached_property
    def fingerprint(self) -> str:
        """Content address of everything a plan depends on in the model.

        Every layer's costs, the edge list, the optimizer and the sample
        size -- not the model, graph or description names, so a renamed
        model still hits a memo.  Cached: the graph is immutable, and
        walking a deep model costs milliseconds a memo lookup must not.
        """
        return fingerprint(self.graph.layers, self.graph.edges,
                           self.optimizer, self.sample_bytes)

    @property
    def optimizer_slots(self) -> int:
        return OPTIMIZER_SLOTS[self.optimizer]

    @property
    def n_layers(self) -> int:
        return len(self.graph)

    @property
    def n_parameters(self) -> int:
        return self.graph.n_parameters

    @property
    def weight_bytes(self) -> int:
        return self.graph.total_param_bytes

    @property
    def model_state_bytes(self) -> int:
        """Weights + grads + optimizer state: the persistent footprint."""
        return self.graph.model_state_bytes(self.optimizer_slots)

    def summary(self) -> str:
        return (
            f"{self.name}: {self.n_layers} layers, "
            f"{self.n_parameters / 1e9:.2f}B params, "
            f"{self.optimizer} optimizer, "
            f"model state {self.model_state_bytes / 2**30:.1f} GiB"
        )
