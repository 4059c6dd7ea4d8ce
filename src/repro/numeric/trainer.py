"""The single-device, no-swap reference training loop.

This is the "baseline code" of Figures 12/19: whole-minibatch forward,
whole-minibatch backward, one optimizer step -- the semantics Harmony's
schedules must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numeric.data import Dataset
from repro.numeric.model import SequentialModel
from repro.numeric.optim import Optimizer


@dataclass
class TrainCurve:
    """Per-minibatch losses plus final evaluation quality."""

    losses: list[float] = field(default_factory=list)
    eval_accuracy: float = 0.0
    eval_loss: float = 0.0


class ReferenceTrainer:
    """Full-batch training, recording the loss of every minibatch."""

    def __init__(self, model: SequentialModel, optimizer: Optimizer):
        self.model = model
        self.optimizer = optimizer

    def train_iteration(self, x: np.ndarray, y: np.ndarray) -> float:
        self.model.zero_grad()
        loss, stashes = self.model.forward(x, y)
        self.model.backward(stashes)
        self.optimizer.step(self.model.parameters(), self.model.gradients())
        return loss

    def train(self, dataset: Dataset, batch_size: int, epochs: int = 1) -> TrainCurve:
        curve = TrainCurve()
        for _ in range(epochs):
            for x, y in dataset.minibatches(batch_size):
                curve.losses.append(self.train_iteration(x, y))
        curve.eval_accuracy = self.evaluate(dataset)
        return curve

    def evaluate(self, dataset: Dataset) -> float:
        predictions = self.model.predict(dataset.x_eval)
        return float((predictions == dataset.y_eval).mean())

    def eval_loss(self, dataset: Dataset) -> float:
        loss, _ = self.model.forward(dataset.x_eval, dataset.y_eval)
        return loss
