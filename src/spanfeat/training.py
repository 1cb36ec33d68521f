"""Optimizers and the training loop.

Two recipes: SGD with momentum for the sequence taggers (with global-norm
gradient clipping) and Adadelta for the span classifiers. Each minibatch is
one tape: the model's ``batch_loss`` returns the batch-mean loss, and one
backward pass from it leaves the batch-mean gradient in every parameter.
Every model runs the whole batch as one forward over its rows packed end
to end, so the tape holds the same number of nodes whatever the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import CLASSIFIER_ARCHS, TAGGER_ARCHS
from .tensor import Tape, Tensor

__all__ = [
    "MOMENTUM",
    "ADADELTA_RHO",
    "ADADELTA_EPSILON",
    "SgdMomentumConfig",
    "AdadeltaConfig",
    "SgdMomentum",
    "Adadelta",
    "TrainingError",
    "EpochRecord",
    "train",
    "history_lines",
    "recipe_for",
]


class TrainingError(RuntimeError):
    pass


# the fixed constants of the two recipes: SGD's momentum, and Adadelta's
# decay and conditioning term as Zeiler (2012, arXiv:1212.5701) sets them
MOMENTUM = 0.9
ADADELTA_RHO = 0.95
ADADELTA_EPSILON = 1e-6


@dataclass
class _RecipeConfig:
    """What a recipe leaves to its caller: step size, batch size, epochs and
    the seed of the shuffles."""

    learning_rate: float
    batch_size: int
    epochs: int = 30
    seed: int = 13

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be a finite number, got {self.learning_rate!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be at least 1")


@dataclass
class SgdMomentumConfig(_RecipeConfig):
    learning_rate: float = 0.0015
    batch_size: int = 10


@dataclass
class AdadeltaConfig(_RecipeConfig):
    learning_rate: float = 1.0
    batch_size: int = 50


class SgdMomentum:
    def __init__(self, params: dict[str, Tensor], config: SgdMomentumConfig) -> None:
        self.config = config
        self.params = dict(sorted(params.items()))
        self.velocity = {name: np.zeros_like(t.values) for name, t in self.params.items()}

    def step(self) -> None:
        lr = self.config.learning_rate
        for name, t in self.params.items():
            v = self.velocity[name]
            v *= MOMENTUM
            v += t.grad
            t.values -= lr * v


class Adadelta:
    """Per-element step sizes from running averages of squared gradients and
    squared updates; the update average folds in each step after applying it."""

    def __init__(self, params: dict[str, Tensor], config: AdadeltaConfig) -> None:
        self.config = config
        self.params = dict(sorted(params.items()))
        self.grad_sq = {name: np.zeros_like(t.values) for name, t in self.params.items()}
        self.delta_sq = {name: np.zeros_like(t.values) for name, t in self.params.items()}

    def step(self) -> None:
        lr, rho, eps = self.config.learning_rate, ADADELTA_RHO, ADADELTA_EPSILON
        for name, t in self.params.items():
            g = t.grad
            g2 = self.grad_sq[name]
            d2 = self.delta_sq[name]
            g2 *= rho
            g2 += (1.0 - rho) * g * g
            delta = -lr * np.sqrt((d2 + eps) / (g2 + eps)) * g
            t.values += delta
            d2 *= rho
            d2 += (1.0 - rho) * delta * delta


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_metric: float | None


def history_lines(history: Sequence[EpochRecord]) -> str:
    lines = []
    for r in history:
        dev = "" if r.dev_metric is None else f" dev_metric={r.dev_metric!r}"
        lines.append(f"epoch={r.epoch} train_loss={r.train_loss!r}{dev}")
    return "\n".join(lines) + "\n"


def _global_norm_clip(params: dict[str, Tensor], max_norm: float) -> None:
    total = 0.0
    for t in params.values():
        total += float((t.grad * t.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            t.grad *= scale


def train(
    model,
    examples: Sequence,
    config: SgdMomentumConfig | AdadeltaConfig,
    dev_examples: Sequence | None = None,
    metric: Callable | None = None,
    grad_clip: float | None = None,
) -> list[EpochRecord]:
    """Run the mini-batch loop; the model ends at its dev-best parameters.

    Shuffling, batching, and optimizer state are all derived from config.seed,
    so a rerun with identical inputs reproduces the history exactly. A
    non-finite loss aborts with the offending epoch and batch in the message.
    With no dev set (or no metric) the final parameters are kept; an empty
    dev set with a metric is an error, since its metric could not rank
    the epochs. A model with a read-only parameter, such as a loaded one,
    is refused before the first batch.
    """
    if not examples:
        raise TrainingError("training corpus is empty")
    track_dev = dev_examples is not None and metric is not None
    if track_dev and not dev_examples:
        raise TrainingError("dev set is empty")
    params = model.parameters()
    read_only = next((name for name, t in params.items() if not t.values.flags.writeable), None)
    if read_only is not None:  # a loaded model's, say: the first step would fail to write it
        raise TrainingError(f"parameter {read_only!r} is read-only, so the model cannot be trained")
    if isinstance(config, SgdMomentumConfig):
        optimizer = SgdMomentum(params, config)
    else:
        optimizer = Adadelta(params, config)
    rng = np.random.default_rng(config.seed)

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_snapshot: dict[str, np.ndarray] | None = None
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for batch_start in range(0, len(order), config.batch_size):
            batch = [examples[int(i)] for i in order[batch_start : batch_start + config.batch_size]]
            for t in params.values():
                t.zero_grad()
            with Tape() as tape:
                loss = model.batch_loss(batch)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"batch {batch_start // config.batch_size}"
                )
            epoch_loss += value * len(batch)
            tape.backward(loss)
            if grad_clip is not None:
                _global_norm_clip(params, grad_clip)
            optimizer.step()
        dev_value = None
        if track_dev:
            dev_value = float(metric(model, dev_examples))
            if dev_value > best_metric:
                best_metric = dev_value
                best_snapshot = {name: t.values.copy() for name, t in params.items()}
        history.append(EpochRecord(epoch, epoch_loss / len(examples), dev_value))
    if best_snapshot is not None:
        for name, t in params.items():
            t.values[...] = best_snapshot[name]
    return history


TAGGER_CLIP_NORM = 5.0


def recipe_for(architecture: str, epochs: int = 30, seed: int = 13):
    """Stock optimizer and clipping choices for an architecture tag.

    Returns (optimizer config, grad_clip). Taggers train with SGD+momentum and
    a 5.0 global-norm clip; classifiers with Adadelta and no clipping.
    """
    if architecture in TAGGER_ARCHS:
        return SgdMomentumConfig(epochs=epochs, seed=seed), TAGGER_CLIP_NORM
    if architecture in CLASSIFIER_ARCHS:
        return AdadeltaConfig(epochs=epochs, seed=seed), None
    raise ValueError(f"unknown architecture tag {architecture!r}")
