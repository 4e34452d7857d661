"""The three classifier architectures and their training loop."""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DivergenceError, ShapeError, ValidationError
from .features import EvaluationInstance
from .nn import (GRU, Conv1D, Dense, Flatten, MaxPool1D, Network,
                 conv_lengths)

HIDDEN_SIZE = 32
# Scalars fed to the GRU per timestep. Chunking keeps the sequence short
# enough for plain SGD to carry gradients across the whole feature vector.
GRU_STEP = 8
DEFAULT_EPOCHS = 50
DEFAULT_BATCH_SIZE = 32
DEFAULT_LEARNING_RATE = 0.01

# Early stop when loss improvement stays below this over PATIENCE epochs.
LOSS_IMPROVEMENT_EPS = 1e-6
PATIENCE = 5
# An epoch's mean loss above ten times that of predicting 0.5 everywhere
# (ln 2) counts as divergence.
DIVERGED_LOSS = 10 * np.log(2.0)


class Architecture(str, Enum):
    SCNN = "scnn"
    DCNN = "dcnn"
    GRU = "gru"

    @classmethod
    def parse(cls, name: str) -> "Architecture":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValidationError(f"unknown architecture {name!r}") from None


def _conv_stack(deep: bool) -> list:
    layers = [
        Conv1D(16, 3, in_channels=1, activation="linear"),
        Conv1D(16, 3, in_channels=16, activation="tanh"),
        MaxPool1D(3),
        Conv1D(16, 3, in_channels=16, activation="tanh"),
        Conv1D(16, 3, in_channels=16, activation="tanh"),
        MaxPool1D(3),
    ]
    if deep:
        layers += [
            Conv1D(16, 3, in_channels=16, activation="tanh"),
            Conv1D(16, 3, in_channels=16, activation="tanh"),
            MaxPool1D(3),
        ]
    return layers


def build(arch: Architecture | str, input_len: int, seed: int = 0) -> Network:
    """Construct and initialize one architecture for a fixed input length."""
    arch = Architecture.parse(arch)
    if arch is Architecture.GRU:
        layers = [GRU(HIDDEN_SIZE, GRU_STEP),
                  Dense(1, HIDDEN_SIZE, "sigmoid")]
    else:
        stack = _conv_stack(deep=arch is Architecture.DCNN)
        try:
            length = conv_lengths(stack, input_len)[-1]
        except ShapeError as exc:
            raise ShapeError(f"{arch.value} {exc}") from exc
        layers = stack + [Flatten(), Dense(1, 16 * length, "sigmoid")]
    net = Network(layers, arch=arch.value, input_len=input_len, seed=seed)
    net.initialize()
    return net


def _stack_vectors(instances: list[EvaluationInstance]) -> np.ndarray:
    if not instances:
        raise ValidationError("corpus is empty")
    lengths = {inst.vector.size for inst in instances}
    if len(lengths) > 1:
        raise ValidationError(
            f"instances must all have one length, saw {sorted(lengths)}")
    return np.stack([inst.vector for inst in instances])


def train(net: Network, corpus: list[EvaluationInstance],
          epochs: int = DEFAULT_EPOCHS, batch_size: int = DEFAULT_BATCH_SIZE,
          learning_rate: float = DEFAULT_LEARNING_RATE,
          seed: int = 0) -> list[dict]:
    """Mini-batch SGD over stratified seeded shuffles of the corpus.

    Returns one log entry per epoch: epoch index, mean loss, and training
    accuracy (measured on the pre-update batch predictions). Stops early on
    perfect accuracy or a stalled loss; raises DivergenceError when an
    epoch's mean loss is not at most DIVERGED_LOSS (NaN included).
    """
    x = _stack_vectors(corpus)
    if any(inst.label is None for inst in corpus):
        raise ValidationError("training instances must be labeled")
    y = np.array([inst.label for inst in corpus], dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    log: list[dict] = []
    best_loss = np.inf
    stalled = 0
    for epoch in range(epochs):
        order = _stratified_order(rng, y)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, probs = net.loss_and_backward(x[idx], y[idx])
            net.sgd_step(learning_rate)
            total_loss += loss * idx.size
            correct += int(((probs >= 0.5) == (y[idx] == 1)).sum())
        mean_loss = total_loss / n
        if not mean_loss <= DIVERGED_LOSS:
            raise DivergenceError(
                f"training diverged: epoch {epoch} mean loss {mean_loss:.4g} "
                f"exceeds {DIVERGED_LOSS:.4g}")
        accuracy = correct / n
        log.append({"epoch": epoch, "loss": mean_loss, "accuracy": accuracy})
        if accuracy >= 1.0:
            break
        if best_loss - mean_loss < LOSS_IMPROVEMENT_EPS:
            stalled += 1
            if stalled >= PATIENCE:
                break
        else:
            stalled = 0
        best_loss = min(best_loss, mean_loss)
    return log


def _stratified_order(rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """A seeded shuffle that spreads each label evenly over the epoch, so
    every batch holds about the corpus's share of each label.

    With plain shuffles, each step pulls the head's bias towards its own
    batch's label share and the next batch pays for it: on a small corpus
    that swing in the epoch's mean loss outweighs an epoch's progress
    (Zhao & Zhang, 2014, "Accelerating Minibatch Stochastic Gradient
    Descent using Stratified Sampling").
    """
    order = rng.permutation(y.size)
    key = np.empty(y.size)
    for label in (0, 1):
        members = order[y[order] == label]
        key[members] = ((np.arange(members.size) + rng.random(members.size))
                        / members.size)
    return np.argsort(key, kind="stable")


def predict(net: Network, instance: EvaluationInstance) -> float:
    """Probability that the new storage beats the old one."""
    return float(predict_batch(net, [instance])[0])


def predict_batch(net: Network,
                  instances: list[EvaluationInstance]) -> np.ndarray:
    x = _stack_vectors(instances)
    chunks = [net.forward(x[i:i + 256]) for i in range(0, x.shape[0], 256)]
    return np.concatenate(chunks)
