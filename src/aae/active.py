"""Active-learning driver plus the evaluation harnesses built on it.

The loop alternates sampling-and-labeling with retirement: points the
current model classifies with confidence >= T leave the unlabeled pool
without spending a label. Reports track label spend and accuracy against
the pool's hidden labels.
"""
from __future__ import annotations

import math

import numpy as np

from .classifiers import Architecture, build, predict_batch, train
from .errors import ValidationError
from .features import EvaluationInstance


def evaluate(net, instances: list[EvaluationInstance]) -> float:
    """Fraction of hard-label matches on a labeled set."""
    if not instances:
        raise ValidationError("cannot evaluate on an empty set")
    if any(inst.label is None for inst in instances):
        raise ValidationError("evaluation instances must be labeled")
    probs = predict_batch(net, instances)
    labels = np.array([inst.label for inst in instances])
    return float(((probs >= 0.5) == (labels == 1)).mean())


def active_loop(pool: list[EvaluationInstance], arch: Architecture | str,
                threshold: float, sample_fraction: float,
                max_rounds: int = 20, seed: int = 0,
                uncertainty_sampling: bool = False,
                train_kwargs: dict | None = None):
    """Run the sample / train / retire loop over a hidden-label pool.

    Returns (trained network, per-round report rows). Pool labels are
    treated as hidden: they are revealed only for sampled instances; the
    reports additionally compare predictions on retired and remaining
    unlabeled points against the hidden labels.

    The whole pool is scored once per round, after training; retirement,
    both report accuracies and the next round's uncertainty ranking all
    read that one probability vector.
    """
    if not pool:
        raise ValidationError("pool is empty")
    if not 0.5 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0.5, 1]")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValidationError("sample_fraction must lie in (0, 1]")
    if any(inst.label is None for inst in pool):
        raise ValidationError("pool instances must carry oracle labels")

    rng = np.random.default_rng(seed)
    input_len = pool[0].vector.size
    net = build(arch, input_len, seed=seed)

    per_round = max(1, math.ceil(sample_fraction * len(pool)))
    # Pool indices: unlabeled ascending, labeled in purchase order.
    unlabeled = np.arange(len(pool))
    labeled = np.empty(0, dtype=unlabeled.dtype)
    retired = np.empty(0, dtype=unlabeled.dtype)
    report: list[dict] = []

    hidden = np.array([inst.label for inst in pool])
    confidence = None
    while unlabeled.size and len(report) < max_rounds:
        take = min(per_round, unlabeled.size)
        if uncertainty_sampling and labeled.size:
            picked = unlabeled[np.argsort(confidence[unlabeled])[:take]]
        else:
            picked = rng.choice(unlabeled, size=take, replace=False)
        picked = np.sort(picked)
        unlabeled = np.setdiff1d(unlabeled, picked, assume_unique=True)
        labeled = np.concatenate([labeled, picked])

        train(net, [pool[i] for i in labeled],
              seed=seed + len(report), **(train_kwargs or {}))

        probs = predict_batch(net, pool)
        confidence = np.maximum(probs, 1.0 - probs)
        correct = (probs >= 0.5) == (hidden == 1)
        confident = confidence[unlabeled] >= threshold
        retired = np.concatenate([retired, unlabeled[confident]])
        unlabeled = unlabeled[~confident]

        rest = np.delete(correct, labeled)  # retired and unlabeled rows
        report.append({
            "round": len(report) + 1,
            "labeled": labeled.size,
            "unlabeled": unlabeled.size,
            "retired": retired.size,
            "labeled_accuracy": float(correct[labeled].mean()),
            "unlabeled_accuracy": (float(rest.mean()) if rest.size
                                   else float("nan")),
        })
    return net, report


def _fit(corpus, arch, rows, seed: int, train_kwargs: dict | None):
    net = build(arch, corpus[0].vector.size, seed=seed)
    train(net, [corpus[i] for i in rows], seed=seed, **(train_kwargs or {}))
    return net


def cross_validate(corpus: list[EvaluationInstance], arch: Architecture | str,
                   k: int, seed: int = 0,
                   train_kwargs: dict | None = None) -> dict:
    """Seeded k-fold cross-validation; returns fold accuracies, mean, std."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    if len(corpus) < k:
        raise ValidationError(
            f"corpus of {len(corpus)} instances cannot form {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    folds = np.array_split(order, k)

    accuracies = []
    for i, fold in enumerate(folds):
        rows = np.concatenate(folds[:i] + folds[i + 1:])
        net = _fit(corpus, arch, rows, seed + i, train_kwargs)
        accuracies.append(evaluate(net, [corpus[j] for j in fold]))
    return {
        "fold_accuracies": accuracies,
        "mean": float(np.mean(accuracies)),
        "std": float(np.std(accuracies)),
    }


def train_fraction_sweep(corpus: list[EvaluationInstance],
                         arch: Architecture | str, fractions,
                         seed: int = 0,
                         train_kwargs: dict | None = None) -> list[dict]:
    """Check every fraction, then train on each and evaluate on the rest."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    splits = []
    for fraction in fractions:
        fraction = float(fraction)
        if not 0.0 < fraction < 1.0:
            raise ValidationError("fractions must lie in (0, 1)")
        cut = round(fraction * len(corpus))
        if cut == 0 or cut == len(corpus):
            raise ValidationError(
                f"fraction {fraction} leaves an empty split")
        splits.append((fraction, order[:cut], order[cut:]))
    rows = []
    for fraction, train_rows, test_rows in splits:
        net = _fit(corpus, arch, train_rows, seed, train_kwargs)
        rows.append({
            "fraction": fraction,
            "train_accuracy": evaluate(net, [corpus[i] for i in train_rows]),
            "test_accuracy": evaluate(net, [corpus[i] for i in test_rows]),
        })
    return rows
