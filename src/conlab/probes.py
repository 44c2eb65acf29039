"""Frozen-feature evaluation: linear probe and cosine-kNN probe.

Both probes consume trunk features — the last trunk layer's output, before
the projection head and before any normalization. The projection head is a
training artifact; representation quality is measured underneath it. The
encoder is never touched: probes see plain arrays and train their own tiny
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ProbeConfig
from .model import EncoderParams, trunk_features
from .numerics import Rng
from .pipeline import Dataset


def extract_features(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Trunk outputs for every row of x; deterministic, no augmentation.

    Both probes sum squared features (row norms, column variances); none of
    those sums exceeds the sum of all squares, so a total that is not finite
    (finite but huge weights) makes the features an error, not a score.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        features = trunk_features(params, x)
        total = np.einsum("ij,ij->", features, features)
    if not np.isfinite(total):
        raise ValueError(
            "trunk features overflow: their sum of squares is not finite"
        )
    return features


def _check_labels(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be true class indices, never -1")
    return labels.astype(np.int64)


def linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    cfg: ProbeConfig,
    seed: int = 0,
) -> float:
    """Softmax regression on frozen features; returns held-out top-1.

    Features are standardized with train-split statistics (the probe should
    measure linear separability, not be at the mercy of feature scale), the
    weights start at zero — the objective is convex — and the only
    randomness is the epoch shuffle, derived from ``seed``.
    """
    train_features = np.asarray(train_features, dtype=np.float64)
    test_features = np.asarray(test_features, dtype=np.float64)
    train_labels = _check_labels(train_labels)
    test_labels = _check_labels(test_labels)
    if np.unique(train_labels).size < 2:
        raise ValueError("single-class input")
    n_classes = int(train_labels.max()) + 1

    mu = train_features.mean(axis=0)
    sd = train_features.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xtr = (train_features - mu) / sd
    xte = (test_features - mu) / sd

    n, d = xtr.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    root = Rng(seed).stream("probe")
    for epoch in range(cfg.epochs):
        order = root.stream("shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = xtr[idx]
            logits = xb @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(idx.size), train_labels[idx]] -= 1.0
            p /= idx.size
            w -= cfg.lr * (xb.T @ p)
            b -= cfg.lr * p.sum(axis=0)

    pred = np.argmax(xte @ w + b, axis=1)
    return float(np.mean(pred == test_labels))


def _unit_rows_safe(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-30)


def knn_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    k: int,
    temperature: float | None = None,
) -> float:
    """Cosine-similarity k-nearest-neighbor vote; returns test top-1.

    With ``temperature`` set, neighbor votes are weighted by
    exp(similarity / temperature); otherwise each neighbor counts once.
    Vote ties go to the smaller class index.
    """
    train_labels = _check_labels(train_labels)
    test_labels = _check_labels(test_labels)
    n_train = train_labels.size
    if not 1 <= k <= n_train:
        raise ValueError(f"k invalid: need 1 <= k <= {n_train}, got {k}")

    sims = _unit_rows_safe(test_features) @ _unit_rows_safe(train_features).T
    neighbors = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    neighbor_labels = train_labels[neighbors]
    if temperature is None:
        weights = np.ones(neighbors.shape)
    else:
        # shifted by each row's top similarity: the same vote, no overflow
        top = np.take_along_axis(sims, neighbors, axis=1)
        weights = np.exp((top - top[:, :1]) / temperature)

    n_test = test_labels.size
    n_classes = int(train_labels.max()) + 1
    votes = np.zeros((n_test, n_classes))
    rows = np.repeat(np.arange(n_test), k)
    np.add.at(votes, (rows, neighbor_labels.ravel()), weights.ravel())
    pred = votes.argmax(axis=1)  # argmax takes the smallest index on ties
    return float(np.mean(pred == test_labels))


@dataclass(frozen=True)
class ProbeResult:
    linear_top1: float
    knn_top1: float


def run_probes(
    params: EncoderParams, dataset: Dataset, cfg: ProbeConfig, seed: int = 0
) -> ProbeResult:
    """Extract trunk features for both splits and run both probes."""
    train_f = extract_features(params, dataset.train_x)
    test_f = extract_features(params, dataset.test_x)
    linear = linear_probe(
        train_f, dataset.train_y, test_f, dataset.test_y, cfg, seed=seed
    )
    knn = knn_probe(
        train_f,
        dataset.train_y,
        test_f,
        dataset.test_y,
        cfg.knn_k,
        cfg.knn_temperature,
    )
    return ProbeResult(linear_top1=linear, knn_top1=knn)


__all__ = [
    "ProbeResult",
    "extract_features",
    "knn_probe",
    "linear_probe",
    "run_probes",
]
