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

from .config import ProbeConfig, RunConfig
from .model import EncoderParams, trunk_features
from .numerics import Rng, row_blocks
from .pipeline import Dataset, check_dataset_matches


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


def _standardized(train_features, test_features):
    """Both splits standardized with train-split statistics; a column with
    no spread keeps its scale."""
    train_features = np.asarray(train_features, dtype=np.float64)
    mu = train_features.mean(axis=0)
    sd = train_features.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xtr = train_features - mu
    xtr /= sd
    xte = np.asarray(test_features, dtype=np.float64) - mu
    xte /= sd
    return xtr, xte


def _fit_softmax(x: np.ndarray, labels: np.ndarray, cfg: ProbeConfig, seed: int):
    """Weights and bias of softmax regression on the rows of ``x``: plain
    minibatch gradient descent from zero, the batches cut from each epoch's
    shuffle of the rows, which is derived from ``seed``.

    Each epoch gathers its shuffled rows once, and the flat position of each
    row's true class within its batch's (rows, classes) probabilities, so a
    step subtracts the one-hot targets by position. A one-hot array would
    hold n_train x n_classes floats, which no budget bounds."""
    n, d = x.shape
    batch = cfg.batch_size
    n_classes = int(labels.max()) + 1
    row_starts = np.arange(n) % batch * n_classes
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    root = Rng(seed).stream("probe")
    for epoch in range(cfg.epochs):
        order = root.stream("shuffle", epoch).permutation(n)
        xs, hot = x[order], row_starts + labels[order]
        for start in range(0, n, batch):
            xb = xs[start : start + batch]
            logits = xb @ w + b
            logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
            p = np.exp(logits, out=logits)
            p /= np.add.reduce(p, axis=1, keepdims=True)
            p.ravel()[hot[start : start + batch]] -= 1.0  # p is contiguous
            p /= xb.shape[0]
            w -= cfg.lr * (xb.T @ p)
            b -= cfg.lr * np.add.reduce(p, axis=0)
    return w, b


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
    train_labels = _check_labels(train_labels)
    test_labels = _check_labels(test_labels)
    if np.unique(train_labels).size < 2:
        raise ValueError("single-class input")
    xtr, xte = _standardized(train_features, test_features)
    w, b = _fit_softmax(xtr, train_labels, cfg, seed)
    pred = np.argmax(xte @ w + b, axis=1)
    return float(np.mean(pred == test_labels))


def _unit_rows_safe(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-30)


# A similarity block holds at most this many entries (1 MB, which stays in
# cache), so the probe's memory does not grow with the number of test rows.
_KNN_BLOCK_ELEMENTS = 2**17


def _knn_block_rows(n_train: int) -> int:
    """Test rows per similarity block: as many as ``_KNN_BLOCK_ELEMENTS``
    allows, rounded down to a multiple of 8 and never fewer than 8."""
    return max(8, _KNN_BLOCK_ELEMENTS // n_train // 8 * 8)


def _similarity_blocks(test_u: np.ndarray, train_u: np.ndarray):
    """``(lo, hi, test_u[lo:hi] @ train_u.T)`` for consecutive blocks of
    ``_knn_block_rows`` test rows, each block written into one reused
    buffer."""
    block = np.empty((_knn_block_rows(train_u.shape[0]), train_u.shape[0]))
    for lo, hi in row_blocks(test_u.shape[0], block.shape[0]):
        yield lo, hi, np.matmul(test_u[lo:hi], train_u.T, out=block[: hi - lo])


def _nearest(sims: np.ndarray, k: int) -> np.ndarray:
    """Each row's k largest entries, in the order a stable argsort of
    ``-sims`` gives: descending similarity, the smaller index first on ties.

    Selection finds the k without sorting the row. Where more than k entries
    reach the k-th largest value (a tie at the cut), selection may keep any
    of them, so those rows are sorted in full to keep the smaller indices.
    """
    n = sims.shape[1]
    cand = np.argpartition(sims, n - k, axis=1)[:, n - k :]
    kth = np.take_along_axis(sims, cand[:, :1], axis=1)
    cand = np.sort(cand, axis=1)
    vals = np.take_along_axis(sims, cand, axis=1)
    nearest = np.take_along_axis(
        cand, np.argsort(-vals, axis=1, kind="stable"), axis=1
    )
    tied = np.count_nonzero(sims >= kth, axis=1) > k
    if tied.any():
        nearest[tied] = np.argsort(-sims[tied], axis=1, kind="stable")[:, :k]
    return nearest


def knn_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    k: int,
    temperature: float | None = None,
) -> float:
    """Cosine-similarity k-nearest-neighbor vote; returns test top-1.

    Neighbors are the k most similar train rows; on equal similarity the
    smaller train index wins. With ``temperature`` set, neighbor votes are
    weighted by exp(similarity / temperature); otherwise each neighbor
    counts once. Vote ties go to the smaller class index.

    Test rows go in blocks of ``_knn_block_rows(n_train)``, so the whole
    test x train similarity matrix is never held. The result equals the
    full-matrix probe only where BLAS rounds every row of those blocks as it
    rounds that row of the full product. With numpy's bundled BLAS (0.3.31,
    SkylakeX dgemm) that holds at the shapes conlab probes: 5000 train rows
    of width 32 or 64, and 240, 192 or 48 of width 12. It does not hold
    everywhere: the last ``n_train % 8`` columns can differ in the last bit,
    and the neighbor order can then differ on near ties.
    """
    train_labels = _check_labels(train_labels)
    test_labels = _check_labels(test_labels)
    n_train = train_labels.size
    if not 1 <= k <= n_train:
        raise ValueError(f"k invalid: need 1 <= k <= {n_train}, got {k}")

    test_u = _unit_rows_safe(test_features)
    neighbors = np.empty((test_u.shape[0], k), dtype=np.intp)
    top = np.empty(neighbors.shape)
    for lo, hi, sims in _similarity_blocks(test_u, _unit_rows_safe(train_features)):
        neighbors[lo:hi] = _nearest(sims, k)
        top[lo:hi] = np.take_along_axis(sims, neighbors[lo:hi], axis=1)
    neighbor_labels = train_labels[neighbors]
    if temperature is None:
        weights = np.ones(neighbors.shape)
    else:
        # shifted by each row's top similarity: the same vote, no overflow
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


def run_probes(params: EncoderParams, dataset: Dataset, cfg: RunConfig) -> ProbeResult:
    """Score the encoder of the run ``cfg`` describes: both probes under
    ``cfg.probe`` on the trunk features of both splits, with the linear
    probe's shuffle seeded by ``cfg.train.seed``. ``dataset`` must be the one
    ``cfg.dataset`` names (ConfigError otherwise)."""
    check_dataset_matches(cfg, dataset)
    train_f = extract_features(params, dataset.train_x)
    test_f = extract_features(params, dataset.test_x)
    train_y, test_y, probe = dataset.train_y, dataset.test_y, cfg.probe
    linear = linear_probe(train_f, train_y, test_f, test_y, probe, seed=cfg.train.seed)
    knn = knn_probe(
        train_f, train_y, test_f, test_y, probe.knn_k, probe.knn_temperature
    )
    return ProbeResult(linear_top1=linear, knn_top1=knn)


__all__ = [
    "ProbeResult",
    "extract_features",
    "knn_probe",
    "linear_probe",
    "run_probes",
]
