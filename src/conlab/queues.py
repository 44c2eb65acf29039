"""Paired feature/label queue with FIFO replacement and target construction.

The queue holds the K most recent key embeddings and, in lockstep, the label
each key carried when it was enqueued (-1 marks an unlabeled key). A fresh
queue is filled with random unit vectors labeled -1 so it never produces a
spurious positive before real keys arrive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import UNIT_NORM_TOL, Rng

UNLABELED = -1


@dataclass(frozen=True)
class PairQueue:
    features: np.ndarray  # (K, D) unit-norm rows
    labels: np.ndarray  # (K,) int64, -1 for unlabeled
    cursor: int = 0  # next write position

    @property
    def capacity(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def init_queue(capacity: int, dim: int, rng: Rng) -> PairQueue:
    """Queue of random unit directions, all unlabeled."""
    if capacity < 1 or dim < 1:
        raise ValueError("capacity and dim must be positive")
    features = rng.unit_rows(capacity, dim)
    labels = np.full(capacity, UNLABELED, dtype=np.int64)
    return PairQueue(features=features, labels=labels)


def push_batch(queue: PairQueue, keys: np.ndarray, labels: np.ndarray) -> PairQueue:
    """Replace the oldest entries with a batch, wrapping mid-batch if needed.

    Features and labels move together; the cursor advances by the batch size
    modulo capacity.
    """
    keys = np.asarray(keys, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if keys.ndim != 2 or labels.ndim != 1 or keys.shape[0] != labels.shape[0]:
        raise ValueError("keys and labels must pair up row for row")
    if keys.shape[1] != queue.dim:
        raise ValueError("key width does not match queue")
    n = keys.shape[0]
    if n > queue.capacity:
        raise ValueError("batch larger than queue capacity")
    norms = np.linalg.norm(keys, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError("norm violation: keys must be unit vectors")
    idx = (queue.cursor + np.arange(n)) % queue.capacity
    features = queue.features.copy()
    stored = queue.labels.copy()
    features[idx] = keys
    stored[idx] = labels
    return PairQueue(
        features=features,
        labels=stored,
        cursor=int((queue.cursor + n) % queue.capacity),
    )


def build_target(query_labels: np.ndarray, queue: PairQueue) -> np.ndarray:
    """Multi-hot positives mask of shape (N, 1+K) for a batch of queries.

    Column 0 (the augmented key) is always positive. Column 1+j is positive
    iff the query label equals the queue label at j and the query is labeled:
    only labeled queries are compared with the queue, so an unlabeled query
    keeps its augmented key alone, and unlabeled queue entries never match.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    if query_labels.ndim != 1:
        raise ValueError("query labels must be 1-d")
    n = query_labels.shape[0]
    mask = np.zeros((n, 1 + queue.capacity), dtype=bool)
    mask[:, 0] = True
    labeled = query_labels != UNLABELED
    mask[labeled, 1:] = query_labels[labeled, None] == queue.labels
    return mask
