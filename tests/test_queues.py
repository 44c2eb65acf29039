"""FIFO pair queue and multi-hot target construction.

The long randomized test checks the queue against an independent model: a
`collections.deque(maxlen=K)` of (label, key-bytes) pairs for content, and a
double-loop brute-force mask builder for targets.
"""

from collections import deque

import numpy as np
import pytest

from conlab.numerics import Rng
from conlab.queues import UNLABELED, PairQueue, build_target, init_queue, push_batch


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_queue(labels, dim=4, seed=0):
    """A full queue with prescribed labels and arbitrary unit features."""
    labels = np.asarray(labels, dtype=np.int64)
    features = unit_rows(np.random.default_rng(seed), labels.size, dim)
    return PairQueue(features=features, labels=labels, cursor=0)


# ---------------------------------------------------------------------------
# init / push basics


def test_init_queue_unlabeled_unit_rows():
    q = init_queue(12, 5, Rng(0).stream("queue-init"))
    assert q.capacity == 12
    assert q.dim == 5
    assert np.all(q.labels == UNLABELED)
    assert np.allclose(np.linalg.norm(q.features, axis=1), 1.0, atol=1e-8)
    assert q.cursor == 0


def test_init_queue_invalid_dims():
    with pytest.raises(ValueError):
        init_queue(0, 5, Rng(0))
    with pytest.raises(ValueError):
        init_queue(5, 0, Rng(0))


def test_push_is_fifo_with_wraparound():
    rng = np.random.default_rng(1)
    q = init_queue(5, 3, Rng(1))
    first = unit_rows(rng, 3, 3)
    q = push_batch(q, first, np.array([0, 1, 2]))
    assert q.cursor == 3
    assert np.array_equal(q.labels[:3], [0, 1, 2])
    second = unit_rows(rng, 4, 3)
    q = push_batch(q, second, np.array([3, 4, 5, 6]))  # wraps after two slots
    assert q.cursor == 2
    assert np.array_equal(q.labels, [5, 6, 2, 3, 4])
    assert np.allclose(q.features[2], first[2])
    assert np.allclose(q.features[3], second[0])
    assert np.allclose(q.features[0], second[2])


def test_push_does_not_mutate_input_queue():
    q0 = init_queue(4, 3, Rng(2))
    before = q0.features.copy()
    push_batch(q0, unit_rows(np.random.default_rng(0), 2, 3), np.array([1, 1]))
    assert np.array_equal(q0.features, before)
    assert q0.cursor == 0


def test_push_validation():
    q = init_queue(4, 3, Rng(4))
    keys = unit_rows(np.random.default_rng(0), 2, 3)
    with pytest.raises(ValueError, match="pair up row for row"):
        push_batch(q, keys, np.array([0]))
    with pytest.raises(ValueError, match="width does not match"):
        push_batch(q, unit_rows(np.random.default_rng(0), 2, 4), np.array([0, 1]))
    with pytest.raises(ValueError, match="larger than queue capacity"):
        push_batch(q, unit_rows(np.random.default_rng(0), 5, 3), np.arange(5))
    with pytest.raises(ValueError, match="norm violation"):
        push_batch(q, keys * 1.01, np.array([0, 1]))


# ---------------------------------------------------------------------------
# build_target


def test_build_target_example():
    q = make_queue([3, UNLABELED, 5, 3])
    mask = build_target(np.array([3]), q)
    assert mask.tolist() == [[True, True, False, False, True]]


def test_build_target_unlabeled_query_gets_only_aug_key():
    q = make_queue([3, UNLABELED, 5, 3])
    mask = build_target(np.array([UNLABELED]), q)
    assert mask.tolist() == [[True, False, False, False, False]]


def test_build_target_no_class_match():
    q = make_queue([3, UNLABELED, 5, 3])
    mask = build_target(np.array([4]), q)
    assert mask.tolist() == [[True, False, False, False, False]]


def test_build_target_batch_shape_and_column_zero():
    q = make_queue([0, 1, 2, 0, 1, 2])
    mask = build_target(np.array([0, 1, UNLABELED, 5]), q)
    assert mask.shape == (4, 7)
    assert np.all(mask[:, 0])
    assert mask[0].sum() == 3 and mask[1].sum() == 3
    assert mask[2].sum() == 1 and mask[3].sum() == 1


def test_build_target_rejects_2d_labels():
    q = make_queue([0, 1])
    with pytest.raises(ValueError, match="1-d"):
        build_target(np.zeros((2, 2), dtype=np.int64), q)


# ---------------------------------------------------------------------------
# randomized long-run check against an independent model


def brute_force_target(query_labels, queue_labels):
    n, k = len(query_labels), len(queue_labels)
    mask = np.zeros((n, 1 + k), dtype=bool)
    for i, ql in enumerate(query_labels):
        mask[i, 0] = True
        for j, kl in enumerate(queue_labels):
            if ql != UNLABELED and ql == kl:
                mask[i, 1 + j] = True
    return mask


def queue_content(q):
    """Multiset of (label, key bytes) pairs currently stored."""
    return sorted(
        (int(l), q.features[i].tobytes()) for i, l in enumerate(q.labels)
    )


def test_randomized_pushes_match_reference_model():
    capacity, dim, classes = 32, 3, 4
    q = init_queue(capacity, dim, Rng(10))
    # the reference holds the same initial content, oldest slot first
    model = deque(
        ((int(l), q.features[i].tobytes()) for i, l in enumerate(q.labels)),
        maxlen=capacity,
    )
    rng = np.random.default_rng(99)
    for step in range(10_000):
        n = int(rng.integers(1, 9))
        keys = unit_rows(rng, n, dim)
        labels = np.where(
            rng.random(n) < 0.5, rng.integers(0, classes, size=n), UNLABELED
        ).astype(np.int64)
        q = push_batch(q, keys, labels)
        for i in range(n):
            model.append((int(labels[i]), keys[i].tobytes()))
        assert queue_content(q) == sorted(model)
        if step % 50 == 0:
            queries = rng.integers(-1, classes, size=4).astype(np.int64)
            got = build_target(queries, q)
            assert np.array_equal(got, brute_force_target(queries, q.labels))


def test_mean_positive_count_tracks_label_ratio():
    # with Bernoulli(alpha) labeling over C classes, a labeled query sees
    # 1 + Binomial(K, alpha/C) positives; check the mean within 3 SE
    capacity, dim, classes, batch = 64, 3, 4, 8
    for alpha in (0.0, 0.5, 1.0):
        rng = np.random.default_rng(int(alpha * 100) + 1)
        q = init_queue(capacity, dim, Rng(20))
        counts = []
        for step in range(1600):
            keys = unit_rows(rng, batch, dim)
            labels = np.where(
                rng.random(batch) < alpha,
                rng.integers(0, classes, size=batch),
                UNLABELED,
            ).astype(np.int64)
            q = push_batch(q, keys, labels)
            if step % (capacity // batch) == 0 and step > capacity // batch:
                counts.append(build_target(np.array([0]), q).sum())
        p = alpha / classes
        expected = 1.0 + capacity * p
        se = np.sqrt(capacity * p * (1 - p) / len(counts))
        if alpha == 0.0:
            assert all(c == 1 for c in counts)
        else:
            assert abs(np.mean(counts) - expected) <= 3 * se
