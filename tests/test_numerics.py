"""Stable kernels and the splittable generator.

Reference constants were computed with mpmath at 60 decimal digits and are
frozen here to 20 significant digits.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conlab.numerics import (
    SERIAL_PRODUCT_SIZE,
    Rng,
    _product_rows,
    log_sum_exp,
    serial_matmul,
    sigmoid,
    softplus,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# ---------------------------------------------------------------------------
# log_sum_exp


def test_lse_frozen_values():
    assert log_sum_exp([0.5, -1.25, 3.0]) == pytest.approx(
        3.0919857805919687654, rel=1e-15
    )
    assert log_sum_exp([600.0, 599.0, -600.0]) == pytest.approx(
        600.31326168751822283, rel=1e-15
    )
    assert log_sum_exp([-1000.0, -1000.0, -1000.0]) == pytest.approx(
        -998.90138771133189031, rel=1e-15
    )


@given(finite_floats)
def test_lse_singleton_is_exact(x):
    assert log_sum_exp([x]) == x


@given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
def test_lse_shift_property(values, c):
    shifted = log_sum_exp([v + c for v in values])
    assert shifted == pytest.approx(log_sum_exp(values) + c, abs=1e-12)


@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_lse_dominates_max(values):
    assert log_sum_exp(values) >= max(values) - 1e-12


def test_lse_empty_and_nonfinite_rejected():
    with pytest.raises(ValueError, match="empty reduction"):
        log_sum_exp([])
    with pytest.raises(ValueError, match="non-finite"):
        log_sum_exp([0.0, np.inf])
    with pytest.raises(ValueError, match="non-finite"):
        log_sum_exp([np.nan])


def test_lse_huge_inputs_no_overflow():
    with np.errstate(over="raise"):
        assert log_sum_exp([750.0, 740.0]) == pytest.approx(
            750.0 + np.log1p(np.exp(-10.0)), rel=1e-15
        )
        assert log_sum_exp([-750.0, -760.0]) == pytest.approx(
            -750.0 + np.log1p(np.exp(-10.0)), rel=1e-15
        )


# ---------------------------------------------------------------------------
# softplus / sigmoid


def test_softplus_frozen_values():
    expected = {
        -100.0: 3.7200759760208359644e-44,
        -1.0: 0.31326168751822283405,
        0.0: 0.69314718055994530942,
        1.0: 1.313261687518222834,
        30.0: 30.000000000000093576,
        100.0: 100.0,
    }
    for x, want in expected.items():
        assert softplus(x) == pytest.approx(want, rel=1e-15)


def test_softplus_extreme_tails():
    with np.errstate(over="raise"):
        assert softplus(745.0) == 745.0
        assert 0.0 <= softplus(-745.0) < 1e-300


@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_softplus_difference_identity(x):
    # softplus(x) - softplus(-x) = x; exact with the max/log1p evaluation
    assert softplus(x) - softplus(-x) == pytest.approx(x, abs=1e-12)


def test_softplus_vectorized_and_monotone():
    xs = np.linspace(-20, 20, 101)
    ys = softplus(xs)
    assert ys.shape == xs.shape
    assert np.all(np.diff(ys) > 0)
    assert np.all(ys >= 0)


def test_sigmoid_frozen_values():
    expected = {
        -40.0: 4.2483542552915889773e-18,
        -1.0: 0.26894142136999512075,
        0.0: 0.5,
        0.5: 0.62245933120185456464,
        40.0: 0.99999999999999999575,
    }
    for x, want in expected.items():
        assert sigmoid(x) == pytest.approx(want, rel=1e-15)


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
def test_sigmoid_complement(x):
    with np.errstate(over="raise"):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= sigmoid(x) <= 1.0


# ---------------------------------------------------------------------------
# Rng


def test_rng_same_path_same_draws():
    a = Rng(11).stream("aug", 3).normal(size=16)
    b = Rng(11).stream("aug", 3).normal(size=16)
    assert np.array_equal(a, b)


def test_rng_streams_differ():
    root = Rng(11)
    draws = {
        "root": Rng(11).normal(size=8),
        "aug0": root.stream("aug", 0).normal(size=8),
        "aug1": root.stream("aug", 1).normal(size=8),
        "mask0": root.stream("mask", 0).normal(size=8),
        "nested": root.stream("aug", 0).stream("q").normal(size=8),
        "seed12": Rng(12).normal(size=8),
    }
    keys = list(draws)
    for i, ki in enumerate(keys):
        for kj in keys[i + 1 :]:
            assert not np.array_equal(draws[ki], draws[kj]), (ki, kj)


def test_rng_derivation_insensitive_to_consumption():
    # pulling draws from a parent must not shift its children
    a = Rng(5)
    a.normal(size=100)
    child_after = a.stream("probe").normal(size=4)
    child_fresh = Rng(5).stream("probe").normal(size=4)
    assert np.array_equal(child_after, child_fresh)


def test_rng_negative_index_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Rng(0).stream("aug", -1)
    with pytest.raises(ValueError, match="non-negative"):
        Rng(-1)  # at construction, not at the first draw


def test_rng_unit_rows_and_permutation():
    rows = Rng(3).stream("queue-init").unit_rows(20, 6)
    assert rows.shape == (20, 6)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    perm = Rng(3).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_rng_integers_and_uniform_ranges():
    r = Rng(9)
    ints = r.integers(2, 7, size=1000)
    assert ints.min() >= 2 and ints.max() < 7
    u = Rng(9).uniform(-0.5, 0.25, size=1000)
    assert u.min() >= -0.5 and u.max() < 0.25


# ---------------------------------------------------------------------------
# row blocks and the calling-thread product


@pytest.mark.parametrize(
    "k, n", [(20, 64), (64, 32), (32, 5000), (12, 240), (1, 1), (7, 2**19)]
)
def test_product_rows_stay_within_the_serial_size(k, n):
    rows = _product_rows(k, n)
    assert rows >= 1
    assert rows * k * n <= SERIAL_PRODUCT_SIZE or rows == 1
    assert rows < 8 or rows % 8 == 0
    assert (rows + 8 if rows >= 8 else rows + 1) * k * n > SERIAL_PRODUCT_SIZE


def test_product_rows_at_the_shapes_conlab_multiplies():
    # the default trunk (20 -> 64 -> 32) on a split, and kNN against 5000
    # train rows of width 32, which took 128 rows per product before
    assert (_product_rows(20, 64), _product_rows(64, 32)) == (408, 256)
    assert _product_rows(32, 5000) == 3
    assert _product_rows(32, 2**20) == 1


@pytest.mark.parametrize(
    "m, k, n",
    [
        (5000, 20, 64),
        (5000, 64, 32),
        (1000, 32, 5000),
        (409, 20, 64),
        (1, 8, 3),
        (0, 4, 5),
        # a training step's queue product: batch x embed_dim against the
        # queue, at the default config, small_cfg, and batches 128 and 256,
        # which take two and four row blocks
        (64, 16, 512),
        (24, 8, 48),
        (128, 16, 512),
        (256, 16, 512),
    ],
)
def test_serial_matmul_equals_the_whole_product(m, k, n):
    rng = np.random.default_rng(m + k + n)
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    assert np.array_equal(serial_matmul(a, b), a @ b)
    out = np.full((m, n), np.nan)
    assert serial_matmul(a, b, out=out) is out
    assert np.array_equal(out, a @ b)
    # q @ F.T with a (K, D) queue: a transposed b, written into the strided
    # columns 1: of the logits. A single row goes to gemv, which rounds a
    # transposed operand differently from the contiguous copy it multiplies.
    if m != 1:
        features = rng.normal(size=(n, k))
        logits = np.full((m, 1 + n), np.nan)
        serial_matmul(a, features.T, out=logits[:, 1:])
        assert np.array_equal(logits[:, 1:], a @ features.T)
        assert np.all(np.isnan(logits[:, 0]))
