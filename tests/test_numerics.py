"""Stable kernels and the splittable generator.

Reference constants were computed with mpmath at 60 decimal digits and are
frozen here to 20 significant digits.
"""

import ctypes
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import other_threads_s
from hypothesis import given
from hypothesis import strategies as st

from conlab.losses import triplet_pair
from conlab.numerics import UNIT_NORM_TOL, Rng, sigmoid, softplus
from conlab.pipeline import init_state
from conlab.queues import init_queue, push_batch
from conlab.storage import (
    StorageError,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
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
# the unit-norm tolerance: one bound for every check of a unit vector


def _push_scaled(scale, tmp_path, cfg):
    queue = init_queue(4, 3, Rng(0))
    push_batch(queue, queue.features[:2] * scale, np.array([0, 1]))


def _load_scaled(scale, tmp_path, cfg):
    path = tmp_path / "ckpt.umc"
    save_checkpoint(path, init_state(cfg), cfg)
    header, arrays = read_container(path)
    order = [entry["name"] for entry in header.pop("arrays")]
    del header["format_version"]
    arrays["queue.features"][0] *= scale
    write_container(path, header, [(name, arrays[name]) for name in order])
    load_checkpoint(path)


def _triplet_scaled(scale, tmp_path, cfg):
    q, k = np.eye(3)[:2]
    triplet_pair(q * scale, k, -k, tau=0.2)


NORM_CHECKS = {
    "push_batch": (_push_scaled, ValueError, "norm violation: keys must be unit vectors"),
    "checkpoint": (
        _load_scaled,
        StorageError,
        "checkpoint queue holds a feature row that is not unit-norm",
    ),
    "triplet_pair": (_triplet_scaled, ValueError, "non-unit input"),
}


@pytest.mark.parametrize("check", sorted(NORM_CHECKS))
def test_unit_norm_checks_share_one_tolerance(check, tmp_path, small_cfg):
    scaled, error, message = NORM_CHECKS[check]
    scaled(1.0 + 0.5 * UNIT_NORM_TOL, tmp_path, small_cfg)
    with pytest.raises(error) as exc:
        scaled(1.0 + 2.0 * UNIT_NORM_TOL, tmp_path, small_cfg)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the BLAS thread limit


def test_import_limits_openblas_to_one_thread():
    # the limit is process-wide: a thread started later reads it too
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    getters = [
        getattr(ctypes.CDLL(str(lib)), symbol, None)
        for lib in sorted(libs.glob("*openblas*"))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    ]
    getters = [fn for fn in getters if fn is not None]
    if not getters:
        pytest.skip("numpy does not bundle OpenBLAS")
    seen = []
    reader = threading.Thread(target=lambda: seen.extend(fn() for fn in getters))
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert [fn() for fn in getters] == seen == [1] * len(getters)


def test_other_threads_figure_reads_zero_below_zero():
    # the process and thread clocks are read one after the other, so an idle
    # process can show its calling thread a few microseconds ahead of itself
    assert other_threads_s(1.0, 1.000004) == 0.0
    assert other_threads_s(1.5, 1.0) == 0.5
