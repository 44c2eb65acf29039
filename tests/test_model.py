"""Encoder forward/backward, initialization, and the momentum update.

The backward pass is validated against central finite differences of the
scalar sum(G * forward(x)) — an oracle that exercises every parameter,
including the row-normalization Jacobian.
"""

import numpy as np
import pytest
from conftest import params_equal

from conlab.config import RunConfig
from conlab.model import (
    EncoderParams,
    backward,
    forward,
    init_params,
    leaves,
    map_leaves,
    momentum_update,
    trunk_features,
    zeros_like_params,
)
from conlab.numerics import DEGENERATE_NORM, DegenerateVectorError, Rng


def small_params(seed=0, input_dim=7, trunk=(10, 6), proj_hidden=6, embed=5):
    dims = (input_dim, *trunk, proj_hidden, embed)
    return init_params(dims, Rng(seed).stream("init"))


# ---------------------------------------------------------------------------
# initialization


def test_init_shapes_and_zero_biases():
    p = small_params()
    assert [w.shape for w, _ in p.trunk] == [(7, 10), (10, 6)]
    assert [w.shape for w, _ in p.layers[-2:]] == [(6, 6), (6, 5)]
    for _, b in p.layers:
        assert np.array_equal(b, np.zeros_like(b))
    assert p.layers == (*p.trunk, *p.layers[-2:])
    assert p.input_dim == 7
    assert p.layers[-1][0].shape[1] == 5


def test_init_deterministic_per_stream():
    assert params_equal(small_params(seed=4), small_params(seed=4))
    assert not params_equal(small_params(seed=4), small_params(seed=5))


def test_init_fan_in_scaling():
    p = init_params((100, 50, 50, 8), Rng(0).stream("init"))
    w_wide, _ = p.trunk[0]  # fan_in 100
    w_narrow, _ = p.layers[-2]  # fan_in 50
    assert np.abs(w_wide).max() <= np.sqrt(6.0 / 100) + 1e-12
    assert np.abs(w_narrow).max() <= np.sqrt(6.0 / 50) + 1e-12
    # the narrower fan-in really uses its larger range
    assert np.abs(w_narrow).max() > np.sqrt(6.0 / 100)


def test_init_invalid_dims():
    for bad in [
        dict(input_dim=0),
        dict(trunk=()),
        dict(trunk=(8, 0)),
        dict(proj_hidden=0),
        dict(embed=0),
    ]:
        with pytest.raises(ValueError, match="invalid dims"):
            small_params(**bad)


# ---------------------------------------------------------------------------
# forward


def test_forward_unit_norm_output():
    p = small_params(1)
    x = Rng(2).stream("x").normal(size=(9, 7))
    out, tape = forward(p, x)
    assert out.shape == (9, 5)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    assert tape.out is out


def test_forward_normalizes_along_raw_embedding():
    # each output row is the raw embedding (last layer's output) over its norm
    p = small_params(1)
    x = Rng(2).stream("x").normal(size=(40, 7)) * 10.0
    out, tape = forward(p, x)
    w, b = p.layers[-1]
    assert np.all(tape.norms > 0.0)
    assert np.allclose(out * tape.norms[:, None], tape.inputs[-1] @ w + b, atol=1e-9)


def _with_last_bias(params, bias):
    """params whose embedding is ``bias`` for every input: zero last weights."""
    w, _ = params.layers[-1]
    return EncoderParams(params.layers[:-1] + ((np.zeros_like(w), bias),))


def test_forward_unit_embedding_row_unchanged():
    p = _with_last_bias(small_params(1), np.array([0.6, 0.8, 0.0, 0.0, 0.0]))
    out, _ = forward(p, Rng(2).stream("x").normal(size=(3, 7)))
    assert np.allclose(out, [0.6, 0.8, 0.0, 0.0, 0.0], atol=1e-12)


def test_forward_degenerate_embedding_raises():
    # a zero last layer, and a bias row of norm at or below DEGENERATE_NORM
    for norm in (0.0, DEGENERATE_NORM / 2):
        p = _with_last_bias(small_params(1), np.array([norm, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(DegenerateVectorError, match="degenerate vector"):
            forward(p, Rng(2).stream("x").normal(size=(3, 7)))


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "huge"])
def test_forward_non_finite_embedding_raises(value):
    # a NaN or inf input row has no finite embedding norm, and a 1e300 row's
    # norm overflows to inf: dividing by it would give an all-zero row
    x = Rng(2).stream("x").normal(size=(3, 7))
    x[1] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateVectorError, match="degenerate vector"):
            forward(small_params(1), x)


def test_forward_deterministic():
    p = small_params(1)
    x = Rng(2).stream("x").normal(size=(4, 7))
    a, _ = forward(p, x)
    b, _ = forward(p, x)
    assert np.array_equal(a, b)


def test_forward_shape_mismatch():
    p = small_params()
    with pytest.raises(ValueError, match="shape mismatch"):
        forward(p, np.zeros((3, 8)))


@pytest.mark.parametrize("encoder", ["default", "small_cfg"])
def test_trunk_features_are_forwards_trunk_bit_for_bit(encoder, small_cfg):
    # the probes read the trunk that training computes, not a recomputation
    cfg = RunConfig() if encoder == "default" else small_cfg
    params = init_params(cfg.layer_dims, Rng(0).stream("init"))
    x = Rng(1).stream("x").normal(size=(5000, cfg.dataset.input_dim))
    _, tape = forward(params, x)
    features = trunk_features(params, x)
    trunk = tape.inputs[len(params.trunk)]
    assert features.shape == trunk.shape
    assert features.tobytes() == trunk.tobytes()


def test_trunk_features_relu_output():
    p = small_params(3)
    x = Rng(5).stream("x").normal(size=(11, 7))
    f = trunk_features(p, x)
    assert f.shape == (11, 6)
    assert np.all(f >= 0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        trunk_features(p, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# backward vs central finite differences


def fd_leaf_gradients(params, x, g, h=1e-5):
    """Central finite differences of sum(g * forward(x)) per parameter leaf."""

    def objective(p):
        out, _ = forward(p, x)
        return float(np.sum(g * out))

    grads = []
    for leaf_idx, leaf in enumerate(leaves(params)):
        grad = np.zeros_like(leaf)
        flat = grad.reshape(-1)
        for j in range(leaf.size):
            for sign in (+1.0, -1.0):
                bumped_leaves = [l.copy() for l in leaves(params)]
                bumped_leaves[leaf_idx].reshape(-1)[j] += sign * h
                it = iter(bumped_leaves)
                bumped = EncoderParams(tuple(zip(it, it)))
                flat[j] += sign * objective(bumped) / (2 * h)
        grads.append(grad)
    return grads


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_backward_matches_finite_differences(depth):
    trunk = (6, 8, 5)[-depth:]
    p = small_params(6, input_dim=5, trunk=trunk, proj_hidden=5, embed=4)
    root = Rng(7)
    x = root.stream("x").normal(size=(6, 5))
    g = root.stream("g").normal(size=(6, 4))
    out, tape = forward(p, x)
    analytic = leaves(backward(tape, g))
    assert len(analytic) == 2 * (depth + 2)
    numeric = fd_leaf_gradients(p, x, g)
    for a, n in zip(analytic, numeric):
        scale = max(float(np.abs(n).max()), 1e-12)
        assert float(np.abs(a - n).max()) / scale <= 1e-6


def leafwise_backward(tape, g):
    """backward as it was before gradients went into one flat vector: a
    fresh product and sum per layer. The reference for bit-identity."""
    u = tape.out
    d_z = (g - np.sum(g * u, axis=1, keepdims=True) * u) / tape.norms[:, None]
    grads = []
    for i in range(len(tape.inputs) - 1, -1, -1):
        grads.append((tape.inputs[i].T @ d_z, d_z.sum(axis=0)))
        if i:
            d_z = (d_z @ tape.params.layers[i][0].T) * (tape.inputs[i] > 0.0)
    return [a for layer in reversed(grads) for a in layer]


def test_backward_into_flat_vector_is_bit_identical_to_leafwise():
    # the default model and batch shapes, where BLAS picks its real kernels
    p = init_params((20, 64, 32, 32, 16), Rng(30).stream("init"))
    root = Rng(31)
    x = root.stream("x").normal(size=(64, 20))
    g = root.stream("g").normal(size=(64, 16))
    _, tape = forward(p, x)
    got = leaves(backward(tape, g))
    want = leafwise_backward(tape, g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_backward_grad_shape_checked():
    p = small_params(8)
    x = Rng(9).stream("x").normal(size=(3, 7))
    _, tape = forward(p, x)
    with pytest.raises(ValueError, match="shape mismatch"):
        backward(tape, np.zeros((3, 4)))


def test_backward_orthogonal_grad_direction():
    # gradients of the *unit-norm* output along the output direction vanish:
    # scaling the raw embedding cannot change a normalized vector
    p = small_params(10)
    x = Rng(11).stream("x").normal(size=(5, 7))
    out, tape = forward(p, x)
    grads = backward(tape, out)  # g = u picks the radial direction
    for leaf in leaves(grads):
        assert np.abs(leaf).max() <= 1e-12


# ---------------------------------------------------------------------------
# tree utilities


def test_map_leaves_and_zeros():
    p = small_params(12)
    z = zeros_like_params(p)
    assert all(np.all(l == 0) for l in leaves(z))
    doubled = map_leaves(lambda a: 2.0 * a, p)
    summed = map_leaves(lambda a, b: a + b, p, p)
    assert params_equal(doubled, summed)


def _is_flat_tree(tree):
    """The tree's leaves are views of its own flat vector, in leaf order."""
    flat = tree.flat
    ok = flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    ok &= all(np.shares_memory(leaf, flat) for leaf in leaves(tree))
    return ok and np.array_equal(np.concatenate([l.ravel() for l in leaves(tree)]), flat)


def _aliases(tree, *others):
    return any(np.shares_memory(tree.flat, o.flat) for o in others)


def test_trees_hold_their_leaves_in_one_flat_vector():
    p = small_params(20)
    q = small_params(21)
    x = Rng(22).stream("x").normal(size=(6, 7))
    out, tape = forward(p, x)
    built = EncoderParams(p.layers)
    assert _is_flat_tree(p) and not _aliases(p, q)
    results = {
        "constructor": built,
        "map_leaves": map_leaves(lambda a, b: a - 0.5 * b, p, q),
        "momentum_update": momentum_update(p, q, 0.9),
        "backward": backward(tape, out[::-1].copy()),
        "zeros": zeros_like_params(p),
    }
    for name, tree in results.items():
        assert _is_flat_tree(tree), name
        assert not _aliases(tree, p, q), name
    assert params_equal(built, p)
    assert not any(np.shares_memory(l, a) for l in leaves(built) for a in leaves(p))
    # writing through a layer view writes the flat vector
    built.layers[0][1][0] = 3.0
    assert built.flat[7 * 10] == 3.0


def test_map_leaves_is_one_elementwise_call_on_flat_vectors():
    p, q = small_params(23), small_params(24)
    seen = []

    def fn(a, b):
        seen.append((a, b))
        return a * b

    out = map_leaves(fn, p, q)
    assert len(seen) == 1 and seen[0][0] is p.flat and seen[0][1] is q.flat
    for got, a, b in zip(leaves(out), leaves(p), leaves(q)):
        assert np.array_equal(got, a * b)


def test_trees_of_different_shape_are_rejected():
    p = small_params(25)
    narrow = small_params(25, trunk=(10, 5))
    for update in (
        lambda: momentum_update(p, narrow, 0.5),
        lambda: map_leaves(np.add, p, narrow),
    ):
        with pytest.raises(ValueError, match="shape mismatch"):
            update()
    assert not params_equal(p, narrow)


def test_params_equal_detects_change():
    p = small_params(13)
    q = map_leaves(np.copy, p)
    assert params_equal(p, q)
    q.trunk[0][0][0, 0] += 1e-9
    assert not params_equal(p, q)


# ---------------------------------------------------------------------------
# momentum update


def test_momentum_update_endpoints():
    key = small_params(14)
    query = small_params(15)
    assert params_equal(momentum_update(key, query, 1.0), key)
    assert params_equal(momentum_update(key, query, 0.0), query)


def test_momentum_update_contraction():
    # t applications with a fixed query close the gap by exactly (1 - m^t)
    key0 = small_params(16)
    query = small_params(17)
    m, t = 0.97, 25
    key = key0
    for _ in range(t):
        key = momentum_update(key, query, m)
    expected = map_leaves(
        lambda a, b: m**t * a + (1 - m**t) * b, key0, query
    )
    for got, want in zip(leaves(key), leaves(expected)):
        assert np.allclose(got, want, atol=1e-12)


def test_momentum_update_validates_m():
    p = small_params(18)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="momentum"):
            momentum_update(p, p, bad)
