"""MLP encoder with a projection head and exact manual backpropagation.

The encoder is a ReLU trunk followed by a two-layer projection head (hidden
ReLU, linear output) whose output is L2-normalized. Probes consume the trunk
output; the projection head exists only for the contrastive objective.
Trunk and head are one tuple of layers, so forward and backward are each a
single loop with a ReLU between consecutive layers.

Each parameter tree holds all its arrays in one contiguous float64 vector
``flat``; a layer's weights and bias are reshaped views of it. Updates
(gradient steps, momentum mixing) apply their elementwise formula once to
whole flat vectors and build a new tree around the result, never writing
into an existing one. The same tree shape doubles as the container for
gradients and optimizer velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEGENERATE_NORM, DegenerateVectorError, Rng

Layer = tuple[np.ndarray, np.ndarray]  # (weights (in, out), bias (out,))


class _Layout:
    """Where each leaf of one tree shape sits in the flat vector: computed
    once per shape and shared by every tree derived from it."""

    __slots__ = ("shapes", "spans", "size")

    def __init__(self, shapes: tuple[tuple[int, ...], ...]):
        self.shapes = shapes
        spans, end = [], 0
        for shape in shapes:
            start, end = end, end + math.prod(shape)
            spans.append(slice(start, end))
        self.spans = tuple(spans)
        self.size = end

    def views(self, flat: np.ndarray) -> tuple[Layer, ...]:
        views = iter([flat[s].reshape(n) for s, n in zip(self.spans, self.shapes)])
        return tuple(zip(views, views))


class EncoderParams:
    """The trunk layers, then the two projection layers.

    ``EncoderParams(layers)`` copies the given ``(w, b)`` pairs into a new
    flat vector; ``layers`` then returns views of that vector.
    """

    __slots__ = ("flat", "_layout", "_layers")

    def __init__(self, layers):
        arrays = [a for layer in layers for a in layer]
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self._layout = _Layout(tuple(np.shape(a) for a in arrays))
        self._layers = None

    @classmethod
    def _wrap(cls, flat: np.ndarray, layout: _Layout, layers=None) -> "EncoderParams":
        """A tree around ``flat`` itself, which must not belong to another tree."""
        tree = cls.__new__(cls)
        tree.flat, tree._layout, tree._layers = flat, layout, layers
        return tree

    @property
    def layers(self) -> tuple[Layer, ...]:
        if self._layers is None:  # built on first use: velocity never needs them
            self._layers = self._layout.views(self.flat)
        return self._layers

    @property
    def trunk(self) -> tuple[Layer, ...]:
        return self.layers[:-2]

    @property
    def input_dim(self) -> int:
        return self._layout.shapes[0][0]


def leaves(params: EncoderParams) -> list[np.ndarray]:
    """All arrays in layer order, each layer's weights before its bias."""
    return [a for layer in params.layers for a in layer]


def _check_same_shape(trees) -> _Layout:
    layout = trees[0]._layout
    for t in trees[1:]:
        if t._layout is not layout and t._layout.shapes != layout.shapes:
            raise ValueError("shape mismatch")
    return layout


def map_leaves(fn, *trees: EncoderParams) -> EncoderParams:
    """Apply the elementwise fn once across the flat vectors of parameter
    trees of identical shape; fn must return a new array."""
    layout = _check_same_shape(trees)
    return EncoderParams._wrap(fn(*(t.flat for t in trees)), layout)


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return map_leaves(np.zeros_like, params)


def init_params(dims, rng: Rng) -> EncoderParams:
    """Fan-in-scaled uniform weights, zero biases, deterministic per stream.

    ``dims`` are the widths from input to embedding (``RunConfig.layer_dims``):
    at least one trunk layer, then the two projection layers."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 4 or any(d < 1 for d in dims):
        raise ValueError("invalid dims")

    def layer(fan_in: int, fan_out: int) -> Layer:
        # He-style bound keeps ReLU activation scale roughly constant with
        # depth, which also keeps the embedding norms away from zero where
        # the normalization Jacobian blows up.
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, (fan_in, fan_out))
        return w, np.zeros(fan_out)

    return EncoderParams(tuple(layer(a, b) for a, b in zip(dims, dims[1:])))


@dataclass
class ForwardTape:
    """What backward needs: the parameters, each layer's input (after the
    first, a ReLU output, whose positive entries are that ReLU's mask), the
    raw embeddings' row norms and the unit-norm embeddings."""

    params: EncoderParams
    inputs: list[np.ndarray]
    norms: np.ndarray
    out: np.ndarray


def _as_inputs(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"shape mismatch: expected (n, {params.input_dim}) inputs, "
            f"got {x.shape}"
        )
    return x


def _layer_inputs(params: EncoderParams, x: np.ndarray, layers) -> list[np.ndarray]:
    """``x``, then the output of each of ``layers`` with its ReLU, each the
    next layer's input. Training runs every layer but the last, the probes
    the trunk, so both compute the trunk bit for bit alike."""
    inputs = [_as_inputs(params, x)]
    for w, b in layers:
        a = inputs[-1] @ w
        a += b
        np.maximum(a, 0.0, out=a)
        inputs.append(a)
    return inputs


def trunk_features(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Trunk output (post-ReLU, not normalized); the representation probes use."""
    return _layer_inputs(params, x, params.trunk)[-1]


def forward(params: EncoderParams, x: np.ndarray):
    """Full pass: every layer, a ReLU between layers, L2 normalization.

    Returns (embeddings, tape); embeddings rows are unit norm. Raises
    ``DegenerateVectorError`` unless every raw embedding's norm is finite and
    above ``DEGENERATE_NORM``: such a row has no unit-norm direction.
    """
    inputs = _layer_inputs(params, x, params.layers[:-1])
    w, b = params.layers[-1]
    raw = inputs[-1] @ w + b
    norms = np.linalg.norm(raw, axis=1)
    if not np.all(np.isfinite(norms) & (norms > DEGENERATE_NORM)):
        raise DegenerateVectorError("degenerate vector")
    out = raw / norms[:, None]
    return out, ForwardTape(params, inputs, norms, out)


def backward(tape: ForwardTape, grad_embeddings: np.ndarray) -> EncoderParams:
    """Gradients of sum_i <grad_embeddings[i], embedding[i]> for every
    parameter of the forward pass that recorded ``tape``.

    Includes the normalization Jacobian (I - uu^T)/||v||.
    """
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != tape.out.shape:
        raise ValueError("shape mismatch")

    u = tape.out
    d_z = (g - np.sum(g * u, axis=1, keepdims=True) * u) / tape.norms[:, None]
    layout = tape.params._layout
    flat = np.empty(layout.size)
    grads = layout.views(flat)
    for i in range(len(tape.inputs) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(tape.inputs[i].T, d_z, out=gw)
        d_z.sum(axis=0, out=gb)
        if i:
            d_z = (d_z @ tape.params.layers[i][0].T) * (tape.inputs[i] > 0.0)
    return EncoderParams._wrap(flat, layout, grads)


def momentum_update(
    key: EncoderParams, query: EncoderParams, m: float
) -> EncoderParams:
    """Elementwise convex combination m*key + (1-m)*query."""
    if not 0.0 <= m <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    return map_leaves(lambda pk, pq: m * pk + (1.0 - m) * pq, key, query)
