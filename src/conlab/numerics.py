"""Small dense numerics shared by every module.

Everything runs in 64-bit floats. The exported kernels are the numerically
delicate pieces (log-sum-exp, softplus, sigmoid), a matrix product that stays
on the calling thread, and a seeded, splittable random number generator. All
functions are pure; `Rng` instances are single-owner.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEGENERATE_NORM = 1e-12

# OpenBLAS 0.3.31 runs an (m, k) @ (k, n) product on the calling thread while
# m * n * k stays at or below this; 4 x 5000 x 32 stayed there, 8 x 5000 x 32
# went to its thread pool, whose woken worker then spins on a second core.
SERIAL_PRODUCT_SIZE = 2**19


def row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of at most ``size`` rows covering
    ``n`` rows. Where the last block would be a lone row, it takes a row from
    the block before it: numpy multiplies a single row with gemv, which may
    round differently from the gemm of a many-row product."""
    starts = list(range(0, n, size))
    if size > 1 and n > size and n % size == 1:
        starts[-1] -= 1
    return list(zip(starts, starts[1:] + [n]))


def _product_rows(k: int, n: int) -> int:
    """Rows of an (rows, k) @ (k, n) block within ``SERIAL_PRODUCT_SIZE``
    multiply-adds, a multiple of 8 from 8 rows on, and at least one."""
    rows = max(1, SERIAL_PRODUCT_SIZE // max(1, k * n))
    return rows - rows % 8 if rows >= 8 else rows


def serial_matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``a @ b`` for 2-d arrays, computed on the calling thread, where a woken
    BLAS worker cannot spin on a second core between calls. OpenBLAS decides
    this by layout and by size. It sends a product against a transposed
    operand, such as ``q @ F.T`` with a (K, D) queue at the training step's
    shapes, to its thread pool, while against a C-contiguous copy it takes
    the small-matrix kernel. So ``b`` is multiplied as a C-contiguous array,
    copied only if it is not one, in row blocks of ``a`` of ``_product_rows``
    rows. A single row may exceed the bound. ``out``, if given, is an (m, n)
    array to write into, which may be strided."""
    m, k = a.shape
    n = b.shape[1]
    b = np.ascontiguousarray(b)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    for lo, hi in row_blocks(m, _product_rows(k, n)):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


class DegenerateVectorError(ValueError):
    """A row whose norm is too small to normalize."""


def log_sum_exp(values) -> float:
    """log(sum(exp(v_i))) with the maximum subtracted before exponentiation.

    Exact (returns x itself) for single-element input.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input")
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def softplus(x):
    """log(1 + exp(x)) without overflow, elementwise.

    Uses the identity softplus(x) = max(x, 0) + log1p(exp(-|x|)), which is
    stable over the whole float64 range and makes softplus(x) - softplus(-x)
    equal to x exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def sigmoid(x):
    """Logistic function, computed without overflow on either tail."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Counter-based seeded generator with labeled substream derivation.

    A root seed plus a path of (label, index...) components identifies a
    stream; recreating the same path always yields bitwise-identical draws.
    This makes every consumer positionally re-derivable: stream("aug", step)
    is the same stream on a fresh run and after a resume.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self._path = tuple(int(p) for p in _path)
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:
        # built on the first draw: a stream used only to derive children
        # (stream("aug", step) in training) never pays for one
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self._path)
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

    def stream(self, label: str, *indices: int) -> "Rng":
        """Derive an independent child stream for (label, *indices)."""
        for i in indices:
            if int(i) < 0:
                raise ValueError("stream indices must be non-negative")
        path = self._path + (_label_key(label),) + tuple(int(i) for i in indices)
        return Rng(self.seed, _path=path)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def random(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def unit_rows(self, n: int, dim: int) -> np.ndarray:
        """n random directions, uniform on the unit sphere in `dim`."""
        rows = self._gen.standard_normal((n, dim))
        norms = np.linalg.norm(rows, axis=1)
        while np.any(norms <= DEGENERATE_NORM):  # pragma: no cover
            bad = norms <= DEGENERATE_NORM
            rows[bad] = self._gen.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(rows, axis=1)
        return rows / norms[:, None]
