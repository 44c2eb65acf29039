"""Small dense numerics shared by every module.

Everything runs in 64-bit floats. The exported kernels are the numerically
delicate pieces (softplus, sigmoid) and a seeded, splittable random number
generator. All functions are pure; `Rng` instances are single-owner.
Importing this module has one side effect: it limits numpy's OpenBLAS to one
thread for the whole process (`_limit_blas_threads`).
"""

from __future__ import annotations

import ctypes
import hashlib
from pathlib import Path

import numpy as np

DEGENERATE_NORM = 1e-12
UNIT_NORM_TOL = 1e-8  # how far a unit vector's norm may stray from 1


def _limit_blas_threads() -> None:
    """Run every product on its calling thread. A woken OpenBLAS worker spins
    on a second core between products, which come about 1 ms apart in
    training and the probes. The limit is process-wide, so it is set once
    and never restored. Where numpy uses another BLAS, nothing changes."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(handle, symbol, None)
            if set_threads is not None:
                set_threads(1)
                return


_limit_blas_threads()


def row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of at most ``size`` rows covering
    ``n`` rows. Where the last block would be a lone row, it takes a row from
    the block before it: numpy multiplies a single row with gemv, which may
    round differently from the gemm of a many-row product."""
    starts = list(range(0, n, size))
    if size > 1 and n > size and n % size == 1:
        starts[-1] -= 1
    return list(zip(starts, starts[1:] + [n]))


class DegenerateVectorError(ValueError):
    """A row whose norm is too small to normalize."""


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
