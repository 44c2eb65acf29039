"""The loss property battery, shared by `conlab losscheck` and acceptance
criteria 1-6.

Each check samples a batch of rows from an `Rng`, evaluates it through
`loss_batch` as one batch (the finite-difference check makes one more call
per row, for that row's perturbed copies), and returns one row per (loss,
property): finite-difference gradient agreement, single-positive collapse,
shift invariance, large-logit stability, the max bounds, and the triplet
relation.
The naive-overflow row evaluates a deliberately naive direct-formula
implementation to demonstrate *why* the shipped evaluation path goes through
log-sum-exp and softplus: the naive one overflows on the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ELEMENT_BUDGET
from .losses import LOSS_KINDS, loss_batch, triplet_pair
from .numerics import Rng

FD_STEP = 1e-5
SHIFTS = (-100.0, -1.0, 1.0, 100.0)
EXTREME = 600.0


@dataclass(frozen=True)
class CheckResult:
    loss: str
    prop: str
    trials: int
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def naive_unicon_values(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Direct formula log(1 + Σ_neg exp(s) · Σ_pos exp(−s)); overflows by
    design on large logits. Kept for demonstration, never for training."""
    logits = np.asarray(logits, dtype=np.float64)
    pos = np.asarray(targets, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        sum_neg = np.where(~pos, np.exp(logits), 0.0).sum(axis=1)
        sum_pos = np.where(pos, np.exp(-logits), 0.0).sum(axis=1)
        return np.log1p(sum_neg * sum_pos)


def _masks(rng: Rng, n_rows: int, width: int, kind: str, min_pos: int = 1):
    """Positives at random slots: one for infonce, else min_pos..8 per row,
    capped at width - 1 so every row keeps a negative."""
    masks = np.zeros((n_rows, width), dtype=bool)
    max_pos = min(8, width - 1)
    for i in range(n_rows):
        n_pos = 1 if kind == "infonce" else int(rng.integers(min_pos, max_pos + 1))
        masks[i, rng.permutation(width)[:n_pos]] = True
    return masks


def _finite(kind: str, logits: np.ndarray, masks: np.ndarray) -> bool:
    """Values and gradients finite, with no overflow or invalid operation."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            values, grads = loss_batch(kind, logits, masks)
    except FloatingPointError:
        return False
    return bool(np.isfinite(values).all() and np.isfinite(grads).all())


def check_grad_fd(kind: str, rng: Rng, n_rows: int, width: int) -> CheckResult:
    """Analytic gradients against central differences; the error of a row is
    max |grad - fd| relative to max |grad|. Each row's 2 * width perturbed
    copies are one `loss_batch` call, so memory does not grow with rows ×
    width²; a row's values do not depend on the rows batched with it."""
    logits = 2.0 * rng.normal(size=(n_rows, width))
    masks = _masks(rng, n_rows, width, kind)
    _, grads = loss_batch(kind, logits, masks)
    cols = np.arange(width)
    fd = np.empty((n_rows, width))
    for i in range(n_rows):
        pert = np.repeat(logits[i : i + 1], 2 * width, axis=0)  # (2w, w)
        pert[2 * cols, cols] += FD_STEP
        pert[2 * cols + 1, cols] -= FD_STEP
        values, _ = loss_batch(kind, pert, np.repeat(masks[i : i + 1], 2 * width, 0))
        fd[i] = (values[0::2] - values[1::2]) / (2.0 * FD_STEP)
    num = np.max(np.abs(grads - fd), axis=1)
    den = np.maximum(np.max(np.abs(grads), axis=1), 1e-12)
    return CheckResult(kind, "grad_fd", n_rows, float(np.max(num / den)), 1e-6)


def check_single_pos(kind: str, rng: Rng, n_rows: int, width: int) -> CheckResult:
    """With one positive per row, `kind` takes the infonce value."""
    logits = 3.0 * rng.normal(size=(n_rows, width))
    masks = np.zeros((n_rows, width), dtype=bool)
    masks[np.arange(n_rows), rng.integers(0, width, size=n_rows)] = True
    values, _ = loss_batch(kind, logits, masks)
    ref, _ = loss_batch("infonce", logits, masks)
    worst = float(np.max(np.abs(values - ref)))
    return CheckResult(kind, "single_pos", n_rows, worst, 1e-10)


def check_shift_inv(kind: str, rng: Rng, n_rows: int, width: int) -> CheckResult:
    """Adding a constant to a whole row leaves the value unchanged (relative
    change, over every shift in SHIFTS)."""
    logits = 2.0 * rng.normal(size=(n_rows, width))
    masks = _masks(rng, n_rows, width, kind)
    values, _ = loss_batch(
        kind,
        np.concatenate([logits] + [logits + c for c in SHIFTS]),
        np.tile(masks, (1 + len(SHIFTS), 1)),
    )
    base, shifted = values[:n_rows], values[n_rows:].reshape(len(SHIFTS), n_rows)
    rel = np.abs(shifted - base) / np.maximum(np.abs(base), 1e-12)
    return CheckResult(kind, "shift_inv", n_rows, float(np.max(rel)), 1e-9)


def check_stability(kind: str, rng: Rng, n_rows: int, width: int) -> CheckResult:
    """Finite values and gradients on rows of random ±600 logits."""
    logits = np.where(rng.random(size=(n_rows, width)) < 0.5, EXTREME, -EXTREME)
    masks = _masks(rng, n_rows, width, kind)
    err = 0.0 if _finite(kind, logits, masks) else math.inf
    return CheckResult(kind, "stability_600", n_rows, err, 0.0)


def check_naive_overflow(width: int) -> CheckResult:
    """On one row with the positive at -600 and every negative at +600, the
    naive formula overflows while `loss_batch` stays finite."""
    logits = np.full((1, width), EXTREME)
    logits[0, 0] = -EXTREME
    masks = np.zeros((1, width), dtype=bool)
    masks[0, 0] = True
    naive_breaks = not np.isfinite(naive_unicon_values(logits, masks)).all()
    ok = naive_breaks and _finite("unicon", logits, masks)
    return CheckResult("unicon", "naive_overflow", 1, 0.0 if ok else math.inf, 0.0)


def check_max_bounds(rng: Rng, n_rows: int, width: int) -> CheckResult:
    """max(0, max gap) <= unicon <= max(0, max gap) + log(1 + |P||N|), where
    the gap runs over (negative, positive) logit pairs; rows have 2+ positives."""
    logits = 2.0 * rng.normal(size=(n_rows, width))
    masks = _masks(rng, n_rows, width, "unicon", min_pos=2)
    values, _ = loss_batch("unicon", logits, masks)
    gap = np.where(~masks, logits, -np.inf).max(axis=1) - np.where(
        masks, logits, np.inf
    ).min(axis=1)
    lower = np.maximum(0.0, gap)
    n_pos = masks.sum(axis=1)
    upper = lower + np.log1p(n_pos * (width - n_pos))
    violation = max(float(np.max(np.maximum(lower - values, values - upper))), 0.0)
    return CheckResult("unicon", "max_bounds", n_rows, violation, 1e-12)


def check_triplet(rng: Rng, n_rows: int) -> tuple[CheckResult, CheckResult]:
    """On random unit (q, k+, k-) in 8-d with tau log-uniform in [0.05, 5]:
    the envelope row reports max of |2τ·unicon − triplet| − 2τ·log 2 (must be
    <= 0 up to 1e-12); the identity row compares triplet_pair with the
    squared-distance gap."""
    taus = np.empty(n_rows)
    logits = np.empty((n_rows, 2))
    trip = np.empty(n_rows)
    ref = np.empty(n_rows)
    for t in range(n_rows):
        r = rng.stream("tuple", t)
        q, kp, kn = r.unit_rows(3, 8)
        tau = float(10.0 ** r.uniform(math.log10(0.05), math.log10(5.0)))
        taus[t] = tau
        logits[t] = np.array([float(q @ kp), float(q @ kn)]) / tau
        trip[t] = triplet_pair(q, kp, kn, tau)
        ref[t] = max(0.0, float(np.sum((q - kp) ** 2) - np.sum((q - kn) ** 2)))
    masks = np.zeros((n_rows, 2), dtype=bool)
    masks[:, 0] = True
    uni, _ = loss_batch("unicon", logits, masks)
    excess = float(np.max(np.abs(2.0 * taus * uni - trip) - 2.0 * taus * math.log(2.0)))
    identity = float(np.max(np.abs(trip - ref)))
    return (
        CheckResult("unicon", "triplet_env", n_rows, excess, 1e-12),
        CheckResult("unicon", "triplet_pair", n_rows, identity, 1e-10),
    )


def run_losscheck(trials: int = 1000, width: int = 33, seed: int = 0):
    """The full battery; returns CheckResult rows, all of which must pass.

    The largest arrays are one row's (2 · width, width) finite-difference
    block and the shift check's (1 + len(SHIFTS)) · trials rows; a size that
    puts either past ``ELEMENT_BUDGET`` is refused before any check runs."""
    if width < 3:
        raise ValueError("width must be >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for what, n in (
        ("2 * width**2", 2 * width * width),
        (f"{1 + len(SHIFTS)} * trials * width", (1 + len(SHIFTS)) * trials * width),
    ):
        if n > ELEMENT_BUDGET:
            raise ValueError(f"{what} exceeds the budget of {ELEMENT_BUDGET} elements")
    root = Rng(seed).stream("losscheck")
    grad_trials = min(trials, 200)  # FD is the expensive check
    results = []
    for i, kind in enumerate(LOSS_KINDS):
        results += [
            check_grad_fd(kind, root.stream("grad", i), grad_trials, width),
            check_single_pos(kind, root.stream("single", i), trials, width),
            check_shift_inv(kind, root.stream("shift", i), trials, width),
            check_stability(kind, root.stream("stab", i), trials, width),
        ]
    results.append(check_max_bounds(root.stream("bounds"), trials, width))
    results.extend(check_triplet(root.stream("triplet"), trials))
    results.append(check_naive_overflow(width))
    return results


def format_check_table(results) -> str:
    lines = [
        f"{'loss':<11} {'property':<15} {'trials':>6} {'max_err':>10} "
        f"{'tol':>8} {'status':>6}"
    ]
    for r in results:
        lines.append(
            f"{r.loss:<11} {r.prop:<15} {r.trials:>6} {r.max_err:>10.2e} "
            f"{r.tol:>8.0e} {'PASS' if r.passed else 'FAIL':>6}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results)} checks, {len(results) - n_fail} passed, {n_fail} failed"
    )
    return "\n".join(lines)


__all__ = [
    "CheckResult",
    "check_grad_fd",
    "check_max_bounds",
    "check_naive_overflow",
    "check_shift_inv",
    "check_single_pos",
    "check_stability",
    "check_triplet",
    "format_check_table",
    "naive_unicon_values",
    "run_losscheck",
]
