"""Contrastive losses over a row of temperature-scaled similarity logits.

`loss_batch(kind, logits, targets)` evaluates one loss kind on a batch of
logits rows of width 1+K (index 0 is the augmented-key logit, indices 1..K
align with the queue) together with binary masks marking the positives, and
returns each row's value plus its exact gradient with respect to every
logit. Logits arrive already divided by the temperature; the trainer owns
that scaling.

The loss kinds:

- ``infonce``     single-positive softmax cross-entropy,
                  -log(exp(s+) / sum_k exp(s_k)).
- ``unicon``      unified pairwise loss over every (positive, negative) pair,
                  log(1 + sum_neg exp(s-) * sum_pos exp(-s+)). Evaluated as
                  softplus(A + B) with A = lse(negatives) and
                  B = lse(-positives), which never overflows.
- ``unicon_out``  the same pair set, but with the positive average moved
                  outside the log: mean over positives of
                  log(1 + sum_neg exp(s- - s+)).
- ``supcon_out``  mean over positives of the single-positive loss; the inner
                  sum ranges over *all* candidates, so positive-positive
                  entries are included.
- ``supcon_in``   positives averaged inside the log:
                  -log(sum_pos exp(s+) / (|P| * sum_all exp(s_k))).

``triplet_pair`` is the margin-zero triplet comparison of one query against
one positive and one negative key; on unit vectors it equals the squared
Euclidean distance gap max(0, ||q-k+||^2 - ||q-k-||^2).

All five masked losses collapse to the same value when there is exactly one
positive, and all are invariant to adding a constant to the whole row.
"""

from __future__ import annotations

import numpy as np

from .numerics import masked_lse_rows, sigmoid, softplus

LOSS_KINDS = ("infonce", "unicon", "unicon_out", "supcon_out", "supcon_in")


def _check_batch(kind: str, logits: np.ndarray, targets: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if logits.ndim != 2 or targets.shape != logits.shape:
        raise ValueError("logits and targets must be matching 2-d arrays")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    pos_counts = targets.sum(axis=1)
    if kind == "infonce":
        if np.any(pos_counts != 1):
            raise ValueError("infonce requires single positive")
    elif np.any(pos_counts < 1):
        raise ValueError(f"{kind} requires a positive")
    return logits, targets


def _softmax_rows(logits: np.ndarray, lse_all: np.ndarray) -> np.ndarray:
    return np.exp(logits - lse_all[:, None])


def _masked_exp(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # exp(x) where mask holds, exact 0 elsewhere; x may be +inf off-mask.
    return np.exp(np.where(mask, x, -np.inf))


def _unicon_batch(logits, pos):
    neg = ~pos
    has_neg = neg.any(axis=1)
    a = masked_lse_rows(logits, neg)
    b = masked_lse_rows(-logits, pos)
    a_safe = np.where(has_neg, a, 0.0)
    t = a_safe + b
    sig = sigmoid(t)
    grad_neg = sig[:, None] * _masked_exp(logits - a_safe[:, None], neg)
    grad_pos = -sig[:, None] * _masked_exp(-logits - b[:, None], pos)
    values = np.where(has_neg, softplus(t), 0.0)
    grads = np.where(has_neg[:, None], grad_neg + grad_pos, 0.0)
    return values, grads


def _unicon_out_batch(logits, pos):
    neg = ~pos
    has_neg = neg.any(axis=1)
    n_pos = pos.sum(axis=1).astype(np.float64)
    a = masked_lse_rows(logits, neg)
    a_safe = np.where(has_neg, a, 0.0)
    t = a_safe[:, None] - logits  # meaningful at positive entries
    per_pos_value = np.where(pos, softplus(t), 0.0)
    per_pos_sig = np.where(pos, sigmoid(t), 0.0)
    values = np.where(has_neg, per_pos_value.sum(axis=1) / n_pos, 0.0)
    grad_pos = -per_pos_sig / n_pos[:, None]
    sig_total = per_pos_sig.sum(axis=1) / n_pos
    grad_neg = sig_total[:, None] * _masked_exp(logits - a_safe[:, None], neg)
    grads = np.where(has_neg[:, None], grad_pos + grad_neg, 0.0)
    return values, grads


def _supcon_out_batch(logits, pos):
    n_pos = pos.sum(axis=1).astype(np.float64)
    lse_all = masked_lse_rows(logits, np.ones_like(pos))
    mean_pos = np.sum(np.where(pos, logits, 0.0), axis=1) / n_pos
    values = lse_all - mean_pos
    grads = _softmax_rows(logits, lse_all) - pos / n_pos[:, None]
    return values, grads


def _supcon_in_batch(logits, pos):
    n_pos = pos.sum(axis=1).astype(np.float64)
    lse_all = masked_lse_rows(logits, np.ones_like(pos))
    lse_pos = masked_lse_rows(logits, pos)
    values = lse_all - lse_pos + np.log(n_pos)
    softmax_pos = _masked_exp(logits - lse_pos[:, None], pos)
    grads = _softmax_rows(logits, lse_all) - softmax_pos
    return values, grads


_BATCH = {
    # with its single positive, supcon_out is exactly infonce (x / 1.0 == x)
    "infonce": _supcon_out_batch,
    "unicon": _unicon_batch,
    "unicon_out": _unicon_out_batch,
    "supcon_out": _supcon_out_batch,
    "supcon_in": _supcon_in_batch,
}


def loss_batch(kind: str, logits: np.ndarray, targets: np.ndarray):
    """Evaluate one loss kind on a batch of rows.

    Returns (values, grads) with shapes (N,) and (N, W); grads[i] is the
    exact derivative of values[i] with respect to logits[i].
    """
    if kind not in _BATCH:
        raise ValueError(f"unknown loss kind: {kind!r}")
    logits, targets = _check_batch(kind, logits, targets)
    return _BATCH[kind](logits, targets)


def triplet_pair(q, k_pos, k_neg, tau: float) -> float:
    """Margin-zero triplet comparison 2*tau*max(0, s- - s+) on unit vectors.

    With s = q.k/tau this equals max(0, ||q-k+||^2 - ||q-k-||^2).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    vecs = [np.asarray(v, dtype=np.float64) for v in (q, k_pos, k_neg)]
    for v in vecs:
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("non-unit input")
    q, k_pos, k_neg = vecs
    s_pos = float(q @ k_pos) / tau
    s_neg = float(q @ k_neg) / tau
    return 2.0 * tau * max(0.0, s_neg - s_pos)


__all__ = ["LOSS_KINDS", "loss_batch", "triplet_pair"]
