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

from .numerics import UNIT_NORM_TOL, sigmoid, softplus


def _check_batch(kind: str, logits: np.ndarray, targets: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if logits.ndim != 2 or targets.shape != logits.shape:
        raise ValueError("logits and targets must be matching 2-d arrays")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    pf = targets.astype(np.float64)
    pos_counts = pf.sum(axis=1)
    if kind == "infonce":
        if np.any(pos_counts != 1):
            raise ValueError("infonce requires single positive")
    elif np.any(pos_counts < 1):
        raise ValueError(f"{kind} requires a positive")
    return logits, pf


# Every kernel below takes the positives as a float mask pf (1.0 at a
# positive, 0.0 elsewhere) and nf = 1 - pf, makes a single exp pass over the
# batch, and forms masked sums and gradients by multiplying with the masks.
# Multiplying by 0.0 or 1.0 and adding 0.0 are exact, so a masked lane never
# perturbs a kept one. The kernels reuse their batch-sized arrays in place;
# written with temporaries, the same formulas ran about a sixth slower in
# training (64x513 logits on a 2-vCPU host).


def _masked_max(t, drop, out):
    """Row max of t over the lanes where the 0/1 float mask ``drop`` is 0.

    The dropped lanes are pushed below every entry of t, so a plain row max
    finds the kept maximum exactly; a row with no kept lane gets a finite
    value below all of its entries. ``out`` is scratch space.
    """
    bound = max(t.max(initial=0.0), -t.min(initial=0.0))
    np.multiply(drop, -(1.0 + 2.0 * bound), out=out)
    out += t
    return out.max(axis=1)


def _softplus_of_lse(t, pf, sign):
    """softplus(lse_neg(t) + sign * lse_pos(t)) per row, and its gradient.

    lse_neg and lse_pos are the log-sum-exp of t over the negatives and over
    the positives. Each lane is shifted by the max of its own side before the
    one exp pass, so every exponent is <= 0 and each side's largest term is
    exactly 1: neither sum underflows, however far apart the sides lie. A
    single row max would flush the lower side to zero at +-600.

    The returned gradient is sigmoid(x) * softmax_neg(t) at the negatives and
    -sigmoid(x) * softmax_pos(t) at the positives, which is the gradient in
    the logits both for unicon (t = -s at the positives, sign +1) and for
    supcon_in (t = s, sign -1). A row without a negative has lse_neg = -inf,
    so its value and gradient are 0. Overwrites t.
    """
    nf = 1.0 - pf
    e = np.empty_like(t)
    m_neg = _masked_max(t, pf, e)
    m_pos = _masked_max(t, nf, e)
    np.subtract(t, np.multiply(nf, m_neg[:, None], out=e), out=e)
    e -= np.multiply(pf, m_pos[:, None], out=t)
    np.exp(e, out=e)
    sum_neg = np.einsum("ij,ij->i", e, nf)
    sum_pos = np.einsum("ij,ij->i", e, pf)
    has_neg = sum_neg > 0.0  # the max negative contributes exactly 1
    sum_neg = np.where(has_neg, sum_neg, 1.0)
    lse_neg = np.where(has_neg, m_neg + np.log(sum_neg), -np.inf)
    x = lse_neg + sign * (m_pos + np.log(sum_pos))
    sig = sigmoid(x)
    grads = np.multiply(nf, (sig / sum_neg)[:, None], out=t)
    grads -= np.multiply(pf, (sig / sum_pos)[:, None], out=nf)
    grads *= e
    return softplus(x), grads


def _unicon_batch(logits, pf):
    # softplus(lse(s-) + lse(-s+)): the positives enter negated
    t = np.multiply(pf, -2.0)
    t += 1.0
    t *= logits
    return _softplus_of_lse(t, pf, 1.0)


def _supcon_in_batch(logits, pf):
    # lse_all - lse_pos + log|P| = softplus(lse(s-) - lse(s+)) + log|P|
    values, grads = _softplus_of_lse(logits.copy(), pf, -1.0)
    return values + np.log(pf.sum(axis=1)), grads


def _unicon_out_batch(logits, pf):
    # Mean over positives p of softplus(x_p), x_p = lse_neg - s_p. The one
    # exp pass is e = exp(-|y|) with y = m_neg - s, and x = y + log S with
    # S = sum_neg e. Where y >= 0 (every negative, and the positives below
    # m_neg) x >= 0 and g = e / S = exp(-x); on the other lanes, nk = 1,
    # g = e * S = exp(x). So softplus(x) = (1 - nk) * x + log1p(g) and
    # sigmoid(x) = (1 - nk + nk * g) / (1 + g), and at the negatives g is
    # the softmax over the negatives.
    nf = 1.0 - pf
    x = np.empty_like(logits)
    np.subtract(_masked_max(logits, pf, x)[:, None], logits, out=x)
    nk = (x < 0.0).astype(np.float64)
    g = np.abs(x)
    np.negative(g, out=g)
    np.exp(g, out=g)
    sum_neg = np.einsum("ij,ij->i", g, nf)
    has_neg = sum_neg > 0.0
    sum_neg = np.where(has_neg, sum_neg, 1.0)[:, None]
    x += np.log(sum_neg)
    # g = e / S, times S**2 on the nk lanes (within a few ulp of e * S)
    tmp = np.multiply(nk, sum_neg * sum_neg - 1.0)
    tmp += 1.0
    g /= sum_neg
    g *= tmp
    w = has_neg / pf.sum(axis=1)
    np.subtract(x, np.multiply(nk, x, out=tmp), out=tmp)
    tmp += np.log1p(g, out=x)
    values = np.einsum("ij,ij->i", tmp, pf) * w
    pos_sig = np.subtract(1.0, nk, out=x)
    pos_sig += np.multiply(nk, g, out=tmp)
    pos_sig /= np.add(g, 1.0, out=tmp)
    pos_sig *= pf
    grads = np.multiply(nf, g, out=tmp)
    grads *= (pos_sig.sum(axis=1) * w)[:, None]
    grads -= np.multiply(pos_sig, w[:, None], out=nk)
    return values, grads


def _supcon_out_batch(logits, pf):
    # mean over positives of lse_all - s_p; all lanes share one shift
    n_pos = pf.sum(axis=1)
    m = logits.max(axis=1)
    e = np.subtract(logits, m[:, None])
    np.exp(e, out=e)
    total = e.sum(axis=1)
    # both terms are >= 0, so a value near 0 keeps its relative accuracy
    values = (m - np.einsum("ij,ij->i", logits, pf) / n_pos) + np.log(total)
    grads = np.divide(e, total[:, None], out=e)
    grads -= np.divide(pf, n_pos[:, None], out=pf)  # pf is not read again
    return values, grads


_BATCH = {
    # with its single positive, supcon_out is exactly infonce (x / 1.0 == x)
    "infonce": _supcon_out_batch,
    "unicon": _unicon_batch,
    "unicon_out": _unicon_out_batch,
    "supcon_out": _supcon_out_batch,
    "supcon_in": _supcon_in_batch,
}
LOSS_KINDS = tuple(_BATCH)


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
        if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("non-unit input")
    q, k_pos, k_neg = vecs
    s_pos = float(q @ k_pos) / tau
    s_neg = float(q @ k_neg) / tau
    return 2.0 * tau * max(0.0, s_neg - s_pos)


__all__ = ["LOSS_KINDS", "loss_batch", "triplet_pair"]
