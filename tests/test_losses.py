"""The contrastive loss family: frozen oracle rows plus behavioural laws.

ORACLE holds (kind, logits, positives-mask, value, gradient) tuples computed
with mpmath at 60 decimal digits (values via the defining formulas, gradients
via mp-precision central differences with h = 1e-25), frozen to 20
significant digits. Everything else is property-based.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conlab.losses import LOSS_KINDS, loss_batch, triplet_pair

MULTI_POS_KINDS = ("unicon", "unicon_out", "supcon_out", "supcon_in")

LOG3 = float(np.log(3.0))

ORACLE = [
    (
        "infonce",
        [5.0, 0.0, 0.0],
        [1, 0, 0],
        0.013385901721448902242,
        [-0.013296708957732007732, 0.0066483544788660038662, 0.0066483544788660038662],
    ),
    (
        "unicon",
        [0.5, 0.2, -0.1, 0.3],
        [1, 1, 0, 0],
        1.4383011388009174797,
        [
            -0.32455966689871905309,
            -0.4381097249471696664,
            0.30606863820228682267,
            0.45660075364360189683,
        ],
    ),
    (
        "unicon_out",
        [0.5, 0.2, -0.1, 0.3],
        [1, 1, 0, 0],
        0.95388156693646662123,
        [
            -0.28881053944936414748,
            -0.32431415735538847108,
            0.24605450671755869784,
            0.36707019008719392071,
        ],
    ),
    (
        "supcon_out",
        [1.0, 0.0, 0.0],
        [1, 1, 0],
        1.0514447139320510891,
        [0.076116884765829109858, -0.28805844238291455493, 0.21194155761708544507],
    ),
    (
        "supcon_in",
        [1.0, 0.0, 0.0],
        [1, 1, 0],
        0.93133020697377356442,
        [-0.15494169386417576939, -0.056999863752909675678, 0.21194155761708544507],
    ),
    (
        "infonce",
        [1.5, -0.25, 0.75, -2.0, 0.3],
        [1, 0, 0, 0, 0],
        0.68184964885971602529,
        [
            -0.49431920509146276229,
            0.087874145858412289882,
            0.23886669387828179649,
            0.015270236853155904096,
            0.15230812850161277183,
        ],
    ),
    (
        "unicon",
        [1.5, -0.25, 0.75, -2.0, 0.3],
        [1, 0, 1, 0, 0],
        0.94569456785075248041,
        [
            -0.19621119552142304635,
            0.21038342878753921798,
            -0.41537910417844534665,
            0.036559158057036589408,
            0.36464771285529258561,
        ],
    ),
    (
        "unicon_out",
        [1.5, -0.25, 0.75, -2.0, 0.3],
        [1, 0, 1, 0, 0],
        0.56808936362217160382,
        [
            -0.16781062473459133469,
            0.14660986722803789339,
            -0.25838821209254369002,
            0.025476974776962325104,
            0.25411199482213480621,
        ],
    ),
    (
        "supcon_out",
        [1.5, -0.25, 0.75, -2.0, 0.3],
        [1, 0, 1, 0, 0],
        1.0568496488597160253,
        [
            0.0056807949085372377113,
            0.087874145858412289882,
            -0.26113330612171820351,
            0.015270236853155904096,
            0.15230812850161277183,
        ],
    ),
    (
        "supcon_in",
        [1.5, -0.25, 0.75, -2.0, 0.3],
        [1, 0, 1, 0, 0],
        0.98812582330476139103,
        [
            -0.17349790426685573545,
            0.087874145858412289882,
            -0.081954606946325230355,
            0.015270236853155904096,
            0.15230812850161277183,
        ],
    ),
]


def random_row(rng, width, kind, min_pos=1, max_pos=None):
    """A random logits row and positives mask valid for `kind`."""
    s = 2.0 * rng.normal(size=width)
    mask = np.zeros(width, dtype=bool)
    mask[0] = True
    if kind != "infonce":
        hi = max_pos if max_pos is not None else max(min_pos, min(8, width - 1))
        extra = rng.integers(min_pos - 1, hi)  # count beyond the index-0 positive
        if extra > 0:
            mask[1 + rng.permutation(width - 1)[:extra]] = True
    return s, mask


@pytest.mark.parametrize("kind,logits,mask,value,grad", ORACLE)
def test_oracle_rows(kind, logits, mask, value, grad):
    values, grads = loss_batch(kind, np.array([logits]), np.array([mask], dtype=bool))
    assert values[0] == pytest.approx(value, rel=1e-13)
    assert np.allclose(grads[0], grad, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# closed-form special cases


def test_uniform_logits_give_log3():
    row = np.zeros((1, 3))
    one_pos = np.array([[True, False, False]])
    for kind in LOSS_KINDS:
        values, _ = loss_batch(kind, row, one_pos)
        assert values[0] == pytest.approx(LOG3, abs=1e-12)


def test_unicon_uniform_equals_log1p_n():
    for n in (1, 2, 5, 17):
        row = np.zeros((1, 1 + n))
        mask = np.zeros((1, 1 + n), dtype=bool)
        mask[0, 0] = True
        values, _ = loss_batch("unicon", row, mask)
        assert values[0] == pytest.approx(np.log(1 + n), abs=1e-12)


def test_empty_negative_set_is_zero():
    row = np.array([[0.7, -0.3, 1.1]])
    all_pos = np.ones((1, 3), dtype=bool)
    for kind in ("unicon", "unicon_out"):
        values, grads = loss_batch(kind, row, all_pos)
        assert values[0] == 0.0
        assert np.array_equal(grads[0], np.zeros(3))
    # supcon losses remain well-defined on the same input
    for kind in ("supcon_out", "supcon_in"):
        assert loss_batch(kind, row, all_pos)[0][0] > 0.0


def test_precondition_errors():
    row = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="infonce requires single positive"):
        loss_batch("infonce", row, np.array([[True, True, False]]))
    no_pos = np.zeros((1, 3), dtype=bool)
    for kind in MULTI_POS_KINDS:
        with pytest.raises(ValueError, match="requires a positive"):
            loss_batch(kind, row, no_pos)


def test_input_validation():
    with pytest.raises(ValueError, match="unknown loss kind"):
        loss_batch("nce", np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
    with pytest.raises(ValueError, match="non-finite"):
        loss_batch("unicon", np.array([[np.inf, 0.0]]), np.array([[True, False]]))
    with pytest.raises(ValueError, match="matching 2-d"):
        loss_batch("unicon", np.zeros((2, 3)), np.ones((2, 4), dtype=bool))


# ---------------------------------------------------------------------------
# cross-loss identities


@given(st.integers(0, 2**32 - 1))
def test_single_positive_collapse(seed):
    rng = np.random.default_rng(seed)
    s, mask = random_row(rng, 12, "infonce")
    base, _ = loss_batch("infonce", s[None], mask[None])
    for kind in MULTI_POS_KINDS:
        values, _ = loss_batch(kind, s[None], mask[None])
        assert abs(values[0] - base[0]) <= 1e-10


@given(st.integers(0, 2**32 - 1))
def test_single_positive_gradients_collapse(seed):
    rng = np.random.default_rng(seed)
    s, mask = random_row(rng, 10, "infonce")
    _, base = loss_batch("infonce", s[None], mask[None])
    for kind in MULTI_POS_KINDS:
        _, grads = loss_batch(kind, s[None], mask[None])
        assert np.allclose(grads[0], base[0], atol=1e-10)


@given(st.integers(0, 2**32 - 1))
def test_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    for kind in LOSS_KINDS:
        s, mask = random_row(rng, 14, kind)
        assert loss_batch(kind, s[None], mask[None])[0][0] >= -1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([-100.0, -1.0, 1.0, 100.0]))
def test_shift_invariance(seed, c):
    rng = np.random.default_rng(seed)
    for kind in LOSS_KINDS:
        s, mask = random_row(rng, 14, kind)
        a_value, a_grad = loss_batch(kind, s[None], mask[None])
        b_value, b_grad = loss_batch(kind, (s + c)[None], mask[None])
        assert abs(b_value[0] - a_value[0]) <= 1e-10 * max(1.0, abs(a_value[0]))
        assert np.allclose(b_grad[0], a_grad[0], atol=1e-10)


@given(st.integers(0, 2**32 - 1))
def test_gradient_signs(seed):
    rng = np.random.default_rng(seed)
    for kind in ("infonce", "unicon", "unicon_out"):
        s, mask = random_row(rng, 14, kind)
        grad = loss_batch(kind, s[None], mask[None])[1][0]
        assert np.all(grad[mask] <= 1e-15)
        assert np.all(grad[~mask] >= -1e-15)


@given(st.integers(0, 2**32 - 1))
def test_monotonicity(seed):
    rng = np.random.default_rng(seed)
    for kind in ("infonce", "unicon", "unicon_out"):
        s, mask = random_row(rng, 10, kind)
        base = loss_batch(kind, s[None], mask[None])[0][0]
        neg_idx = int(np.flatnonzero(~mask)[0])
        pos_idx = int(np.flatnonzero(mask)[0])
        bumped = s.copy()
        bumped[neg_idx] += 0.5
        assert loss_batch(kind, bumped[None], mask[None])[0][0] > base
        bumped = s.copy()
        bumped[pos_idx] += 0.5
        assert loss_batch(kind, bumped[None], mask[None])[0][0] < base


@given(st.integers(0, 2**32 - 1))
def test_unicon_max_bounds(seed):
    rng = np.random.default_rng(seed)
    s, mask = random_row(rng, 14, "unicon", min_pos=2)
    pos, neg = s[mask], s[~mask]
    delta_max = float(np.max(neg[None, :] - pos[:, None]))
    n_pairs = pos.size * neg.size
    value = loss_batch("unicon", s[None], mask[None])[0][0]
    assert max(0.0, delta_max) - 1e-12 <= value
    assert value <= max(0.0, delta_max) + np.log(1 + n_pairs) + 1e-12


# ---------------------------------------------------------------------------
# batch evaluation


def test_batch_matches_row_functions():
    # each row of a batch evaluates as it does alone in a one-row batch
    rng = np.random.default_rng(42)
    for kind in LOSS_KINDS:
        rows, masks = zip(*(random_row(rng, 9, kind) for _ in range(6)))
        logits = np.stack(rows)
        targets = np.stack(masks)
        values, grads = loss_batch(kind, logits, targets)
        assert values.shape == (6,)
        assert grads.shape == logits.shape
        for i in range(6):
            value, grad = loss_batch(kind, logits[i : i + 1], targets[i : i + 1])
            assert values[i] == pytest.approx(value[0], rel=1e-14, abs=1e-14)
            assert np.allclose(grads[i], grad[0], atol=1e-14)


def test_batch_mixed_positive_counts():
    logits = np.array([[1.0, 0.0, 0.0], [0.5, 0.2, -0.1]])
    targets = np.array([[True, False, False], [True, True, False]])
    values, _ = loss_batch("supcon_in", logits, targets)
    for i in range(2):
        alone, _ = loss_batch("supcon_in", logits[i : i + 1], targets[i : i + 1])
        assert values[i] == pytest.approx(alone[0])


# ---------------------------------------------------------------------------
# extreme logits


def test_all_losses_finite_at_extreme_logits():
    rng = np.random.default_rng(7)
    with np.errstate(over="raise", invalid="raise"):
        for kind in LOSS_KINDS:
            for _ in range(20):
                s, mask = random_row(rng, 14, kind)
                s = np.where(rng.random(s.shape) < 0.5, 600.0, -600.0) + s
                values, grads = loss_batch(kind, s[None], mask[None])
                assert np.isfinite(values[0])
                assert np.all(np.isfinite(grads[0]))


def test_unicon_extreme_worst_case_value():
    # one positive at -600 and one negative at +600: value ~ Delta = 1200
    s = np.array([[-600.0, 600.0]])
    mask = np.array([[True, False]])
    values, grads = loss_batch("unicon", s, mask)
    assert values[0] == pytest.approx(1200.0, rel=1e-12)
    assert np.all(np.isfinite(grads))


# ---------------------------------------------------------------------------
# per-row reference from the defining formulas


def _lse(v) -> float:
    """log(sum(exp(v_i))) with the maximum subtracted before exponentiation:
    the scalar oracle the reference rows are built from. Exact (returns x
    itself) for single-element input."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input")
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


# the oracle's own checks: values frozen from mpmath like ORACLE's, and laws
finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_lse_frozen_values():
    assert _lse([0.5, -1.25, 3.0]) == pytest.approx(
        3.0919857805919687654, rel=1e-15
    )
    assert _lse([600.0, 599.0, -600.0]) == pytest.approx(
        600.31326168751822283, rel=1e-15
    )
    assert _lse([-1000.0, -1000.0, -1000.0]) == pytest.approx(
        -998.90138771133189031, rel=1e-15
    )


@given(finite_floats)
def test_lse_singleton_is_exact(x):
    assert _lse([x]) == x


@given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
def test_lse_shift_property(values, c):
    shifted = _lse([v + c for v in values])
    assert shifted == pytest.approx(_lse(values) + c, abs=1e-12)


@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_lse_dominates_max(values):
    assert _lse(values) >= max(values) - 1e-12


def test_lse_empty_and_nonfinite_rejected():
    with pytest.raises(ValueError, match="empty reduction"):
        _lse([])
    with pytest.raises(ValueError, match="non-finite"):
        _lse([0.0, np.inf])
    with pytest.raises(ValueError, match="non-finite"):
        _lse([np.nan])


def test_lse_huge_inputs_no_overflow():
    with np.errstate(over="raise"):
        assert _lse([750.0, 740.0]) == pytest.approx(
            750.0 + np.log1p(np.exp(-10.0)), rel=1e-15
        )
        assert _lse([-750.0, -760.0]) == pytest.approx(
            -750.0 + np.log1p(np.exp(-10.0)), rel=1e-15
        )


def _softmax(v):
    v = np.asarray(v, dtype=np.float64)
    return np.exp(v - _lse(v))


def _sigmoid(x):
    # exp(x) / (1 + exp(x)), with the denominator as lse([0, x])
    return float(np.exp(x - _lse([0.0, x])))


def reference_row(kind, s, mask):
    """(value, gradient) of one row, one scalar log-sum-exp per term."""
    pos, neg = s[mask], s[~mask]
    n_pos = pos.size
    grad = np.zeros_like(s)
    if kind in ("infonce", "supcon_out"):
        # mean over positives of -log(exp(s_p) / sum_k exp(s_k))
        value = np.mean([_lse(s - sp) for sp in pos])
        grad = _softmax(s) - mask / n_pos
    elif kind == "supcon_in":
        # -log(sum_pos exp(s_p) / (|P| sum_k exp(s_k)))
        value = _lse(s) - _lse(pos) + np.log(n_pos)
        grad = _softmax(s)
        grad[mask] -= _softmax(pos)
    elif neg.size == 0:
        value = 0.0  # no (positive, negative) pair
    elif kind == "unicon":
        # log(1 + sum_neg exp(s_n) * sum_pos exp(-s_p))
        t = _lse(neg) + _lse(-pos)
        value = _lse([0.0, t])
        grad[~mask] = _sigmoid(t) * _softmax(neg)
        grad[mask] = -_sigmoid(t) * _softmax(-pos)
    else:  # unicon_out: mean over positives of log(1 + sum_neg exp(s_n - s_p))
        x = [_lse(neg) - sp for sp in pos]
        value = np.mean([_lse([0.0, xp]) for xp in x])
        sig = np.array([_sigmoid(xp) for xp in x])
        grad[mask] = -sig / n_pos
        grad[~mask] = sig.sum() / n_pos * _softmax(neg)
    return value, grad


def reference_batch(rng, kind, width, scale, n_rows=12):
    """Rows with every positive count from 1 to the full width."""
    logits = scale * rng.normal(size=(n_rows, width))
    counts = rng.integers(1, width + 1, size=n_rows)
    counts[:2] = (1, width)  # a single positive, and a row with no negative
    if kind == "infonce":
        counts[:] = 1
    targets = np.zeros((n_rows, width), dtype=bool)
    for row, count in zip(targets, counts):
        row[rng.permutation(width)[:count]] = True
    return logits, targets


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("width", [2, 33, 513, 600])
@pytest.mark.parametrize("scale", [1.0, 30.0, 600.0])
def test_batch_matches_reference_rows(kind, width, scale):
    rng = np.random.default_rng([width, int(scale), LOSS_KINDS.index(kind)])
    logits, targets = reference_batch(rng, kind, width, scale)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values, grads = loss_batch(kind, logits, targets)
    for i in range(logits.shape[0]):
        value, grad = reference_row(kind, logits[i], targets[i])
        # pytest keeps its 1e-12 absolute floor under rel: a reference value
        # near 0 is a difference of lse terms that carries about that much
        assert values[i] == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(grads[i] - grad)) <= 1e-12


@pytest.mark.parametrize("kind", MULTI_POS_KINDS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_discarded_lanes_at_700(kind, sign):
    # a positive at +-700 and the negatives near -+700: the lanes one side's
    # sum discards hold the row's extreme, and must neither overflow nor
    # move the result
    s = sign * np.array([[700.0, -699.0, -700.0, -698.5, -699.5]])
    mask = np.array([[True, False, False, False, True]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values, grads = loss_batch(kind, s, mask)
    value, grad = reference_row(kind, s[0], mask[0])
    assert values[0] == pytest.approx(value, rel=1e-12)
    assert np.max(np.abs(grads[0] - grad)) <= 1e-12


# ---------------------------------------------------------------------------
# triplet_pair


def _vec_with_dot(d, target):
    """Unit vector whose dot product with e1 equals `target`."""
    v = np.zeros(d)
    v[0] = target
    v[1] = np.sqrt(1.0 - target**2)
    return v


def test_triplet_identical_keys_is_zero():
    q = np.array([1.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 0.0])
    assert triplet_pair(q, k, k, tau=0.2) == 0.0


def test_triplet_perfect_positive_is_zero():
    q = np.array([1.0, 0.0, 0.0])
    k_neg = np.array([0.0, 1.0, 0.0])
    assert triplet_pair(q, q, k_neg, tau=0.07) == 0.0


@pytest.mark.parametrize("tau", [0.07, 0.2, 1.0, 5.0])
def test_triplet_tau_cancels(tau):
    q = np.array([1.0, 0.0, 0.0])
    k_pos = _vec_with_dot(3, 0.2)
    k_neg = _vec_with_dot(3, 0.6)
    assert triplet_pair(q, k_pos, k_neg, tau) == pytest.approx(0.8, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_triplet_squared_distance_identity(seed):
    rng = np.random.default_rng(seed)
    q, k_pos, k_neg = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 5)))
    got = triplet_pair(q, k_pos, k_neg, tau=0.3)
    want = max(
        0.0,
        float(np.sum((q - k_pos) ** 2) - np.sum((q - k_neg) ** 2)),
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_triplet_input_validation():
    q = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="non-unit input"):
        triplet_pair(q * 1.5, q, q, tau=0.2)
    with pytest.raises(ValueError, match="tau must be positive"):
        triplet_pair(q, q, q, tau=0.0)


@given(st.integers(0, 2**32 - 1))
def test_triplet_unicon_envelope(seed):
    # single positive + single negative: 2*tau*unicon is within 2*tau*log 2
    # of the hinge
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.05, 2.0))
    q, k_pos, k_neg = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 6)))
    s = np.array([[float(q @ k_pos), float(q @ k_neg)]]) / tau
    mask = np.array([[True, False]])
    u = loss_batch("unicon", s, mask)[0][0]
    t = triplet_pair(q, k_pos, k_neg, tau)
    assert abs(2.0 * tau * u - t) <= 2.0 * tau * np.log(2.0) + 1e-12
