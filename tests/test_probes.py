"""Linear and kNN evaluation on frozen features."""

import dataclasses
import resource
import tracemalloc

import numpy as np
import pytest

from conlab.config import (
    ELEMENT_BUDGET,
    ConfigError,
    ProbeConfig,
    RunConfig,
    with_train,
)
from conlab.model import init_params, trunk_features
from conlab.numerics import Rng, row_blocks
from conlab.pipeline import generate_dataset
from conlab.probes import (
    _KNN_BLOCK_ELEMENTS,
    _fit_softmax,
    _knn_block_rows,
    _nearest,
    _similarity_blocks,
    _standardized,
    _unit_rows_safe,
    extract_features,
    knn_probe,
    linear_probe,
    run_probes,
)

PROBE_CFG = ProbeConfig(epochs=15, lr=0.5, batch_size=32, knn_k=5)


def blobs(seed, n_per_class=60, classes=4, d=6, spread=0.25):
    """Well-separated Gaussian blobs around one-hot corners."""
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(classes), n_per_class)
    x = np.eye(classes, d)[y] * 3.0 + spread * rng.normal(size=(y.size, d))
    order = rng.permutation(y.size)
    return x[order], y[order]


# ---------------------------------------------------------------------------
# feature extraction


def test_extract_features_is_trunk_output():
    params = init_params((7, 10, 6, 6, 5), Rng(0).stream("init"))
    x = Rng(1).stream("x").normal(size=(12, 7))
    assert np.array_equal(extract_features(params, x), trunk_features(params, x))


def test_extract_features_equals_the_unsplit_product():
    # on the default encoder and a default-size split, the probes' features
    # are each trunk layer's whole product with its bias and ReLU
    cfg = RunConfig()
    params = init_params(cfg.layer_dims, Rng(0).stream("init"))
    x = Rng(1).stream("x").normal(size=(5000, 20))
    a = x
    for w, b in params.trunk:
        a = np.maximum(a @ w + b, 0.0)
    assert np.array_equal(extract_features(params, x), a)


def test_extract_features_shape_mismatch():
    params = init_params((7, 10, 6, 6, 5), Rng(0).stream("init"))
    with pytest.raises(ValueError, match="shape mismatch"):
        extract_features(params, np.zeros((3, 9)))


# ---------------------------------------------------------------------------
# linear probe


def test_linear_probe_perfect_on_one_hot():
    y_tr = np.arange(200) % 5
    y_te = np.arange(50) % 5
    f_tr = np.eye(5)[y_tr]
    f_te = np.eye(5)[y_te]
    acc = linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG)
    assert acc == 1.0


def test_linear_probe_chance_on_noise():
    accs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        f_tr = rng.normal(size=(400, 8))
        f_te = rng.normal(size=(200, 8))
        y_tr = np.arange(400) % 5
        y_te = np.arange(200) % 5
        accs.append(linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG, seed=seed))
    assert abs(np.mean(accs) - 0.2) <= 0.05


def test_linear_probe_separable_blobs():
    f_tr, y_tr = blobs(0)
    f_te, y_te = blobs(1)
    acc = linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG)
    assert acc >= 0.99


def test_linear_probe_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    f_tr = rng.normal(size=(120, 6))
    y_tr = np.arange(120) % 3
    f_te = rng.normal(size=(60, 6))
    y_te = np.arange(60) % 3
    a = linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG, seed=5)
    b = linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG, seed=5)
    assert a == b


def test_linear_probe_does_not_mutate_inputs():
    f_tr, y_tr = blobs(4)
    f_te, y_te = blobs(5)
    before = f_tr.copy()
    linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG)
    assert np.array_equal(f_tr, before)


def fit_oracle(train_f, train_y, test_f, cfg, seed):
    """The linear probe as first written: a fancy-indexed batch per step and
    the true class's −1 subtracted in place. Returns both standardized
    splits, the weights and the bias."""
    mu = train_f.mean(axis=0)
    sd = train_f.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xtr = (train_f - mu) / sd
    xte = (test_f - mu) / sd
    n, d = xtr.shape
    w = np.zeros((d, int(train_y.max()) + 1))
    b = np.zeros(w.shape[1])
    root = Rng(seed).stream("probe")
    for epoch in range(cfg.epochs):
        order = root.stream("shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = xtr[idx]
            logits = xb @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(idx.size), train_y[idx]] -= 1.0
            p /= idx.size
            w -= cfg.lr * (xb.T @ p)
            b -= cfg.lr * p.sum(axis=0)
    return xtr, xte, w, b


@pytest.mark.parametrize(
    "n, d, classes, cfg",
    [
        (5000, 32, 5, ProbeConfig()),
        (5000, 32, 50, ProbeConfig()),
        (240, 12, 3, ProbeConfig(epochs=8, lr=0.5, batch_size=64, knn_k=5)),
        (203, 7, 4, PROBE_CFG),
    ],
)
def test_linear_probe_weights_equal_the_first_loop(n, d, classes, cfg):
    # the default probe, the test configs' probe, and partial last batches
    rng = np.random.default_rng(n + d + classes)
    y = rng.permutation(np.arange(n) % classes)
    centers = rng.normal(size=(classes, d))
    f_tr = np.abs(centers[y] + rng.normal(size=(n, d)))
    f_te = np.abs(rng.normal(size=(n // 5, d)))
    f_tr[:, 0] = 1.5  # a column with no spread
    xtr, xte, w, b = fit_oracle(f_tr, y, f_te, cfg, seed=3)
    got_tr, got_te = _standardized(f_tr, f_te)
    assert np.array_equal(got_tr, xtr) and np.array_equal(got_te, xte)
    got_w, got_b = _fit_softmax(got_tr, y, cfg, seed=3)
    assert np.array_equal(got_w, w) and np.array_equal(got_b, b)


def test_linear_probe_single_class_rejected():
    f = np.random.default_rng(0).normal(size=(20, 4))
    y = np.zeros(20, dtype=np.int64)
    with pytest.raises(ValueError, match="single-class input"):
        linear_probe(f, y, f, y, PROBE_CFG)


def test_linear_probe_rejects_negative_labels():
    f = np.random.default_rng(0).normal(size=(20, 4))
    y = np.arange(20) % 3 - 1
    with pytest.raises(ValueError):
        linear_probe(f, y, f, y, PROBE_CFG)


def test_linear_probe_constant_feature_column_is_safe():
    # zero-variance columns hit the standardization floor, not a div-by-zero
    f_tr, y_tr = blobs(6)
    f_te, y_te = blobs(7)
    f_tr[:, -1] = 2.5
    f_te[:, -1] = 2.5
    acc = linear_probe(f_tr, y_tr, f_te, y_te, PROBE_CFG)
    assert np.isfinite(acc) and acc >= 0.99


# ---------------------------------------------------------------------------
# kNN probe


def test_knn_self_match_k1():
    f, y = blobs(8)
    assert knn_probe(f, y, f, y, k=1) == 1.0


def test_knn_full_vote_ties_to_smallest_class():
    # k = n_train on balanced labels: every class votes equally, and the tie
    # rule picks class 0, so accuracy is exactly 1/C on a balanced test set
    f_tr, y_tr = blobs(9, n_per_class=30, classes=3)
    f_te, y_te = blobs(10, n_per_class=20, classes=3)
    acc = knn_probe(f_tr, y_tr, f_te, y_te, k=y_tr.size)
    assert acc == pytest.approx(1.0 / 3.0)


def test_knn_separable_blobs():
    f_tr, y_tr = blobs(11)
    f_te, y_te = blobs(12)
    assert knn_probe(f_tr, y_tr, f_te, y_te, k=5) >= 0.99


def test_knn_cosine_scale_invariance():
    f_tr, y_tr = blobs(13)
    f_te, y_te = blobs(14)
    base = knn_probe(f_tr, y_tr, f_te, y_te, k=7)
    scaled = knn_probe(f_tr * 37.0, y_tr, f_te * 0.01, y_te, k=7)
    assert base == scaled


def test_knn_train_order_invariance():
    f_tr, y_tr = blobs(15)
    f_te, y_te = blobs(16)
    perm = np.random.default_rng(0).permutation(y_tr.size)
    assert knn_probe(f_tr, y_tr, f_te, y_te, k=5) == knn_probe(
        f_tr[perm], y_tr[perm], f_te, y_te, k=5
    )


def test_knn_k_validation():
    f, y = blobs(17, n_per_class=5, classes=2)
    for bad in (0, y.size + 1, -3):
        with pytest.raises(ValueError, match="k invalid"):
            knn_probe(f, y, f, y, k=bad)


def test_knn_temperature_weights_votes():
    # two class-0 neighbors at sim ~0.79 vs one class-1 neighbor at sim ~1:
    # plain majority picks 0; sharp similarity weighting picks 1
    f_tr = np.array([[1.0, 0.0], [0.8, 0.6], [0.78, 0.62]])
    y_tr = np.array([1, 0, 0])
    f_te = np.array([[1.0, 0.0]])
    y_te = np.array([1])
    assert knn_probe(f_tr, y_tr, f_te, y_te, k=3) == 0.0
    assert knn_probe(f_tr, y_tr, f_te, y_te, k=3, temperature=0.02) == 1.0


def test_knn_sharp_temperature_does_not_overflow():
    # exp(sim / 1e-3) overflows for any similarity above 0.71; votes
    # relative to the top neighbor give the same winner without overflow
    f_tr = np.array([[1.0, 0.0], [0.99, 0.141], [0.98, 0.199]])
    y_tr = np.array([1, 0, 0])
    f_te = np.array([[1.0, 0.0], [0.99, 0.141]])
    y_te = np.array([1, 0])
    with np.errstate(over="raise"):
        assert knn_probe(f_tr, y_tr, f_te, y_te, k=3, temperature=1e-3) == 1.0
    assert knn_probe(f_tr, y_tr, f_te, y_te, k=3) == 0.5


# ---------------------------------------------------------------------------
# kNN probe against the full-matrix reference


def knn_reference(train_f, train_y, test_f, test_y, k, temperature=None):
    """The probe without row blocks or selection: a stable argsort of the
    whole test x train similarity matrix, then the same vote."""
    sims = _unit_rows_safe(test_f) @ _unit_rows_safe(train_f).T
    neighbors = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    if temperature is None:
        weights = np.ones(neighbors.shape)
    else:
        top = np.take_along_axis(sims, neighbors, axis=1)
        weights = np.exp((top - top[:, :1]) / temperature)
    votes = np.zeros((test_y.size, int(train_y.max()) + 1))
    rows = np.repeat(np.arange(test_y.size), k)
    np.add.at(votes, (rows, train_y[neighbors].ravel()), weights.ravel())
    return float(np.mean(votes.argmax(axis=1) == test_y))


def knn_case(seed, n_train, n_test, d):
    """Features full of exact similarity ties: duplicated train rows, all-zero
    train and test rows (similarity exactly 0 to everything), test rows that
    copy a duplicated train row, and on even seeds integer-rounded values."""
    rng = np.random.default_rng(seed)
    f_tr = rng.normal(size=(n_train, d))
    f_te = rng.normal(size=(n_test, d))
    if seed % 2 == 0:
        f_tr, f_te = np.round(f_tr), np.round(f_te)
    f_tr[rng.integers(0, n_train, n_train // 4)] = f_tr[0]
    f_tr[rng.integers(0, n_train, n_train // 10)] = 0.0
    f_te[rng.integers(0, n_test, n_test // 5)] = f_tr[0]
    f_te[rng.integers(0, n_test, max(1, n_test // 10))] = 0.0
    y_tr = rng.integers(0, 4, n_train)
    y_te = rng.integers(0, 4, n_test)
    return f_tr, y_tr, f_te, y_te


# (seed, n_train, n_test, d, k): k = 1, a middle k and k = n_train; n_test
# of 1, within one block, a block plus one row (500 train rows give 256-row
# blocks) and several blocks (2000 give 64)
KNN_CASES = [
    (0, 240, 90, 6, 1),
    (1, 240, 90, 6, 15),
    (2, 240, 90, 6, 240),
    (3, 203, 1, 5, 7),
    (4, 203, 300, 5, 7),
    (5, 64, 129, 3, 64),
    (6, 500, 257, 8, 20),
    (7, 37, 256, 4, 1),
    (8, 2000, 150, 8, 15),
]


@pytest.mark.parametrize("temperature", [None, 0.5, 1e-3])
@pytest.mark.parametrize("seed, n_train, n_test, d, k", KNN_CASES)
def test_knn_matches_full_sort_reference(seed, n_train, n_test, d, k, temperature):
    f_tr, y_tr, f_te, y_te = knn_case(seed, n_train, n_test, d)
    assert knn_probe(f_tr, y_tr, f_te, y_te, k, temperature) == knn_reference(
        f_tr, y_tr, f_te, y_te, k, temperature
    )


@pytest.mark.parametrize("seed, n_train, n_test, d, k", KNN_CASES)
def test_knn_neighbors_in_stable_argsort_order(seed, n_train, n_test, d, k):
    # the neighbour order, not only the set, must match: np.add.at sums each
    # row's weighted votes in that order
    f_tr, _, f_te, _ = knn_case(seed, n_train, n_test, d)
    sims = _unit_rows_safe(f_te) @ _unit_rows_safe(f_tr).T
    expected = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    assert np.array_equal(_nearest(sims, k), expected)


def test_knn_tie_at_the_cut_keeps_smaller_indices():
    # five train rows at similarity 1, k = 3: selection alone may keep any
    # three of them; the stable order keeps indices 1, 2, 4
    sims = np.array([[0.5, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, -1.0]])
    assert _nearest(sims, 3).tolist() == [[1, 2, 4]]
    assert _nearest(sims, 6).tolist() == [[1, 2, 4, 5, 6, 0]]


def test_row_blocks_cover_rows_without_a_lone_last_row():
    assert row_blocks(0, 24) == []
    assert row_blocks(1, 24) == [(0, 1)]
    assert row_blocks(24, 24) == [(0, 24)]
    assert row_blocks(25, 24) == [(0, 23), (23, 25)]
    assert row_blocks(2 * 24 + 5, 24) == [(0, 24), (24, 48), (48, 53)]
    assert row_blocks(16, 3) == [(0, 3), (3, 6), (6, 9), (9, 12), (12, 14), (14, 16)]
    for n in range(60):
        for size in (1, 2, 3, 8, 24):
            blocks = row_blocks(n, size)
            assert [lo for lo, _ in blocks] + [n] == [0] + [hi for _, hi in blocks]
            assert all(1 <= hi - lo <= size for lo, hi in blocks)
            if n > 1 and size > 1:  # at size 2 the lone row moves to the front
                assert blocks[-1][1] - blocks[-1][0] > 1


def test_knn_block_rows_stay_within_the_element_budget():
    # 128 rows against 2**20 train rows was 2 x ELEMENT_BUDGET
    assert (_knn_block_rows(5000), _knn_block_rows(240)) == (24, 544)
    for n_train in range(48, 2**20 + 1):
        rows = _knn_block_rows(n_train)
        assert rows >= 8 and rows % 8 == 0
        assert rows * n_train <= max(_KNN_BLOCK_ELEMENTS, 8 * n_train) <= ELEMENT_BUDGET


@pytest.mark.parametrize(
    "n_test, n_train, width",
    [
        (1000, 5000, 32),
        (90, 240, 12),
        (60, 192, 12),
        (24, 48, 12),
        (1, 240, 12),
        (129, 240, 12),
        (25, 5000, 32),
        (545, 240, 12),
        (200, 5000, 64),
    ],
)
def test_knn_block_similarities_equal_full_product(n_test, n_train, width):
    # The probe's output equals the full-matrix version only if BLAS rounds a
    # row of each block as it rounds that row of the full product. Checked
    # at the shapes conlab probes (the default dataset and the test configs),
    # with a single test row, which goes to gemv, one row past a block, which
    # would leave a lone row (25 at 5000 train rows, 545 at 240), and a
    # 64-wide trunk over 5000 train rows, where every column used to differ.
    rng = np.random.default_rng(n_test)
    test_u = _unit_rows_safe(rng.normal(size=(n_test, width)))
    train_u = _unit_rows_safe(rng.normal(size=(n_train, width)))
    full = test_u @ train_u.T
    stops = [0]
    for lo, hi, sims in _similarity_blocks(test_u, train_u):
        assert lo == stops[-1] and np.array_equal(sims, full[lo:hi])
        stops.append(hi)
    assert stops[-1] == n_test


def test_knn_memory_stays_within_blocks():
    # the full 1000 x 5000 similarity matrix alone is 40 MB, its argsort 40 MB,
    # and 128-row blocks took 12 MB
    rng = np.random.default_rng(0)
    f_tr = rng.normal(size=(5000, 32))
    f_te = rng.normal(size=(1000, 32))
    y_tr = np.arange(5000) % 5
    y_te = np.arange(1000) % 5
    tracemalloc.start()
    try:
        knn_probe(f_tr, y_tr, f_te, y_te, k=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unit rows of both splits 1.5 MB, a 24-row block 1 MB
    assert peak < 5e6


# ---------------------------------------------------------------------------
# end-to-end probes


def test_run_probes_on_untrained_encoder(small_cfg, small_dataset):
    params = init_params(small_cfg.layer_dims, Rng(0).stream("init"))
    res = run_probes(params, small_dataset, small_cfg)
    assert 0.0 <= res.linear_top1 <= 1.0
    assert 0.0 <= res.knn_top1 <= 1.0
    # random projections of well-separated blobs are still far above chance
    assert res.linear_top1 > 0.5


def test_run_probes_deterministic(small_cfg, small_dataset):
    params = init_params(small_cfg.layer_dims, Rng(1).stream("init"))
    a = run_probes(params, small_dataset, with_train(small_cfg, seed=2))
    b = run_probes(params, small_dataset, with_train(small_cfg, seed=2))
    assert a == b


def test_run_probes_seeds_the_linear_probe_with_the_run_seed(small_cfg, small_dataset):
    # the linear probe's shuffle follows the run seed; the kNN vote has none
    params = init_params(small_cfg.layer_dims, Rng(0).stream("init"))
    scores = {
        seed: run_probes(params, small_dataset, with_train(small_cfg, seed=seed))
        for seed in (2, 3)
    }
    assert (scores[2].linear_top1, scores[2].knn_top1) == (87 / 90, 87 / 90)
    assert (scores[3].linear_top1, scores[3].knn_top1) == (86 / 90, 87 / 90)


def test_run_probes_refuses_a_dataset_its_config_does_not_name(
    small_cfg, small_dataset
):
    spec = dataclasses.replace(small_cfg.dataset, n_train=120, mean_radius=2.0)
    cfg = dataclasses.replace(small_cfg, dataset=spec)
    params = init_params(cfg.layer_dims, Rng(0).stream("init"))
    with pytest.raises(ConfigError) as info:
        run_probes(params, small_dataset, cfg)
    assert info.value.problems == [
        "dataset.mean_radius: config has 2.0, file has 3.0",
        "dataset.n_train: config has 120, file has 240",
    ]


def test_run_probes_refuses_arrays_their_spec_does_not_give(
    small_cfg, misshapen_dataset
):
    params = init_params(small_cfg.layer_dims, Rng(0).stream("init"))
    rows = misshapen_dataset.train_y.size
    with pytest.raises(ConfigError) as info:
        run_probes(params, misshapen_dataset, small_cfg)
    assert info.value.problems == [
        f"dataset array 'train_x' has shape ({rows}, 8) and dtype float64, "
        "expected (240, 8) and float64",
        f"dataset array 'train_y' has shape ({rows},) and dtype int64, "
        "expected (240,) and int64",
    ]


@pytest.fixture(scope="module")
def default_probe_inputs():
    """An untrained default encoder and the default dataset: the shapes
    every default run probes."""
    cfg = RunConfig()
    params = init_params(cfg.layer_dims, Rng(0).stream("init"))
    return params, generate_dataset(cfg.dataset), cfg


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread CPU times"
)
def test_run_probes_keeps_blas_on_the_calling_thread(default_probe_inputs, thread_cpu):
    # Whole-split feature products and kNN similarity blocks are large enough
    # to wake an OpenBLAS worker, which would then spin through the linear
    # probe.
    params, dataset, cfg = default_probe_inputs
    main, others = thread_cpu(lambda: run_probes(params, dataset, cfg))
    assert others < 0.1 * main, f"other threads {others:.2f} s, main {main:.2f} s"


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread CPU times"
)
def test_knn_probe_on_many_train_rows_keeps_blas_on_the_calling_thread(thread_cpu):
    # At 2**15 train rows of width 32 a similarity block holds 8 test rows,
    # and a single test row against all train rows is a gemv large enough
    # to wake a worker.
    rng = np.random.default_rng(0)
    f_tr = rng.normal(size=(2**15, 32))
    f_te = rng.normal(size=(256, 32))
    y_tr = np.arange(2**15) % 5
    y_te = np.arange(256) % 5
    main, others = thread_cpu(lambda: knn_probe(f_tr, y_tr, f_te, y_te, k=15))
    assert others < 0.1 * main, f"other threads {others:.2f} s, main {main:.2f} s"


def test_run_probes_memory_at_default_shapes(default_probe_inputs):
    # two splits of features, their standardized and unit-row copies and one
    # similarity block; full-split products and 128-row blocks took 13 MB
    params, dataset, cfg = default_probe_inputs
    tracemalloc.start()
    try:
        run_probes(params, dataset, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
