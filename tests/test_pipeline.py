"""Dataset synthesis, label masking, augmentation, and the training loop."""

import dataclasses
import resource
from itertools import combinations

import numpy as np
import pytest
from conftest import params_equal

import conlab.pipeline
from conlab.config import (
    AugConfig,
    ConfigError,
    DatasetSpec,
    ModelConfig,
    ProbeConfig,
    RunConfig,
    TrainConfig,
    with_train,
)
from conlab.losses import LOSS_KINDS
from conlab.model import forward, leaves
from conlab.numerics import Rng
from conlab.pipeline import (
    DivergenceError,
    augment,
    cosine_lr,
    generate_dataset,
    init_state,
    mask_labels,
    pretrain,
    train_step,
)
from conlab.queues import UNLABELED


def class_counts(y, n_classes):
    return np.bincount(y, minlength=n_classes)


# ---------------------------------------------------------------------------
# dataset generation


def test_dataset_shapes_and_balance(small_dataset):
    spec = small_dataset.spec
    assert small_dataset.means.shape == (spec.n_classes, spec.input_dim)
    assert small_dataset.train_x.shape == (spec.n_train, spec.input_dim)
    assert small_dataset.test_x.shape == (spec.n_test, spec.input_dim)
    for y in (small_dataset.train_y, small_dataset.test_y):
        counts = class_counts(y, spec.n_classes)
        assert counts.max() - counts.min() <= 1


def test_dataset_balance_with_remainder():
    spec = DatasetSpec(n_classes=3, input_dim=4, n_train=10, n_test=11)
    ds = generate_dataset(spec)
    assert sorted(class_counts(ds.train_y, 3).tolist()) == [3, 3, 4]
    assert sorted(class_counts(ds.test_y, 3).tolist()) == [3, 4, 4]


def test_dataset_means_on_radius_sphere(small_dataset):
    norms = np.linalg.norm(small_dataset.means, axis=1)
    assert np.allclose(norms, small_dataset.spec.mean_radius, atol=1e-9)


def test_dataset_deterministic():
    spec = DatasetSpec(n_classes=4, input_dim=6, n_train=40, n_test=20, seed=5)
    a, b = generate_dataset(spec), generate_dataset(spec)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)
    c = generate_dataset(dataclasses.replace(spec, seed=6))
    assert not np.array_equal(a.train_x, c.train_x)


def test_dataset_invalid_spec_rejected():
    with pytest.raises(ValueError, match="n_classes"):
        generate_dataset(DatasetSpec(n_classes=1))


# ---------------------------------------------------------------------------
# label masking


def test_mask_endpoints(small_dataset):
    y = small_dataset.train_y
    assert np.array_equal(mask_labels(y, 1.0, Rng(0)), y)
    assert np.all(mask_labels(y, 0.0, Rng(0)) == UNLABELED)


def test_mask_is_class_stratified(small_dataset):
    spec = small_dataset.spec
    # 1e-4 rounds to no label at 80 rows per class, yet keeps one: a positive
    # label ratio always shows each class
    for alpha in (1e-4, 0.25, 0.5, 0.8):
        masked = mask_labels(small_dataset.train_y, alpha, Rng(3))
        for c in range(spec.n_classes):
            n_c = int(np.sum(small_dataset.train_y == c))
            labeled = int(np.sum(masked == c))
            assert labeled == max(1, int(np.floor(alpha * n_c + 0.5)))


def test_mask_never_relabels(small_dataset):
    masked = mask_labels(small_dataset.train_y, 0.6, Rng(4))
    visible = masked != UNLABELED
    assert np.array_equal(masked[visible], small_dataset.train_y[visible])


def test_mask_nested_across_alpha(small_dataset):
    # the same rng seed yields nested labeled sets as alpha grows
    grids = [
        mask_labels(small_dataset.train_y, a, Rng(7)) != UNLABELED
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    for smaller, larger in zip(grids, grids[1:]):
        assert np.all(larger[smaller])


def test_mask_leaves_inputs_untouched(small_dataset):
    y_before = small_dataset.train_y.copy()
    masked = mask_labels(small_dataset.train_y, 0.5, Rng(8))
    assert masked is not small_dataset.train_y
    assert np.array_equal(small_dataset.train_y, y_before)


def test_mask_alpha_out_of_range(small_dataset):
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            mask_labels(small_dataset.train_y, alpha, Rng(0))


def test_mask_deterministic(small_dataset):
    a = mask_labels(small_dataset.train_y, 0.4, Rng(11))
    b = mask_labels(small_dataset.train_y, 0.4, Rng(11))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_identity_config():
    x = Rng(0).stream("x").normal(size=(6, 5))
    out = augment(x, AugConfig(noise_std=0.0, dropout_p=0.0), Rng(1).stream("aug"))
    assert np.array_equal(out, x)


def test_augment_noise_scale():
    sigma, n, d = 0.7, 4000, 10
    x = np.zeros((n, d))
    out = augment(x, AugConfig(noise_std=sigma, dropout_p=0.0), Rng(2).stream("aug"))
    per_element = out**2
    se = sigma**2 * np.sqrt(2.0 / (n * d))
    assert abs(per_element.mean() - sigma**2) <= 3 * se


def test_augment_dropout_fraction_and_rescale():
    p, n, d = 0.3, 2000, 12
    x = np.ones((n, d))
    out = augment(x, AugConfig(noise_std=0.0, dropout_p=p), Rng(3).stream("aug"))
    zeros = out == 0.0
    se = np.sqrt(p * (1 - p) / (n * d))
    assert abs(zeros.mean() - p) <= 3 * se
    # survivors are rescaled so the expectation matches the input
    assert np.allclose(out[~zeros], 1.0 / (1.0 - p), atol=1e-12)


def test_augment_deterministic_per_stream():
    x = Rng(4).stream("x").normal(size=(8, 6))
    cfg = AugConfig(noise_std=0.2, dropout_p=0.25)
    a = augment(x, cfg, Rng(5).stream("aug", 3))
    b = augment(x, cfg, Rng(5).stream("aug", 3))
    c = augment(x, cfg, Rng(5).stream("aug", 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# schedule and state


def test_cosine_lr_schedule():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
    vals = [cosine_lr(0.1, e, 10) for e in range(10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert type(cosine_lr(np.float64(0.1), 0, 10)) is float


def test_init_state(small_cfg):
    state = init_state(small_cfg)
    assert state.step == 0
    assert params_equal(state.params_q, state.params_k)
    assert all(np.all(l == 0) for l in leaves(state.velocity))
    trees = (state.params_q, state.params_k, state.velocity)
    assert not any(np.shares_memory(a.flat, b.flat) for a, b in combinations(trees, 2))
    assert state.queue.capacity == small_cfg.train.queue_size
    assert np.all(state.queue.labels == UNLABELED)


# ---------------------------------------------------------------------------
# single training step


def test_train_step_updates_state(small_cfg, small_dataset):
    train_cfg = small_cfg.train
    state = init_state(small_cfg)
    x = small_dataset.train_x[: train_cfg.batch_size]
    labels = small_dataset.train_y[: train_cfg.batch_size]
    new_state, metrics = train_step(state, x, labels, small_cfg)
    assert new_state.step == 1
    assert not params_equal(new_state.params_q, state.params_q)
    # the batch labels landed in the queue at the previous cursor
    assert np.array_equal(new_state.queue.labels[: labels.size], labels)
    assert metrics.step == 0
    assert metrics.lr == 0.05
    assert np.isfinite(metrics.loss)
    assert metrics.mean_positives >= 1.0


@pytest.mark.parametrize("loss", ["unicon", "infonce"])
def test_train_step_builds_new_trees_and_plain_metrics(small_cfg, small_dataset, loss):
    cfg = with_train(small_cfg, loss=loss)
    state = init_state(cfg)
    x = small_dataset.train_x[: cfg.train.batch_size]
    labels = small_dataset.train_y[: cfg.train.batch_size]
    new_state, metrics = train_step(state, x, labels, cfg)
    old = (state.params_q, state.params_k, state.velocity)
    new = (new_state.params_q, new_state.params_k, new_state.velocity)
    for a, b in combinations(old + new, 2):
        assert not np.shares_memory(a.flat, b.flat)
    # metrics.csv writes repr() of each field: a numpy scalar would leak in
    for field in dataclasses.fields(metrics):
        assert type(getattr(metrics, field.name)) in (int, float), field.name


def test_train_step_key_encoder_trails_query(small_cfg, small_dataset):
    train_cfg = small_cfg.train
    state = init_state(small_cfg)
    x = small_dataset.train_x[: train_cfg.batch_size]
    labels = small_dataset.train_y[: train_cfg.batch_size]
    new_state, _ = train_step(state, x, labels, small_cfg)
    m = train_cfg.momentum_m
    for k_new, k_old, q_new in zip(
        leaves(new_state.params_k),
        leaves(state.params_k),
        leaves(new_state.params_q),
    ):
        assert np.allclose(k_new, m * k_old + (1 - m) * q_new, atol=1e-12)


def test_train_step_infonce_ignores_queue_labels(small_cfg, small_dataset, on_loss):
    cfg = with_train(small_cfg, loss="infonce")
    state = init_state(cfg)
    # seed the queue with labels that would match
    x = small_dataset.train_x[: cfg.train.batch_size]
    labels = small_dataset.train_y[: cfg.train.batch_size]
    state, _ = train_step(state, x, labels, cfg)
    seen = {}

    def check(logits, targets):
        seen["positives"] = targets.sum(axis=1)

    on_loss(check)
    _, metrics = train_step(state, x, labels, cfg)
    assert metrics.mean_positives == 1.0
    assert np.array_equal(seen["positives"], np.ones(x.shape[0]))


def test_train_step_logits_pair_each_query_with_its_key_then_the_queue(
    small_cfg, small_dataset, on_loss
):
    train_cfg = small_cfg.train
    state = init_state(small_cfg)
    x = small_dataset.train_x[: train_cfg.batch_size]
    rng = Rng(train_cfg.seed).stream("aug", 0)
    q, _ = forward(state.params_q, augment(x, train_cfg.aug, rng.stream("q")))
    k, _ = forward(state.params_k, augment(x, train_cfg.aug, rng.stream("k")))
    seen = []
    on_loss(lambda logits, targets: seen.append(logits.copy()))
    train_step(state, x, small_dataset.train_y[: x.shape[0]], small_cfg)
    want = np.hstack([np.sum(q * k, axis=1)[:, None], q @ state.queue.features.T])
    assert np.array_equal(seen[0], want / train_cfg.tau)


@pytest.mark.parametrize("batch", [128, 256])
def test_train_step_query_gradient_takes_the_whole_queue_product(batch, monkeypatch):
    # The queue's share of the query gradient is one product over the whole
    # batch. Row blocks of it, which these batches once took, can differ
    # from it in the last bit.
    cfg = RunConfig(
        dataset=DatasetSpec(n_train=2 * batch), train=TrainConfig(batch_size=batch)
    )
    dataset = generate_dataset(cfg.dataset)
    state = init_state(cfg)
    seen = {}
    real_loss, real_backward = conlab.pipeline.loss_batch, conlab.pipeline.backward

    def loss_batch(kind, logits, targets):
        values, seen["grad_logits"] = real_loss(kind, logits, targets)
        return values, seen["grad_logits"]

    def backward(tape, grad_q):
        seen["grad_q"] = grad_q.copy()
        return real_backward(tape, grad_q)

    monkeypatch.setattr(conlab.pipeline, "loss_batch", loss_batch)
    monkeypatch.setattr(conlab.pipeline, "backward", backward)
    x, labels = dataset.train_x[:batch], dataset.train_y[:batch]
    rng = Rng(cfg.train.seed).stream("aug", 0)
    train_step(state, x, labels, cfg)
    k, _ = forward(state.params_k, augment(x, cfg.train.aug, rng.stream("k")))
    g = seen["grad_logits"]
    want = (g[:, :1] * k + g[:, 1:] @ state.queue.features) / (cfg.train.tau * batch)
    assert np.array_equal(seen["grad_q"], want)


def test_train_step_loss_sees_queue_width(small_cfg, small_dataset, on_loss):
    train_cfg = small_cfg.train
    state = init_state(small_cfg)
    captured = []
    on_loss(lambda logits, targets: captured.append((logits.shape, targets.shape)))
    x = small_dataset.train_x[: train_cfg.batch_size]
    labels = small_dataset.train_y[: train_cfg.batch_size]
    train_step(state, x, labels, small_cfg)
    assert captured == [
        ((train_cfg.batch_size, 1 + train_cfg.queue_size),
         (train_cfg.batch_size, 1 + train_cfg.queue_size))
    ]


# ---------------------------------------------------------------------------
# full runs


def run_with_rows(dataset, cfg, **kwargs):
    """pretrain, plus the metrics rows its step callback received."""
    rows = []
    state = pretrain(dataset, cfg, step_callback=rows.append, **kwargs)
    return state, rows


def test_pretrain_deterministic(small_cfg, small_dataset):
    state_a, hist_a = run_with_rows(small_dataset, small_cfg)
    state_b, hist_b = run_with_rows(small_dataset, small_cfg)
    assert params_equal(state_a.params_q, state_b.params_q)
    assert params_equal(state_a.params_k, state_b.params_k)
    assert np.array_equal(state_a.queue.features, state_b.queue.features)
    assert hist_a == hist_b


def test_pretrain_step_count_and_epochs(small_cfg, small_dataset):
    state, history = run_with_rows(small_dataset, small_cfg)
    assert state.step == small_cfg.total_steps == 30
    assert len(history) == state.step
    assert [m.step for m in history] == list(range(state.step))
    assert history[-1].epoch == small_cfg.train.epochs - 1


def test_pretrain_epochs_zero_returns_init(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=0)
    state, history = run_with_rows(small_dataset, cfg)
    init = init_state(cfg)
    assert history == []
    assert params_equal(state.params_q, init.params_q)


def test_pretrain_resume_matches_uninterrupted(small_cfg, small_dataset):
    full_state, full_hist = run_with_rows(small_dataset, small_cfg)
    mid_state, first_hist = run_with_rows(small_dataset, small_cfg, max_steps=7)
    assert mid_state.step == 7
    end_state, rest_hist = run_with_rows(small_dataset, small_cfg, state=mid_state)
    assert params_equal(end_state.params_q, full_state.params_q)
    assert params_equal(end_state.velocity, full_state.velocity)
    assert np.array_equal(end_state.queue.features, full_state.queue.features)
    assert np.array_equal(end_state.queue.labels, full_state.queue.labels)
    assert first_hist + rest_hist == full_hist


def test_train_step_past_epoch_0_takes_the_step_pretrain_takes(small_cfg, small_dataset):
    # three steps into epoch 1: the lr has left the base rate, and the step
    # must derive the epoch, lr and augmentation stream pretrain derives
    cfg = small_cfg
    spe, bs = cfg.steps_per_epoch, cfg.train.batch_size
    state = pretrain(small_dataset, cfg, max_steps=spe + 3)
    want = pretrain(small_dataset, cfg, max_steps=spe + 4)
    perm = Rng(cfg.train.seed).stream("shuffle", 1).permutation(cfg.dataset.n_train)
    idx = perm[3 * bs : 4 * bs]
    labels = mask_labels(
        small_dataset.train_y, cfg.train.label_ratio, Rng(cfg.dataset.seed)
    )
    new_state, metrics = train_step(state, small_dataset.train_x[idx], labels[idx], cfg)
    assert metrics.step == spe + 3
    assert metrics.epoch == 1
    assert metrics.lr == cosine_lr(cfg.train.lr, 1, cfg.train.epochs)
    for name in ("params_q", "params_k", "velocity"):
        assert params_equal(getattr(new_state, name), getattr(want, name)), name
    assert np.array_equal(new_state.queue.features, want.queue.features)
    assert np.array_equal(new_state.queue.labels, want.queue.labels)


def test_pretrain_alpha_zero_unicon_equals_infonce(small_cfg, small_dataset, on_loss):
    cfg = with_train(small_cfg, label_ratio=0.0, epochs=2)
    from conlab.losses import loss_batch

    diffs = []

    def check(logits, targets):
        u, _ = loss_batch("unicon", logits, targets)
        i, _ = loss_batch("infonce", logits, targets)
        diffs.append(float(np.max(np.abs(u - i))))

    on_loss(check)
    pretrain(small_dataset, cfg)
    assert diffs and max(diffs) <= 1e-10


@pytest.mark.parametrize(
    "loss, alpha", [(kind, 0.0) for kind in LOSS_KINDS] + [("infonce", 1.0)]
)
def test_single_positive_run_trains_bit_for_bit_as_infonce(
    small_cfg, small_dataset, loss, alpha
):
    ref, ref_rows = run_with_rows(
        small_dataset, with_train(small_cfg, loss="infonce", label_ratio=0.0)
    )
    state, rows = run_with_rows(
        small_dataset, with_train(small_cfg, loss=loss, label_ratio=alpha)
    )
    for name in ("params_q", "params_k", "velocity"):
        assert params_equal(getattr(state, name), getattr(ref, name)), name
    assert np.array_equal(state.queue.features, ref.queue.features)
    assert state.queue.cursor == ref.queue.cursor
    if alpha == 0.0:
        assert np.array_equal(state.queue.labels, ref.queue.labels)
    else:  # the queue stores the visible labels, which infonce never reads
        assert np.count_nonzero(state.queue.labels != UNLABELED) > 0
    assert rows == ref_rows


@pytest.mark.parametrize(
    "alpha, kernel", [(1.0, "unicon"), (0.0, "infonce"), (1e-4, "unicon")]
)
def test_pretrain_runs_the_kernel_its_positives_need(
    small_cfg, small_dataset, monkeypatch, alpha, kernel
):
    # 1e-4 of 80 rows per class rounds to no label, yet one row per class
    # shows its label; with the queue holding a whole epoch, that row finds
    # its own earlier key as a label positive in the second epoch
    cfg = with_train(
        small_cfg, loss="unicon", label_ratio=alpha, epochs=2, queue_size=240
    )
    kinds, most_positives, built = set(), [0], []
    real_loss, real_build = conlab.pipeline.loss_batch, conlab.pipeline.build_target

    def loss_spy(kind, logits, targets):
        kinds.add(kind)
        most_positives[0] = max(most_positives[0], int(targets.sum(axis=1).max()))
        return real_loss(kind, logits, targets)

    def build_spy(labels, queue):
        built.append(1)
        return real_build(labels, queue)

    monkeypatch.setattr(conlab.pipeline, "loss_batch", loss_spy)
    monkeypatch.setattr(conlab.pipeline, "build_target", build_spy)
    pretrain(small_dataset, cfg)
    assert kinds == {kernel}
    assert len(built) == (cfg.total_steps if alpha else 0)
    assert (most_positives[0] > 1) == (alpha > 0)


def test_pretrain_refuses_a_dataset_its_config_does_not_name(small_cfg, small_dataset):
    # the schedule and the label view come from cfg.dataset, so a dataset of
    # another spec would train a run that its config does not describe
    spec = dataclasses.replace(small_cfg.dataset, n_train=120, mean_radius=2.0)
    cfg = dataclasses.replace(small_cfg, dataset=spec)
    rows = []
    with pytest.raises(ConfigError) as info:
        pretrain(small_dataset, cfg, step_callback=rows.append)
    assert info.value.problems == [
        "dataset.mean_radius: config has 2.0, file has 3.0",
        "dataset.n_train: config has 120, file has 240",
    ]
    assert rows == []


def test_pretrain_refuses_arrays_their_spec_does_not_give(small_cfg, misshapen_dataset):
    # the schedule comes from the spec: cut rows would index past the end of
    # the training set, and doubled rows would train on the first half alone
    rows = []
    with pytest.raises(ConfigError) as info:
        pretrain(misshapen_dataset, small_cfg, step_callback=rows.append)
    assert [p.split(" has ")[0] for p in info.value.problems] == [
        "dataset array 'train_x'",
        "dataset array 'train_y'",
    ]
    assert rows == []


def test_pretrain_divergence_detected(small_cfg, small_dataset):
    cfg = with_train(small_cfg, lr=1e12, epochs=2)
    with pytest.raises(DivergenceError, match="divergence at step"):
        pretrain(small_dataset, cfg)


def test_pretrain_update_overflowing_the_weights_diverges_at_its_step(
    small_cfg, small_dataset
):
    # lr · weight_decay · w overflows in the first update: that step is the
    # divergence, with no overflow warning and no row from infinite weights
    cfg = with_train(small_cfg, lr=1e308, weight_decay=100.0)
    rows = []
    with pytest.raises(DivergenceError, match="divergence at step 0$"):
        pretrain(small_dataset, cfg, step_callback=rows.append)
    assert rows == []


def test_pretrain_loss_descends():
    cfg = RunConfig(
        dataset=DatasetSpec(
            n_classes=5,
            input_dim=20,
            n_train=1280,
            n_test=100,
            cluster_spread=0.5,
            mean_radius=5.0,
            seed=0,
        ),
        model=ModelConfig(),
        train=TrainConfig(queue_size=64, epochs=10, seed=0),
        probe=ProbeConfig(),
    )
    _, history = run_with_rows(generate_dataset(cfg.dataset), cfg)
    losses = [m.loss for m in history]
    assert len(losses) == 200
    first, last = np.mean(losses[:20]), np.mean(losses[-20:])
    assert last < first - 0.5


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread CPU times"
)
@pytest.mark.parametrize("batch", [64, 128, 256])
def test_pretrain_keeps_blas_on_the_calling_thread(thread_cpu, batch):
    # An idle OpenBLAS worker spins while it waits, and steps come about 1 ms
    # apart, so one woken by a step's product would burn a second core for
    # the whole run. Default model and train shapes, 300 steps; at batch 256
    # the model's backward products are large enough to wake a worker too.
    cfg = RunConfig(
        dataset=DatasetSpec(n_train=10 * batch),
        train=TrainConfig(batch_size=batch),
    )
    dataset = generate_dataset(cfg.dataset)
    main, others = thread_cpu(lambda: pretrain(dataset, cfg))
    assert others < 0.1 * main, f"other threads {others:.2f} s, main {main:.2f} s"
