"""Data synthesis and the momentum-encoder training loop.

The dataset is a Gaussian mixture: class means sit on a sphere of radius
``mean_radius`` and samples scatter around them with ``cluster_spread``.
Training follows the two-encoder scheme: a query encoder updated by SGD and
a key encoder tracking it by exponential moving average, with keys and their
(possibly unlabeled) labels pushed into a FIFO queue after every step.

All randomness is drawn from labeled substreams of a single root seed, keyed
by purpose and step/epoch index, so an interrupted run can be resumed
bit-exactly from a checkpoint that stores nothing but the seed and the step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import AugConfig, ConfigError, DatasetSpec, RunConfig
from .losses import loss_batch
from .model import (
    EncoderParams,
    backward,
    forward,
    init_params,
    leaves,
    map_leaves,
    momentum_update,
    zeros_like_params,
)
from .numerics import DegenerateVectorError, Rng
from .queues import UNLABELED, PairQueue, build_target, init_queue, push_batch


class DivergenceError(RuntimeError):
    """Raised when training blows up: an embedding that cannot be
    normalized, a non-finite loss or gradient norm, or updated query
    weights that are not finite."""


@dataclass(frozen=True)
class Dataset:
    """A generated mixture dataset: inputs and ground-truth labels only.

    The training-time label view, where hidden labels read −1, is not stored:
    ``pretrain`` derives it from ``train_y`` and the config's label ratio.
    """

    spec: DatasetSpec
    means: np.ndarray  # (C, d) class centers
    train_x: np.ndarray  # (n_train, d)
    train_y: np.ndarray  # (n_train,) int64 in [0, C)
    test_x: np.ndarray  # (n_test, d)
    test_y: np.ndarray  # (n_test,) int64


def _balanced_split(means, spread, n, rng):
    """Sample n points with per-class counts equal within ±1, shuffled."""
    c, d = means.shape
    y = (np.arange(n) % c).astype(np.int64)
    x = means[y] + spread * rng.normal(size=(n, d))
    order = rng.permutation(n)
    return x[order], y[order]


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministic mixture-of-Gaussians classification data."""
    root = Rng(spec.seed)
    means = spec.mean_radius * root.stream("means").unit_rows(
        spec.n_classes, spec.input_dim
    )
    train_x, train_y = _balanced_split(
        means, spec.cluster_spread, spec.n_train, root.stream("train")
    )
    test_x, test_y = _balanced_split(
        means, spec.cluster_spread, spec.n_test, root.stream("test")
    )
    return Dataset(
        spec=spec,
        means=means,
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
    )


def mask_labels(labels: np.ndarray, alpha: float, rng: Rng) -> np.ndarray:
    """Hide a (1 − alpha) fraction of each class behind the unlabeled marker.

    Returns a new label array; ``labels`` is untouched. The per-class keep
    order comes from a permutation stream that does not depend on alpha, so
    the labeled set at a smaller alpha is a subset of the labeled set at any
    larger alpha (nested subsets). Per class, round(alpha · n_c) labels
    survive, and at least one when alpha > 0: only alpha = 0 is unlabeled.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    out = np.full(labels.shape, UNLABELED, dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        order = rng.stream("mask", int(c)).permutation(idx.size)
        keep = max(1 if alpha > 0 else 0, int(np.floor(alpha * idx.size + 0.5)))
        out[idx[order[:keep]]] = c
    return out


def augment(x: np.ndarray, cfg: AugConfig, rng: Rng) -> np.ndarray:
    """Stochastic view: additive Gaussian noise, then inverted dropout.

    Each coordinate is zeroed independently with probability ``dropout_p``
    and survivors are rescaled by 1/(1 − dropout_p) to keep the expectation.
    """
    x = np.asarray(x, dtype=np.float64)
    noisy = x + cfg.noise_std * rng.normal(size=x.shape)
    if cfg.dropout_p == 0.0:
        return noisy
    keep = rng.random(size=x.shape) >= cfg.dropout_p
    return noisy * keep / (1.0 - cfg.dropout_p)


@dataclass(frozen=True)
class TrainState:
    params_q: EncoderParams
    params_k: EncoderParams
    velocity: EncoderParams
    queue: PairQueue
    step: int


@dataclass(frozen=True)
class StepMetrics:
    step: int
    epoch: int
    loss: float
    mean_positives: float
    grad_norm: float
    lr: float


def init_state(cfg: RunConfig) -> TrainState:
    root = Rng(cfg.train.seed)
    params_q = init_params(cfg.layer_dims, root.stream("init"))
    params_k = map_leaves(np.copy, params_q)
    queue = init_queue(
        cfg.train.queue_size, cfg.model.embed_dim, root.stream("queue-init")
    )
    return TrainState(
        params_q=params_q,
        params_k=params_k,
        velocity=zeros_like_params(params_q),
        queue=queue,
        step=0,
    )


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    if total_epochs <= 0:
        return float(base_lr)
    return float(0.5 * base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)))


def global_norm(params: EncoderParams) -> float:
    total = 0.0
    for leaf in leaves(params):
        total += float(np.sum(leaf * leaf))
    return float(np.sqrt(total))


def _encode(params: EncoderParams, x: np.ndarray, step: int):
    """Forward pass that reports a blown-up encoder as divergence.

    Overflow inside the forward pass is not an error in itself, so the IEEE
    warnings are silenced; what diverges is an embedding that ``forward``
    cannot normalize.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return forward(params, x)
    except DegenerateVectorError as exc:
        raise DivergenceError(f"divergence at step {step}") from exc


def train_step(
    state: TrainState, x: np.ndarray, labels: np.ndarray, cfg: RunConfig
) -> tuple[TrainState, StepMetrics]:
    """One optimization step of the run ``cfg`` on a batch of (input,
    training-label) pairs; its epoch, learning rate and augmentation stream
    follow from ``state.step``, so every caller takes the step ``pretrain``
    takes.

    Order matters: logits and targets are computed against the queue as it
    was *before* this batch's keys are pushed, and the key encoder moves
    after the query update so it trails the freshly stepped query weights.
    """
    train_cfg = cfg.train
    epoch = state.step // cfg.steps_per_epoch
    lr = cosine_lr(train_cfg.lr, epoch, train_cfg.epochs)
    rng = Rng(train_cfg.seed).stream("aug", state.step)
    n = x.shape[0]
    x_q = augment(x, train_cfg.aug, rng.stream("q"))
    x_k = augment(x, train_cfg.aug, rng.stream("k"))

    q, tape = _encode(state.params_q, x_q, state.step)
    k, _ = _encode(state.params_k, x_k, state.step)  # no grad flows through keys

    # each query with its own key in column 0, then with each queue feature
    logits = np.empty((n, 1 + state.queue.features.shape[0]))
    np.sum(q * k, axis=1, out=logits[:, 0])
    np.matmul(q, state.queue.features.T, out=logits[:, 1:])
    logits /= train_cfg.tau

    # a single-positive run reads no label and runs infonce's kernel
    # (``TrainConfig.single_positive``)
    single = train_cfg.single_positive
    kind = "infonce" if single else train_cfg.loss
    targets = build_target(np.full(n, UNLABELED) if single else labels, state.queue)

    values, grad_logits = loss_batch(kind, logits, targets)
    loss = float(np.mean(values))

    grad_queue = grad_logits[:, 1:] @ state.queue.features
    grad_q = (grad_logits[:, :1] * k + grad_queue) / (train_cfg.tau * n)
    grads = backward(tape, grad_q)
    gnorm = global_norm(grads)

    def _velocity(v, g, p):
        return train_cfg.sgd_momentum * v + g + train_cfg.weight_decay * p

    # an update that overflows the weights is divergence, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        velocity = map_leaves(_velocity, state.velocity, grads, state.params_q)
        params_q = map_leaves(lambda p, v: p - lr * v, state.params_q, velocity)
    if not (
        np.isfinite(loss) and np.isfinite(gnorm) and np.isfinite(params_q.flat).all()
    ):
        raise DivergenceError(f"divergence at step {state.step}")
    params_k = momentum_update(state.params_k, params_q, train_cfg.momentum_m)
    queue = push_batch(state.queue, k, labels)

    new_state = TrainState(
        params_q=params_q,
        params_k=params_k,
        velocity=velocity,
        queue=queue,
        step=state.step + 1,
    )
    metrics = StepMetrics(
        step=state.step,
        epoch=epoch,
        loss=loss,
        mean_positives=float(np.count_nonzero(targets)) / n,
        grad_norm=gnorm,
        lr=lr,
    )
    return new_state, metrics


def _dataset_layout(spec: DatasetSpec):
    """(name, shape, labels) of each array field of a Dataset, in field order;
    see ``_array_problems`` for what ``labels`` declares."""
    c, d, n, m = spec.n_classes, spec.input_dim, spec.n_train, spec.n_test
    return [
        ("means", (c, d), None),
        ("train_x", (n, d), None),
        ("train_y", (n,), (0, c)),
        ("test_x", (m, d), None),
        ("test_y", (m,), (0, c)),
    ]


def _array_problems(what: str, arrays, layout) -> list[str]:
    """One message per array of ``layout`` that ``arrays`` lacks or that
    breaks its rule, in layout order.

    Each layout entry is ``(name, shape, labels)``: ``labels`` None declares
    a finite float64 array, and ``(lo, hi)`` an int64 array of labels in
    [lo, hi). Arrays the layout does not name are ignored, so a file that
    still carries a field no longer read (a dataset's ``train_labels``)
    loads.
    """
    problems = []
    for name, shape, labels in layout:
        if name not in arrays:
            problems.append(f"{what} file lacks {name!r}")
            continue
        arr = np.asarray(arrays[name])
        dtype = np.dtype(np.float64 if labels is None else np.int64)
        if arr.shape != shape or arr.dtype != dtype:
            problems.append(
                f"{what} array {name!r} has shape {arr.shape} and dtype "
                f"{arr.dtype}, expected {shape} and {dtype}"
            )
        elif labels is None and not np.all(np.isfinite(arr)):
            problems.append(f"{what} array {name!r} holds non-finite values")
        elif labels is not None and np.any((arr < labels[0]) | (arr >= labels[1])):
            problems.append(
                f"{what} array {name!r} holds labels outside [{labels[0]}, {labels[1]})"
            )
    return problems


def check_dataset_matches(cfg: RunConfig, dataset: Dataset) -> None:
    """Raise ConfigError unless ``dataset`` was generated from ``cfg.dataset``
    and each of its arrays keeps the rule its layout entry declares, as a
    dataset file must: one message per differing key, then one per array
    that breaks its rule."""
    want, have = asdict(cfg.dataset), asdict(dataset.spec)
    problems = [
        f"dataset.{key}: config has {want[key]!r}, file has {have[key]!r}"
        for key in sorted(want)
        if want[key] != have[key]
    ]
    problems += _array_problems("dataset", vars(dataset), _dataset_layout(dataset.spec))
    if problems:
        raise ConfigError(problems)


def pretrain(
    dataset: Dataset,
    cfg: RunConfig,
    *,
    state: TrainState | None = None,
    max_steps: int | None = None,
    step_callback=None,
) -> TrainState:
    """Run (or resume) momentum-encoder pretraining.

    ``dataset`` must be the one ``cfg.dataset`` describes (ConfigError
    otherwise), since the schedule comes from the config. The label view
    used for targets is derived here from the ground truth, the dataset
    seed and ``cfg.train.label_ratio``. ``state`` continues a
    previous run from ``state.step``; randomness is re-derived from the
    config seed and the step counter, so stopping and resuming produces the
    same trajectory as an uninterrupted run. Each step's metrics go to
    ``step_callback``, if given; the final state is returned.
    """
    check_dataset_matches(cfg, dataset)
    labels = mask_labels(dataset.train_y, cfg.train.label_ratio, Rng(cfg.dataset.seed))
    if state is None:
        state = init_state(cfg)
    root = Rng(cfg.train.seed)
    spe, bs = cfg.steps_per_epoch, cfg.train.batch_size
    stop = cfg.total_steps if max_steps is None else min(cfg.total_steps, max_steps)

    perm = None
    perm_epoch = -1
    while state.step < stop:
        epoch, b = divmod(state.step, spe)
        if epoch != perm_epoch:
            perm = root.stream("shuffle", epoch).permutation(cfg.dataset.n_train)
            perm_epoch = epoch
        idx = perm[b * bs : (b + 1) * bs]
        state, metrics = train_step(state, dataset.train_x[idx], labels[idx], cfg)
        if step_callback is not None:
            step_callback(metrics)
    return state


__all__ = [
    "Dataset",
    "DivergenceError",
    "StepMetrics",
    "TrainState",
    "augment",
    "check_dataset_matches",
    "cosine_lr",
    "generate_dataset",
    "global_norm",
    "init_state",
    "mask_labels",
    "pretrain",
    "train_step",
]
