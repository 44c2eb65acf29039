"""Run configuration: dataclasses, strict JSON parsing, canonical digests.

A run config is one JSON document with four sections (dataset, model, train,
probe). Unknown keys anywhere are a hard error; a typo in a hyperparameter
name must fail loudly, not silently train with a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import ClassVar, get_args, get_type_hints

from .losses import LOSS_KINDS


class ConfigError(ValueError):
    """Itemized configuration problems, one message per offending key."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# The most elements one array of a run may hold (512 MiB of float64): the
# data, one parameter tree, the queue, a step's logits and activations, and
# the probes' features. A config past it is refused before anything is
# allocated.
ELEMENT_BUDGET = 2**26


def _budget(where: str, what: str, n: int) -> list[str]:
    if n <= ELEMENT_BUDGET:
        return []
    return [f"{where}: {what} exceeds the budget of {ELEMENT_BUDGET} elements"]


class _Checked:
    """A config section, and a whole config, checks its own rules when it is
    built, so one from JSON, `with_train`, `dataclasses.replace` or a
    constructor call is valid, and no caller re-checks it. `_where` names
    the section in messages."""

    _where: ClassVar[str]

    def __post_init__(self):
        # every rule in validate() is a rejecting comparison, which NaN passes
        problems = [
            f"{self._where}.{f.name}: must be finite"
            for f in fields(self)
            if isinstance(v := getattr(self, f.name), float) and not math.isfinite(v)
        ]
        problems += self.validate()
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class DatasetSpec(_Checked):
    _where = "dataset"

    n_classes: int = 5
    input_dim: int = 20
    n_train: int = 5000
    n_test: int = 1000
    cluster_spread: float = 1.0
    mean_radius: float = 2.0
    seed: int = 0

    def validate(self) -> list[str]:
        problems = []
        if self.n_classes < 2:
            problems.append("dataset.n_classes: must be >= 2")
        if self.input_dim < 2:
            problems.append("dataset.input_dim: must be >= 2")
        if self.n_train < self.n_classes:
            problems.append("dataset.n_train: must be >= n_classes")
        if self.n_test < self.n_classes:
            problems.append("dataset.n_test: must be >= n_classes")
        if self.cluster_spread <= 0:
            problems.append("dataset.cluster_spread: must be > 0")
        if self.mean_radius <= 0:
            problems.append("dataset.mean_radius: must be > 0")
        if self.seed < 0:
            problems.append("dataset.seed: must be >= 0")
        for name, n in (("n_train", self.n_train), ("n_test", self.n_test)):
            size = n * self.input_dim
            problems += _budget(f"dataset.{name}", f"{name} * input_dim", size)
        return problems


@dataclass(frozen=True)
class ModelConfig(_Checked):
    _where = "model"

    trunk: tuple[int, ...] = (64, 32)
    proj_hidden: int | None = None  # defaults to the trunk output width
    embed_dim: int = 16

    def validate(self) -> list[str]:
        problems = []
        if len(self.trunk) < 1 or any(w < 1 for w in self.trunk):
            problems.append("model.trunk: must be a non-empty list of widths >= 1")
        if self.proj_hidden is not None and self.proj_hidden < 1:
            problems.append("model.proj_hidden: must be >= 1 (or null)")
        if self.embed_dim < 1:
            problems.append("model.embed_dim: must be >= 1")
        return problems


@dataclass(frozen=True)
class AugConfig(_Checked):
    _where = "train.aug"

    # Deliberately gentle views. The label-ratio effect lives here: with weak
    # augmentation the instance-matching task saturates early, so unlabeled
    # training plateaus while label-driven positives keep supplying signal.
    noise_std: float = 0.15
    dropout_p: float = 0.0

    def validate(self) -> list[str]:
        problems = []
        if self.noise_std < 0:
            problems.append("train.aug.noise_std: must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            problems.append("train.aug.dropout_p: must lie in [0, 1)")
        return problems


@dataclass(frozen=True)
class TrainConfig(_Checked):
    _where = "train"

    tau: float = 0.2
    momentum_m: float = 0.999
    queue_size: int = 512
    label_ratio: float = 1.0
    batch_size: int = 64
    epochs: int = 30
    lr: float = 0.06
    sgd_momentum: float = 0.9
    weight_decay: float = 5e-4
    aug: AugConfig = field(default_factory=AugConfig)
    loss: str = "unicon"
    seed: int = 0

    @property
    def single_positive(self) -> bool:
        """Only the paired key is a positive: the loss is infonce, or no
        label is visible. Every loss takes the infonce value on one
        positive, and ``train_step`` then runs infonce's kernel, so such a
        run trains bit for bit as infonce at label ratio 0."""
        return self.loss == "infonce" or self.label_ratio == 0.0

    def validate(self) -> list[str]:
        problems = []
        if self.tau <= 0:
            problems.append("train.tau: must be > 0")
        if not 0.0 <= self.momentum_m <= 1.0:
            problems.append("train.momentum_m: must lie in [0, 1]")
        if self.queue_size < 1:
            problems.append("train.queue_size: must be >= 1")
        if not 0.0 <= self.label_ratio <= 1.0:
            problems.append("train.label_ratio: must lie in [0, 1]")
        if self.batch_size < 1:
            problems.append("train.batch_size: must be >= 1")
        elif self.batch_size > self.queue_size:
            problems.append("train.batch_size: must be <= queue_size")
        if self.epochs < 0:
            problems.append("train.epochs: must be >= 0")
        if self.lr <= 0:
            problems.append("train.lr: must be > 0")
        if not 0.0 <= self.sgd_momentum < 1.0:
            problems.append("train.sgd_momentum: must lie in [0, 1)")
        if self.weight_decay < 0:
            problems.append("train.weight_decay: must be >= 0")
        if self.loss not in LOSS_KINDS:
            problems.append(
                f"train.loss: unknown loss {self.loss!r}; "
                f"must be one of {', '.join(LOSS_KINDS)}"
            )
        if self.seed < 0:
            problems.append("train.seed: must be >= 0")
        logits = self.batch_size * (1 + self.queue_size)
        problems += _budget("train.batch_size", "batch_size * (1 + queue_size)", logits)
        return problems


@dataclass(frozen=True)
class ProbeConfig(_Checked):
    _where = "probe"

    epochs: int = 40
    lr: float = 0.5
    batch_size: int = 128
    knn_k: int = 15
    knn_temperature: float | None = None  # None = unweighted neighbor vote

    def validate(self) -> list[str]:
        problems = []
        # bounded, so that a checkpoint file cannot ask `probe` for endless work
        if not 1 <= self.epochs <= 1000:
            problems.append("probe.epochs: must lie in [1, 1000]")
        if self.lr <= 0:
            problems.append("probe.lr: must be > 0")
        if self.batch_size < 1:
            problems.append("probe.batch_size: must be >= 1")
        if self.knn_k < 1:
            problems.append("probe.knn_k: must be >= 1")
        if self.knn_temperature is not None and self.knn_temperature <= 0:
            problems.append("probe.knn_temperature: must be > 0 (or null)")
        return problems


@dataclass(frozen=True)
class RunConfig(_Checked):
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        """The encoder's widths, input to embedding: one layer per pair."""
        m = self.model
        hidden = m.trunk[-1] if m.proj_hidden is None else m.proj_hidden
        return (self.dataset.input_dim, *m.trunk, hidden, m.embed_dim)

    @property
    def steps_per_epoch(self) -> int:
        """Full batches per epoch; the remainder of the training set is dropped."""
        return self.dataset.n_train // self.train.batch_size

    @property
    def total_steps(self) -> int:
        return self.train.epochs * self.steps_per_epoch

    def validate(self) -> list[str]:
        """The rules that span sections: a batch and the kNN probe's k fit
        in the training set, and the budgets of parameters, the queue, and
        activations (the probes' trunk features for the larger split, and a
        training batch at the widest layer)."""
        d, m = self.dataset, self.model
        problems = []
        if self.train.batch_size > d.n_train:
            problems.append("train.batch_size: must be <= dataset.n_train")
        if self.probe.knn_k > d.n_train:
            problems.append("probe.knn_k: must be <= dataset.n_train")
        dims = self.layer_dims
        n_params = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
        queue = self.train.queue_size * m.embed_dim
        features = max(d.n_train, d.n_test) * max(m.trunk)
        batch = self.train.batch_size * max(dims)
        return (
            problems
            + _budget("model", "the parameter count", n_params)
            + _budget("train.queue_size", "queue_size * embed_dim", queue)
            + _budget(
                "model.trunk", "max(n_train, n_test) * the widest trunk layer", features
            )
            + _budget("train.batch_size", "batch_size * the widest layer", batch)
        )


def _is_number(v) -> bool:
    """A JSON number that is a finite float: not NaN or ±Infinity, which
    `json.load` accepts, and not an integer too large for a float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


# JSON checks per field type: (accepts, convert, what the message expects)
_JSON_TYPES = {
    int: (lambda v: type(v) is int, int, "an integer"),
    float: (_is_number, float, "a number"),
    str: (lambda v: isinstance(v, str), str, "a string"),
    tuple[int, ...]: (
        lambda v: isinstance(v, (list, tuple)) and all(type(x) is int for x in v),
        tuple,
        "a list of integers",
    ),
}


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _section_from_dict(cls, data, where: str, problems: list[str]):
    if not isinstance(data, dict):
        problems.append(f"{where}: expected an object")
        return cls()
    types = _field_types(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            problems.append(f"{where}.{key}: unknown key")
            continue
        hint = types[key]
        if is_dataclass(hint):  # nested section
            kwargs[key] = _section_from_dict(hint, value, f"{where}.{key}", problems)
            continue
        optional = type(None) in get_args(hint)  # `T | None`
        if optional:
            if value is None:
                kwargs[key] = None
                continue
            hint = get_args(hint)[0]
        accepts, convert, expected = _JSON_TYPES[hint]
        if accepts(value):
            kwargs[key] = convert(value)
        else:
            problems.append(
                f"{where}.{key}: expected {expected}{' or null' if optional else ''}"
            )
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        problems.extend(exc.problems)
        return cls()


def config_from_dict(data: dict) -> RunConfig:
    """Parse and validate a config document; raises ConfigError with every
    problem found, not just the first."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["config: expected a JSON object"])
    sections = {}
    types = _field_types(RunConfig)
    for key, value in data.items():
        if key not in types:
            problems.append(f"{key}: unknown section")
            continue
        sections[key] = _section_from_dict(types[key], value, key, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**sections)


def spec_from_dict(data) -> DatasetSpec:
    """Parse and validate a dataset section on its own. The rules that span
    sections are left out: a bare spec comes without the model it will feed."""
    problems: list[str] = []
    spec = _section_from_dict(DatasetSpec, data, "dataset", problems)
    if problems:
        raise ConfigError(problems)
    return spec


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-native mirror of the config (tuples become lists), so a value
    survives a dump/load round trip unchanged."""
    return json.loads(json.dumps(asdict(cfg)))


def canonical_json(data: dict) -> str:
    """Key-order-insensitive serialization used for digests and headers."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()


def run_id(cfg: RunConfig) -> str:
    return f"s{cfg.train.seed}-{config_digest(cfg)[:12]}"


def with_train(cfg: RunConfig, **overrides) -> RunConfig:
    """Copy of cfg with train-section fields replaced."""
    return replace(cfg, train=replace(cfg.train, **overrides))


__all__ = [
    "AugConfig",
    "ConfigError",
    "DatasetSpec",
    "ModelConfig",
    "ProbeConfig",
    "RunConfig",
    "TrainConfig",
    "canonical_json",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "run_id",
    "with_train",
]
