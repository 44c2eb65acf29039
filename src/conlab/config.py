"""Run configuration: dataclasses, strict JSON parsing, canonical digests.

A run config is one JSON document with four sections (dataset, model, train,
probe). Unknown keys anywhere are a hard error; a typo in a hyperparameter
name must fail loudly, not silently train with a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
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


# The comparison that rejects a value for each bound operator. NaN makes
# every comparison false, so it meets every bound and is reported only as
# not finite.
_REJECTS = {">=": operator.lt, ">": operator.le, "<=": operator.gt, "<": operator.ge}
_ENDS = {">=": "[", ">": "(", "<=": "]", "<": ")"}  # an interval's brackets


def _checked(default, check):
    """A field with a rule: `check(section, value)` returns what is wrong
    with the value, or None."""
    return field(default=default, metadata={"check": check})


def _bounded(default, *bounds):
    """A field whose value must meet each `(op, limit)` bound in turn, where
    `limit` is a number or the name of another field of the section. The
    message names the first bound the value fails; a numeric lower and upper
    bound read as one interval. A field that defaults to None may be None."""
    says = [f"must be {op} {limit}" for op, limit in bounds]
    if len(bounds) == 2 and not any(isinstance(limit, str) for _, limit in bounds):
        (lo_op, lo), (hi_op, hi) = bounds
        says = 2 * [f"must lie in {_ENDS[lo_op]}{lo}, {hi}{_ENDS[hi_op]}"]
    if default is None:
        says = [f"{message} (or null)" for message in says]

    def check(section, value):
        if value is None and default is None:
            return None
        for (op, limit), message in zip(bounds, says):
            limit = getattr(section, limit) if isinstance(limit, str) else limit
            if _REJECTS[op](value, limit):
                return message

    return _checked(default, check)


class _Checked:
    """A config section, and a whole config, checks its own rules when it is
    built, so one from JSON, `with_train`, `dataclasses.replace` or a
    constructor call is valid, and no caller re-checks it. A field's rule
    is declared on the field (`_bounded`, `_checked`), and `validate()`
    holds the rest: the element budgets, and the rules that span sections.
    `_where` names the section in messages."""

    _where: ClassVar[str]

    def __post_init__(self):
        problems = [
            f"{self._where}.{f.name}: must be finite"
            for f in fields(self)
            if isinstance(v := getattr(self, f.name), float) and not math.isfinite(v)
        ]
        for f in fields(self):
            check = f.metadata.get("check")
            if check and (says := check(self, getattr(self, f.name))):
                problems.append(f"{self._where}.{f.name}: {says}")
        problems += self.validate()
        if problems:
            raise ConfigError(problems)

    def validate(self) -> list[str]:
        return []


@dataclass(frozen=True)
class DatasetSpec(_Checked):
    _where = "dataset"

    n_classes: int = _bounded(5, (">=", 2))
    input_dim: int = _bounded(20, (">=", 2))
    n_train: int = _bounded(5000, (">=", "n_classes"))
    n_test: int = _bounded(1000, (">=", "n_classes"))
    cluster_spread: float = _bounded(1.0, (">", 0))
    mean_radius: float = _bounded(2.0, (">", 0))
    seed: int = _bounded(0, (">=", 0))

    def validate(self) -> list[str]:
        problems = []
        for name, n in (("n_train", self.n_train), ("n_test", self.n_test)):
            size = n * self.input_dim
            problems += _budget(f"dataset.{name}", f"{name} * input_dim", size)
        return problems


def _widths(_, trunk):
    if len(trunk) < 1 or any(w < 1 for w in trunk):
        return "must be a non-empty list of widths >= 1"


@dataclass(frozen=True)
class ModelConfig(_Checked):
    _where = "model"

    trunk: tuple[int, ...] = _checked((64, 32), _widths)
    proj_hidden: int | None = _bounded(None, (">=", 1))  # None = the trunk output width
    embed_dim: int = _bounded(16, (">=", 1))


@dataclass(frozen=True)
class AugConfig(_Checked):
    _where = "train.aug"

    # Deliberately gentle views. The label-ratio effect lives here: with weak
    # augmentation the instance-matching task saturates early, so unlabeled
    # training plateaus while label-driven positives keep supplying signal.
    noise_std: float = _bounded(0.15, (">=", 0))
    dropout_p: float = _bounded(0.0, (">=", 0), ("<", 1))


def _loss_kind(_, loss):
    if loss not in LOSS_KINDS:
        return f"unknown loss {loss!r}; must be one of {', '.join(LOSS_KINDS)}"


@dataclass(frozen=True)
class TrainConfig(_Checked):
    _where = "train"

    tau: float = _bounded(0.2, (">", 0))
    momentum_m: float = _bounded(0.999, (">=", 0), ("<=", 1))
    queue_size: int = _bounded(512, (">=", 1))
    label_ratio: float = _bounded(1.0, (">=", 0), ("<=", 1))
    batch_size: int = _bounded(64, (">=", 1), ("<=", "queue_size"))
    epochs: int = _bounded(30, (">=", 0))
    lr: float = _bounded(0.06, (">", 0))
    sgd_momentum: float = _bounded(0.9, (">=", 0), ("<", 1))
    weight_decay: float = _bounded(5e-4, (">=", 0))
    aug: AugConfig = field(default_factory=AugConfig)
    loss: str = _checked("unicon", _loss_kind)
    seed: int = _bounded(0, (">=", 0))

    @property
    def single_positive(self) -> bool:
        """Only the paired key is a positive: the loss is infonce, or no
        label is visible. Every loss takes the infonce value on one
        positive, and ``train_step`` then runs infonce's kernel, so such a
        run trains bit for bit as infonce at label ratio 0."""
        return self.loss == "infonce" or self.label_ratio == 0.0

    def validate(self) -> list[str]:
        logits = self.batch_size * (1 + self.queue_size)
        return _budget("train.batch_size", "batch_size * (1 + queue_size)", logits)


@dataclass(frozen=True)
class ProbeConfig(_Checked):
    _where = "probe"

    # bounded, so that a checkpoint file cannot ask `probe` for endless work
    epochs: int = _bounded(40, (">=", 1), ("<=", 1000))
    lr: float = _bounded(0.5, (">", 0))
    batch_size: int = _bounded(128, (">=", 1))
    knn_k: int = _bounded(15, (">=", 1))
    # None = unweighted neighbor vote
    knn_temperature: float | None = _bounded(None, (">", 0))


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
