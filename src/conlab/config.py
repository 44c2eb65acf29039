"""Run configuration: dataclasses, strict JSON parsing, canonical digests.

A run config is one JSON document with four sections (dataset, model, train,
probe). Unknown keys anywhere are a hard error; a typo in a hyperparameter
name must fail loudly, not silently train with a default.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import numbers
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
        for (op, limit), message in zip(bounds, says):
            limit = getattr(section, limit) if isinstance(limit, str) else limit
            if _REJECTS[op](value, limit):
                return message

    return _checked(default, check)


def _integer(v):
    """v as an int: a Python or NumPy integer, not a bool; else None."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)


def _number(v):
    """v as a float: a real number, not a bool nor an integer too large for
    a float; else None. NaN and ±inf convert, to be refused as not finite."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):
            return float(v)


def _integers(v):
    """v as a tuple of ints, from a list or tuple of integers; else None."""
    if isinstance(v, (list, tuple)) and all(_integer(x) is not None for x in v):
        return tuple(map(int, v))


# Per field type: the conversion, which gives None for a value of another
# type, and what the message expects
_TYPES = {
    int: (_integer, "an integer"),
    float: (_number, "a number"),
    str: (lambda v: str(v) if isinstance(v, str) else None, "a string"),
    tuple[int, ...]: (_integers, "a list of integers"),
}


@functools.cache
def _field_types(cls) -> dict:
    """Maps each field's name to the field, its type (`T | None` read as T)
    and whether that type is a section, in field order. Computed once per
    class: `get_type_hints` costs more than a construction."""
    hints = get_type_hints(cls)
    types = {}
    for f in fields(cls):
        hint = get_args(hints[f.name])[0] if f.default is None else hints[f.name]
        types[f.name] = (f, hint, is_dataclass(hint))
    return types


class _Checked:
    """A config section, and a whole config, checks its own rules when it is
    built, so one from JSON, `with_train`, `dataclasses.replace` or a
    constructor call is valid, and no caller re-checks it. Each field, in
    field order, is checked and converted to its type (an int field holds
    an int, a float field a float, `trunk` a tuple of ints, a section field
    its section, built by `_from_object` from a JSON object), then checked
    to be finite, then against the rule declared on it (`_bounded`,
    `_checked`). A field of the wrong type takes its default, so a later
    field's rule that reads it still runs. `validate()` holds the rest: the
    element budgets, and the rules that span sections; it runs only when
    every section field holds the section it was given. `_where` names the
    section in messages."""

    _where: ClassVar[str]

    def __post_init__(self):
        problems = []
        sections_built = True
        for f, hint, is_section in _field_types(type(self)).values():
            value = getattr(self, f.name)
            if value is None and f.default is None:  # an optional field
                continue
            if is_section and not isinstance(value, hint):
                try:
                    value = _from_object(hint, value)
                except ConfigError as exc:
                    problems += exc.problems
                    sections_built, value = False, hint()
                object.__setattr__(self, f.name, value)
            if hint in _TYPES:
                convert, expected = _TYPES[hint]
                if (value := convert(value)) is None:
                    if f.default is None:
                        expected += " or null"
                    problems.append(f"{self._where}.{f.name}: expected {expected}")
                    object.__setattr__(self, f.name, f.default)
                    continue
                object.__setattr__(self, f.name, value)
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{self._where}.{f.name}: must be finite")
            if (check := f.metadata.get("check")) and (says := check(self, value)):
                problems.append(f"{self._where}.{f.name}: {says}")
        if sections_built:
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
    _where = "config"

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


def _from_object(cls, data, unknown="{where}.{key}: unknown key"):
    """Build a section, or a whole config, from a JSON object; raises
    ConfigError with every problem: unknown keys first, then the section's
    own, field by field. A nested section is built by its field's check."""
    if not isinstance(data, dict):
        raise ConfigError([f"{cls._where}: expected an object"])
    types = _field_types(cls)
    problems = [unknown.format(where=cls._where, key=k) for k in data if k not in types]
    try:
        built = cls(**{key: value for key, value in data.items() if key in types})
    except ConfigError as exc:
        problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return built


def config_from_dict(data: dict) -> RunConfig:
    """Parse and validate a config document; raises ConfigError with every
    problem found, not just the first: unknown sections, then each section's
    in declaration order, then the rules that span sections."""
    if not isinstance(data, dict):
        raise ConfigError(["config: expected a JSON object"])
    return _from_object(RunConfig, data, "{key}: unknown section")


def spec_from_dict(data) -> DatasetSpec:
    """Parse and validate a dataset section on its own. The rules that span
    sections are left out: a bare spec comes without the model it will feed."""
    return _from_object(DatasetSpec, data)


def _read_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; ConfigError, its message
    led by ``what``, for a file that holds no JSON or another value."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{what}: invalid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"{what}: expected a JSON object"])
    return data


def load_config(path) -> RunConfig:
    return config_from_dict(_read_object(path, "config"))


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
