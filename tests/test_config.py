"""Config parsing, validation, canonical digests."""

import dataclasses
import json
import math

import pytest

from conlab.config import (
    ELEMENT_BUDGET,
    AugConfig,
    ConfigError,
    DatasetSpec,
    ModelConfig,
    ProbeConfig,
    RunConfig,
    TrainConfig,
    canonical_json,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
    run_id,
    spec_from_dict,
    with_train,
)


def test_defaults_are_valid():
    cfg = RunConfig()
    for section in (cfg, cfg.dataset, cfg.model, cfg.train, cfg.train.aug, cfg.probe):
        assert section.validate() == []


def test_empty_document_gives_defaults():
    assert config_from_dict({}) == RunConfig()


def test_roundtrip_through_dict():
    cfg = RunConfig(
        dataset=DatasetSpec(n_classes=3, seed=9),
        model=ModelConfig(trunk=(10, 4), embed_dim=6),
        train=TrainConfig(lr=0.01, loss="supcon_in", aug=AugConfig(noise_std=0.3)),
        probe=ProbeConfig(knn_k=7, knn_temperature=0.1),
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_partial_sections_keep_other_defaults():
    cfg = config_from_dict({"train": {"lr": 0.02}})
    assert cfg.train.lr == 0.02
    assert cfg.train.tau == TrainConfig().tau
    assert cfg.dataset == DatasetSpec()


def test_unknown_section_key_and_nested_key():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            {
                "dataste": {},
                "train": {"taus": 1, "aug": {"nose": 0.1}},
            }
        )
    problems = exc.value.problems
    assert "dataste: unknown section" in problems
    assert "train.taus: unknown key" in problems
    assert "train.aug.nose: unknown key" in problems


def test_type_errors_are_itemized():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            {
                "dataset": {"n_classes": "5"},
                "train": {"lr": "fast", "loss": 3},
                "model": {"trunk": [16, "x"]},
            }
        )
    problems = exc.value.problems
    assert "dataset.n_classes: expected an integer" in problems
    assert "train.lr: expected a number" in problems
    assert "train.loss: expected a string" in problems
    assert "model.trunk: expected a list of integers" in problems


def test_bool_is_not_an_integer():
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"dataset": {"n_classes": True}})


def test_validation_bounds():
    cases = [
        ({"train": {"tau": 0.0}}, "train.tau"),
        ({"train": {"label_ratio": 1.5}}, "train.label_ratio"),
        ({"train": {"momentum_m": -0.2}}, "train.momentum_m"),
        ({"train": {"batch_size": 80, "queue_size": 64}}, "train.batch_size"),
        ({"dataset": {"n_train": 40}}, "train.batch_size: must be <= dataset.n_train"),
        ({"train": {"aug": {"dropout_p": 1.0}}}, "train.aug.dropout_p"),
        ({"train": {"loss": "triplet"}}, "train.loss"),
        ({"dataset": {"n_classes": 1}}, "dataset.n_classes"),
        ({"dataset": {"cluster_spread": 0.0}}, "dataset.cluster_spread"),
        ({"probe": {"knn_k": 0}}, "probe.knn_k"),
        (
            {"dataset": {"n_train": 64}, "probe": {"knn_k": 65}},
            "probe.knn_k: must be <= dataset.n_train",
        ),
        ({"probe": {"epochs": 1001}}, "probe.epochs"),
        ({"probe": {"knn_temperature": 0.0}}, "probe.knn_temperature"),
    ]
    for doc, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            config_from_dict(doc)


def test_non_finite_json_numbers_rejected():
    # json.load accepts NaN and ±Infinity, and an integer of any length
    doc = json.loads(
        '{"train": {"tau": NaN, "lr": Infinity, "weight_decay": -Infinity, '
        '"momentum_m": 1' + "0" * 400 + '}, "probe": {"knn_temperature": NaN}}'
    )
    with pytest.raises(ConfigError) as exc:
        config_from_dict(doc)
    assert exc.value.problems == [
        "train.tau: expected a number",
        "train.lr: expected a number",
        "train.weight_decay: expected a number",
        "train.momentum_m: expected a number",
        "probe.knn_temperature: expected a number or null",
    ]


def test_every_problem_is_collected():
    # one bad section must not hide the problems of the next, nor a bound
    # error the type error beside it
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            {
                "dataset": {"n_classes": "5", "n_train": 1},
                "model": {"embed_dim": 0},
                "train": {"tau": -1.0, "aug": {"noise_std": -0.5}},
                "probe": {"knn_k": 0},
            }
        )
    problems = exc.value.problems
    for needle in (
        "dataset.n_classes: expected an integer",
        "dataset.n_train: must be >= n_classes",
        "model.embed_dim: must be >= 1",
        "train.tau: must be > 0",
        "train.aug.noise_std: must be >= 0",
        "probe.knn_k: must be >= 1",
    ):
        assert needle in problems
    assert len(problems) == 6


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: with_train(RunConfig(), lr=-0.05), "train.lr"),
        (lambda: with_train(RunConfig(), tau=-0.2), "train.tau"),
        (lambda: with_train(RunConfig(), epochs=-3), "train.epochs"),
        (lambda: with_train(RunConfig(), loss="margin"), "unknown loss 'margin'"),
        (lambda: dataclasses.replace(DatasetSpec(), n_classes=1), "dataset.n_classes"),
        (lambda: ProbeConfig(epochs=2**40), "probe.epochs"),
        (lambda: TrainConfig(aug=AugConfig(dropout_p=1.0)), "train.aug.dropout_p"),
        (lambda: with_train(RunConfig(), lr=float("nan")), "train.lr: must be finite"),
        (lambda: AugConfig(noise_std=float("inf")), "train.aug.noise_std: must be"),
        (lambda: DatasetSpec(cluster_spread=float("inf")), "dataset.cluster_spread"),
        (lambda: ProbeConfig(knn_temperature=float("nan")), "probe.knn_temperature"),
        (
            lambda: with_train(RunConfig(), batch_size=5001, queue_size=6000),
            "train.batch_size: must be <= dataset.n_train",
        ),
    ],
    ids=[
        "lr", "tau", "epochs", "loss", "replace", "probe_epochs", "nested_aug",
        "nan_lr", "inf_noise", "inf_spread", "nan_temperature", "batch_over_n_train",
    ],
)
def test_configs_built_in_code_are_checked(build, needle):
    # with_train, replace and constructors go through the same rules as JSON
    with pytest.raises(ConfigError, match=needle):
        build()


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda v: TrainConfig(momentum_m=v), "train.momentum_m"),
        (lambda v: TrainConfig(label_ratio=v), "train.label_ratio"),
        (lambda v: TrainConfig(sgd_momentum=v), "train.sgd_momentum"),
        (lambda v: AugConfig(dropout_p=v), "train.aug.dropout_p"),
    ],
    ids=["momentum_m", "label_ratio", "sgd_momentum", "dropout_p"],
)
def test_nan_in_an_interval_is_reported_once(build, where):
    # NaN meets every bound, as no comparison with it holds; an infinity
    # that lies outside one still fails it
    with pytest.raises(ConfigError) as exc:
        build(float("nan"))
    assert exc.value.problems == [f"{where}: must be finite"]
    with pytest.raises(ConfigError) as exc:
        build(-math.inf)
    assert exc.value.problems[0] == f"{where}: must be finite"
    assert exc.value.problems[1].startswith(f"{where}: must lie in [0, 1")


# One row per end of each declared bound: the section built from the value,
# where the value sits, the bound, the direction out of it (-1 below a lower
# end, +1 above an upper end), whether the end is closed, and the message.
BOUND_ENDS = [
    (lambda v: DatasetSpec(n_classes=v), "dataset.n_classes", 2, -1, True,
     "must be >= 2"),
    (lambda v: DatasetSpec(input_dim=v), "dataset.input_dim", 2, -1, True,
     "must be >= 2"),
    (lambda v: DatasetSpec(n_classes=7, n_train=v), "dataset.n_train", 7, -1, True,
     "must be >= n_classes"),
    (lambda v: DatasetSpec(n_classes=7, n_test=v), "dataset.n_test", 7, -1, True,
     "must be >= n_classes"),
    (lambda v: DatasetSpec(cluster_spread=v), "dataset.cluster_spread", 0.0, -1,
     False, "must be > 0"),
    (lambda v: DatasetSpec(mean_radius=v), "dataset.mean_radius", 0.0, -1, False,
     "must be > 0"),
    (lambda v: DatasetSpec(seed=v), "dataset.seed", 0, -1, True, "must be >= 0"),
    (lambda v: ModelConfig(proj_hidden=v), "model.proj_hidden", 1, -1, True,
     "must be >= 1 (or null)"),
    (lambda v: ModelConfig(embed_dim=v), "model.embed_dim", 1, -1, True,
     "must be >= 1"),
    (lambda v: AugConfig(noise_std=v), "train.aug.noise_std", 0.0, -1, True,
     "must be >= 0"),
    (lambda v: AugConfig(dropout_p=v), "train.aug.dropout_p", 0.0, -1, True,
     "must lie in [0, 1)"),
    (lambda v: AugConfig(dropout_p=v), "train.aug.dropout_p", 1.0, +1, False,
     "must lie in [0, 1)"),
    (lambda v: TrainConfig(tau=v), "train.tau", 0.0, -1, False, "must be > 0"),
    (lambda v: TrainConfig(momentum_m=v), "train.momentum_m", 0.0, -1, True,
     "must lie in [0, 1]"),
    (lambda v: TrainConfig(momentum_m=v), "train.momentum_m", 1.0, +1, True,
     "must lie in [0, 1]"),
    (lambda v: TrainConfig(batch_size=1, queue_size=v), "train.queue_size", 1, -1,
     True, "must be >= 1"),
    (lambda v: TrainConfig(label_ratio=v), "train.label_ratio", 0.0, -1, True,
     "must lie in [0, 1]"),
    (lambda v: TrainConfig(label_ratio=v), "train.label_ratio", 1.0, +1, True,
     "must lie in [0, 1]"),
    (lambda v: TrainConfig(batch_size=v), "train.batch_size", 1, -1, True,
     "must be >= 1"),
    (lambda v: TrainConfig(queue_size=100, batch_size=v), "train.batch_size", 100,
     +1, True, "must be <= queue_size"),
    (lambda v: TrainConfig(epochs=v), "train.epochs", 0, -1, True, "must be >= 0"),
    (lambda v: TrainConfig(lr=v), "train.lr", 0.0, -1, False, "must be > 0"),
    (lambda v: TrainConfig(sgd_momentum=v), "train.sgd_momentum", 0.0, -1, True,
     "must lie in [0, 1)"),
    (lambda v: TrainConfig(sgd_momentum=v), "train.sgd_momentum", 1.0, +1, False,
     "must lie in [0, 1)"),
    (lambda v: TrainConfig(weight_decay=v), "train.weight_decay", 0.0, -1, True,
     "must be >= 0"),
    (lambda v: TrainConfig(seed=v), "train.seed", 0, -1, True, "must be >= 0"),
    (lambda v: ProbeConfig(epochs=v), "probe.epochs", 1, -1, True,
     "must lie in [1, 1000]"),
    (lambda v: ProbeConfig(epochs=v), "probe.epochs", 1000, +1, True,
     "must lie in [1, 1000]"),
    (lambda v: ProbeConfig(lr=v), "probe.lr", 0.0, -1, False, "must be > 0"),
    (lambda v: ProbeConfig(batch_size=v), "probe.batch_size", 1, -1, True,
     "must be >= 1"),
    (lambda v: ProbeConfig(knn_k=v), "probe.knn_k", 1, -1, True, "must be >= 1"),
    (lambda v: ProbeConfig(knn_temperature=v), "probe.knn_temperature", 0.0, -1,
     False, "must be > 0 (or null)"),
]


@pytest.mark.parametrize(
    "build, where, limit, out, closed, message",
    BOUND_ENDS,
    ids=[f"{row[1]}_{'upper' if row[3] > 0 else 'lower'}" for row in BOUND_ENDS],
)
def test_declared_bound_ends(build, where, limit, out, closed, message):
    # a float steps to its neighbour, an integer by one
    if isinstance(limit, float):
        outside = math.nextafter(limit, out * math.inf)
    else:
        outside = limit + out
    values = [outside] if closed else [outside, limit]
    for value in values:
        with pytest.raises(ConfigError) as exc:
            build(value)
        mine = [p for p in exc.value.problems if p.startswith(f"{where}:")]
        assert mine == [f"{where}: {message}"], value
    if closed:
        build(limit)


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: RunConfig(model=ModelConfig(trunk=(10**12,))), "model: the parameter"),
        (lambda: RunConfig(model=ModelConfig(embed_dim=2**20)), "train.queue_size: "),
        (lambda: TrainConfig(batch_size=2**12, queue_size=2**14), "train.batch_size: "),
        (lambda: DatasetSpec(n_train=2**24 + 1, input_dim=4), "dataset.n_train: "),
        (lambda: DatasetSpec(n_test=2**24 + 1, input_dim=4), "dataset.n_test: "),
        # 5000 x 65536 probe features (2.6 GB) from under a million parameters
        (
            lambda: RunConfig(
                dataset=DatasetSpec(input_dim=2),
                model=ModelConfig(trunk=(2**16,), proj_hidden=8),
            ),
            "model.trunk: ",
        ),
        (
            lambda: RunConfig(
                dataset=DatasetSpec(input_dim=2),
                model=ModelConfig(trunk=(8,), proj_hidden=2**20 + 1),
            ),
            "train.batch_size: ",
        ),
    ],
    ids=[
        "parameters", "queue", "logits", "train_data", "test_data", "features", "batch"
    ],
)
def test_sizes_over_the_element_budget_rejected(build, needle):
    # configs only: an array of such a size is never allocated here
    with pytest.raises(ConfigError, match=f"{needle}.* exceeds the budget of"):
        build()


def test_sizes_at_the_element_budget_allowed():
    assert ELEMENT_BUDGET == 2**26
    DatasetSpec(n_train=2**24, n_test=2**24, input_dim=4)
    TrainConfig(batch_size=2**12, queue_size=2**14 - 1)  # 2**12 * 2**14 logits
    RunConfig(model=ModelConfig(embed_dim=2**17))  # 512 * 2**17 queue elements
    RunConfig(  # 2**10 * 2**16 probe features
        dataset=DatasetSpec(input_dim=2, n_train=2**10, n_test=2**10),
        model=ModelConfig(trunk=(2**16,), proj_hidden=8),
    )
    RunConfig(  # 64 * 2**20 activations at the projection's hidden layer
        dataset=DatasetSpec(input_dim=2),
        model=ModelConfig(trunk=(8,), proj_hidden=2**20),
    )


def test_bare_spec_skips_the_rules_that_span_sections():
    doc = {"input_dim": 2**20, "n_train": 64, "n_test": 64}
    with pytest.raises(ConfigError, match="model: the parameter count"):
        config_from_dict({"dataset": doc})
    assert spec_from_dict(doc) == DatasetSpec(input_dim=2**20, n_train=64, n_test=64)
    with pytest.raises(ConfigError) as info:
        spec_from_dict({"n_train": 2**30, "seed": "x", "typo": 1})
    # every problem is collected, the section's own budget rule included
    assert info.value.problems == [
        "dataset.seed: expected an integer",
        "dataset.typo: unknown key",
        f"dataset.n_train: n_train * input_dim exceeds the budget of {2**26} elements",
    ]


def test_epochs_zero_is_allowed():
    assert config_from_dict({"train": {"epochs": 0}}).train.epochs == 0


def test_optional_fields_accept_null():
    cfg = config_from_dict(
        {"model": {"proj_hidden": None}, "probe": {"knn_temperature": None}}
    )
    assert cfg.model.proj_hidden is None
    assert cfg.probe.knn_temperature is None


def test_proj_hidden_defaults_to_trunk_output():
    def dims(**model):
        return RunConfig(model=ModelConfig(trunk=(64, 48), **model)).layer_dims

    assert dims() == (20, 64, 48, 48, 16)
    assert dims(proj_hidden=24) == (20, 64, 48, 24, 16)


def test_run_config_steps_per_epoch():
    def cfg(n_train, batch_size):
        return RunConfig(
            dataset=DatasetSpec(n_train=n_train),
            train=TrainConfig(batch_size=batch_size, epochs=3),
        )

    assert cfg(240, 24).steps_per_epoch == 10
    assert cfg(250, 24).steps_per_epoch == 10  # remainder dropped
    assert cfg(24, 24).steps_per_epoch == 1
    assert cfg(250, 24).total_steps == 30


def test_load_config_file_and_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"seed": 12}}))
    assert load_config(path).train.seed == 12
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_digest_insensitive_to_document_order():
    doc_a = {"train": {"lr": 0.01, "seed": 2}, "dataset": {"n_classes": 4}}
    doc_b = {"dataset": {"n_classes": 4}, "train": {"seed": 2, "lr": 0.01}}
    assert config_digest(config_from_dict(doc_a)) == config_digest(
        config_from_dict(doc_b)
    )


def test_digest_sensitive_to_values():
    base = RunConfig()
    assert config_digest(base) != config_digest(with_train(base, lr=0.059))


def test_default_digest_is_pinned():
    # a property such as TrainConfig.single_positive must not enter the digest
    assert config_digest(RunConfig()) == (
        "80de67d6b79541e340d36bc2c5376a054a84c697e1b71a95d711aee98f18303d"
    )


@pytest.mark.parametrize(
    "loss, alpha, single",
    [
        ("infonce", 0.0, True),
        ("infonce", 1.0, True),
        ("unicon", 0.0, True),
        ("supcon_in", 0.0, True),
        ("unicon", 0.5, False),
        ("supcon_out", 1.0, False),
        ("unicon_out", 1e-9, False),
    ],
)
def test_single_positive_is_infonce_or_no_visible_label(loss, alpha, single):
    assert TrainConfig(loss=loss, label_ratio=alpha).single_positive is single


def test_run_id_format():
    cfg = with_train(RunConfig(), seed=3)
    rid = run_id(cfg)
    assert rid.startswith("s3-")
    suffix = rid.split("-", 1)[1]
    assert len(suffix) == 12
    assert set(suffix) <= set("0123456789abcdef")


def test_with_train_touches_only_train():
    base = RunConfig()
    changed = with_train(base, loss="infonce", label_ratio=0.25)
    assert changed.train.loss == "infonce"
    assert changed.train.label_ratio == 0.25
    assert changed.dataset == base.dataset
    assert changed.model == base.model
    assert changed.probe == base.probe


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().train.lr = 0.5
