"""Config parsing, validation, canonical digests."""

import dataclasses
import json

import pytest

from conlab.config import (
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
    with_train,
)


def test_defaults_are_valid():
    cfg = RunConfig()
    for section in (cfg.dataset, cfg.model, cfg.train, cfg.train.aug, cfg.probe):
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
        ({"train": {"aug": {"dropout_p": 1.0}}}, "train.aug.dropout_p"),
        ({"train": {"loss": "triplet"}}, "train.loss"),
        ({"dataset": {"n_classes": 1}}, "dataset.n_classes"),
        ({"dataset": {"cluster_spread": 0.0}}, "dataset.cluster_spread"),
        ({"probe": {"knn_k": 0}}, "probe.knn_k"),
        ({"probe": {"epochs": 1001}}, "probe.epochs"),
        ({"probe": {"knn_temperature": 0.0}}, "probe.knn_temperature"),
    ]
    for doc, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            config_from_dict(doc)


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
    ],
    ids=["lr", "tau", "epochs", "loss", "replace", "probe_epochs", "nested_aug"],
)
def test_configs_built_in_code_are_checked(build, needle):
    # with_train, replace and constructors go through the same rules as JSON
    with pytest.raises(ConfigError, match=needle):
        build()


def test_epochs_zero_is_allowed():
    assert config_from_dict({"train": {"epochs": 0}}).train.epochs == 0


def test_optional_fields_accept_null():
    cfg = config_from_dict(
        {"model": {"proj_hidden": None}, "probe": {"knn_temperature": None}}
    )
    assert cfg.model.proj_hidden is None
    assert cfg.probe.knn_temperature is None


def test_proj_hidden_defaults_to_trunk_output():
    assert ModelConfig(trunk=(64, 48)).proj_hidden_dim == 48
    assert ModelConfig(trunk=(64, 48), proj_hidden=24).proj_hidden_dim == 24


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
