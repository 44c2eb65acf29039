"""The loss x label-ratio x seed sweep grid."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conlab.config import ConfigError, ModelConfig, with_train
from conlab.experiments import (
    compare_grid,
    compare_to_csv,
    compare_to_dict,
    compare_to_text,
)
from conlab.pipeline import init_state, pretrain
from conlab.probes import run_probes


@pytest.fixture(scope="module")
def tiny_grid(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=2)
    return compare_grid(small_dataset, cfg, ("unicon", "infonce"), (1.0,), (0, 1))


def test_grid_forces_alpha_zero_column(tiny_grid):
    assert tiny_grid.alphas == (0.0, 1.0)
    assert set(tiny_grid.cells) == {
        (loss, a) for loss in ("unicon", "infonce") for a in (0.0, 1.0)
    }


def test_grid_cells_hold_per_seed_results(tiny_grid):
    cell = tiny_grid.cells[("unicon", 1.0)]
    assert tiny_grid.seeds == (0, 1)
    assert len(cell.linear) == 2 and len(cell.knn) == 2
    assert all(0.0 <= v <= 1.0 for v in cell.linear + cell.knn)
    assert cell.mean_linear == pytest.approx(sum(cell.linear) / 2)


def test_grid_trains_single_positive_cells_once_per_seed(
    small_cfg, small_dataset, pretrain_calls
):
    cfg = with_train(small_cfg, epochs=2)
    losses, seeds = ("unicon", "supcon_out", "infonce"), (0, 1)
    seen = []
    result = compare_grid(
        small_dataset, cfg, losses, (1.0,), seeds,
        progress=lambda kind, alpha, seed, res: seen.append((kind, alpha, seed, res)),
    )
    # α=0 of every loss and infonce at α=1 share one run per seed, trained
    # as infonce at α=0
    assert pretrain_calls == [
        ("infonce", 0.0, 0), ("infonce", 0.0, 1),
        ("unicon", 1.0, 0), ("unicon", 1.0, 1),
        ("supcon_out", 1.0, 0), ("supcon_out", 1.0, 1),
    ]
    grid_order = [(k, a, s) for k in losses for a in (0.0, 1.0) for s in seeds]
    assert [cell[:3] for cell in seen] == grid_order
    for kind, alpha, seed, res in seen:
        run_cfg = with_train(cfg, loss=kind, label_ratio=alpha, seed=seed)
        params = pretrain(small_dataset, run_cfg).params_q
        oracle = run_probes(params, small_dataset, run_cfg)
        assert res == oracle, (kind, alpha, seed)
        i = seeds.index(seed)
        cell = result.cells[(kind, alpha)]
        assert (cell.linear[i], cell.knn[i]) == (oracle.linear_top1, oracle.knn_top1)


@pytest.mark.parametrize(
    "losses", [("supcon_out", "unicon"), ("unicon", "supcon_out")]
)
def test_grid_trains_the_shared_run_as_infonce_in_any_loss_order(
    small_cfg, small_dataset, pretrain_calls, losses
):
    cfg = with_train(small_cfg, epochs=1)
    compare_grid(small_dataset, cfg, losses, (), (0, 1))
    assert pretrain_calls == [("infonce", 0.0, 0), ("infonce", 0.0, 1)]


def test_grid_deterministic(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=1)
    a = compare_grid(small_dataset, cfg, ("unicon",), (0.5,), (0,))
    b = compare_grid(small_dataset, cfg, ("unicon",), (0.5,), (0,))
    assert a.cells == b.cells


def test_grid_runs_a_config_built_with_a_list_trunk(small_cfg, small_dataset):
    listed = dataclasses.replace(
        small_cfg, model=ModelConfig(trunk=[16, 12], embed_dim=8)
    )
    assert listed == small_cfg
    a, b = (
        compare_grid(small_dataset, with_train(c, epochs=1), ("unicon",), (1.0,), (0,))
        for c in (listed, small_cfg)
    )
    assert a.cells == b.cells


def test_grid_validates_inputs(small_cfg, small_dataset):
    with pytest.raises(ConfigError, match="unknown loss 'margin'"):
        compare_grid(small_dataset, small_cfg, ("margin",), (1.0,), (0,))
    with pytest.raises(ValueError, match="at least one seed"):
        compare_grid(small_dataset, small_cfg, ("unicon",), (1.0,), ())
    with pytest.raises(ConfigError, match="train.label_ratio"):
        compare_grid(small_dataset, small_cfg, ("unicon",), (1.5,), (0,))


def test_grid_checks_every_cell_before_training(
    small_cfg, small_dataset, pretrain_calls
):
    # a bad seed late in the grid must not cost the training of earlier cells
    cfg = with_train(small_cfg, epochs=1)
    with pytest.raises(ConfigError, match="train.seed"):
        compare_grid(small_dataset, cfg, ("unicon",), (1.0,), (0, -1))
    assert pretrain_calls == []


@pytest.mark.parametrize(
    "alphas, seeds, message",
    [
        ((1.0,), (1.5,), "train.seed: expected an integer"),
        ((1.0,), (True,), "train.seed: expected an integer"),
        ((True,), (0,), "train.label_ratio: expected a number"),
    ],
    ids=["float_seed", "bool_seed", "bool_alpha"],
)
def test_grid_converts_seeds_and_alphas_by_the_config_rules(
    small_cfg, small_dataset, pretrain_calls, alphas, seeds, message
):
    cfg = with_train(small_cfg, epochs=1)
    with pytest.raises(ConfigError) as info:
        compare_grid(small_dataset, cfg, ("unicon",), alphas, seeds)
    assert info.value.problems == [message]
    assert pretrain_calls == []


def test_grid_reports_a_numpy_seed_as_an_int(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=1)
    result = compare_grid(small_dataset, cfg, ("infonce",), (), (np.int64(2),))
    assert result.seeds == (2,)
    assert type(result.seeds[0]) is int


def test_grid_refuses_a_dataset_its_config_does_not_name(
    small_cfg, small_dataset, pretrain_calls
):
    spec = dataclasses.replace(small_cfg.dataset, n_train=120, mean_radius=2.0)
    cfg = dataclasses.replace(with_train(small_cfg, epochs=1), dataset=spec)
    with pytest.raises(ConfigError) as info:
        compare_grid(small_dataset, cfg, ("unicon",), (1.0,), (0,))
    assert info.value.problems == [
        "dataset.mean_radius: config has 2.0, file has 3.0",
        "dataset.n_train: config has 120, file has 240",
    ]
    assert pretrain_calls == []


def test_grid_refuses_arrays_their_spec_does_not_give(
    small_cfg, misshapen_dataset, pretrain_calls
):
    cfg = with_train(small_cfg, epochs=1)
    with pytest.raises(ConfigError, match="dataset array 'train_x' has shape"):
        compare_grid(misshapen_dataset, cfg, ("unicon",), (1.0,), (0,))
    assert pretrain_calls == []


@pytest.mark.parametrize("entry", ["pretrain", "run_probes", "compare_grid"])
def test_library_refuses_values_a_dataset_file_may_not_hold(
    small_cfg, broken_dataset, pretrain_calls, entry
):
    # a label outside [0, n_classes) would enter the label queue, and a
    # non-finite input would surface only as divergence some steps later
    dataset, message = broken_dataset
    cfg = with_train(small_cfg, epochs=1)
    rows = []
    calls = {
        "pretrain": lambda: pretrain(dataset, cfg, step_callback=rows.append),
        "run_probes": lambda: run_probes(init_state(cfg).params_q, dataset, cfg),
        "compare_grid": lambda: compare_grid(dataset, cfg, ("unicon",), (1.0,), (0,)),
    }
    with pytest.raises(ConfigError) as info:
        calls[entry]()
    assert info.value.problems == [message]
    assert rows == []
    assert pretrain_calls == []


@pytest.mark.parametrize(
    "losses, seeds, message",
    [
        (("unicon", "unicon"), (3,), "repeated loss: unicon"),
        (("unicon",), (3, 3), "repeated seed: 3"),
        (("unicon", "infonce"), (1, 1, 2), "repeated seed: 1"),
    ],
)
def test_grid_rejects_repeated_losses_and_seeds(
    small_cfg, small_dataset, losses, seeds, message
):
    # a repeated loss or seed would rerun its cells, print a loss row twice,
    # or count one seed twice in the means
    cfg = with_train(small_cfg, epochs=1)
    with pytest.raises(ValueError, match=message):
        compare_grid(small_dataset, cfg, losses, (1.0,), seeds)


def test_grid_collapses_repeated_alphas(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=1)
    result = compare_grid(small_dataset, cfg, ("unicon",), (1.0, -0.0, 1.0), (0,))
    assert result.alphas == (0.0, 1.0)
    # -0.0 == 0.0, so it joins the forced column, which prints as 0, not -0
    assert math.copysign(1.0, result.alphas[0]) == 1.0
    assert compare_to_csv(result).startswith("loss,alpha_0,alpha_1\n")
    assert "alpha=0 " in compare_to_text(result)
    assert [c["alpha"] for c in compare_to_dict(result)["cells"]] == [0.0, 1.0]
    assert "-0" not in json.dumps(compare_to_dict(result))


def test_csv_layout(tiny_grid):
    lines = compare_to_csv(tiny_grid).strip().splitlines()
    assert lines[0] == "loss,alpha_0,alpha_1"
    assert len(lines) == 3
    assert lines[1].startswith("unicon,")
    assert lines[2].startswith("infonce,")


def test_text_table(tiny_grid):
    text = compare_to_text(tiny_grid)
    assert "alpha=0" in text and "alpha=1" in text
    assert "unicon" in text and "infonce" in text
    assert "seeds: 0, 1" in text


def test_dict_is_json_ready(tiny_grid):
    doc = compare_to_dict(tiny_grid)
    parsed = json.loads(json.dumps(doc))
    assert parsed["losses"] == ["unicon", "infonce"]
    assert parsed["alphas"] == [0.0, 1.0]
    assert len(parsed["cells"]) == 4
    cell = parsed["cells"][0]
    assert {"loss", "alpha", "linear_top1", "knn_top1"} <= set(cell)
