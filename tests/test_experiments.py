"""The loss x label-ratio x seed sweep grid."""

import json

import pytest

from conlab import experiments
from conlab.config import ConfigError, with_train
from conlab.experiments import (
    compare_grid,
    compare_to_csv,
    compare_to_dict,
    compare_to_text,
)


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
    assert cell.seeds == (0, 1)
    assert len(cell.linear) == 2 and len(cell.knn) == 2
    assert all(0.0 <= v <= 1.0 for v in cell.linear + cell.knn)
    assert cell.mean_linear == pytest.approx(sum(cell.linear) / 2)


def test_grid_deterministic(small_cfg, small_dataset):
    cfg = with_train(small_cfg, epochs=1)
    a = compare_grid(small_dataset, cfg, ("unicon",), (0.5,), (0,))
    b = compare_grid(small_dataset, cfg, ("unicon",), (0.5,), (0,))
    assert a.cells == b.cells


def test_grid_validates_inputs(small_cfg, small_dataset):
    with pytest.raises(ConfigError, match="unknown loss 'margin'"):
        compare_grid(small_dataset, small_cfg, ("margin",), (1.0,), (0,))
    with pytest.raises(ValueError, match="at least one seed"):
        compare_grid(small_dataset, small_cfg, ("unicon",), (1.0,), ())
    with pytest.raises(ConfigError, match="train.label_ratio"):
        compare_grid(small_dataset, small_cfg, ("unicon",), (1.5,), (0,))


def test_grid_checks_every_cell_before_training(small_cfg, small_dataset, monkeypatch):
    # a bad seed late in the grid must not cost the training of earlier cells
    calls = []
    real_pretrain = experiments.pretrain

    def counting_pretrain(dataset, cfg):
        calls.append(cfg.train.seed)
        return real_pretrain(dataset, cfg)

    monkeypatch.setattr(experiments, "pretrain", counting_pretrain)
    cfg = with_train(small_cfg, epochs=1)
    with pytest.raises(ConfigError, match="train.seed"):
        compare_grid(small_dataset, cfg, ("unicon",), (1.0,), (0, -1))
    assert calls == []


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
    result = compare_grid(small_dataset, cfg, ("unicon",), (1.0, 0.0, 1.0), (0,))
    assert result.alphas == (0.0, 1.0)
    assert len(compare_to_dict(result)["cells"]) == 2


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
