"""Sweep orchestration: loss-family × label-ratio × seed comparison grids.

A grid cell is one full pretrain + linear/kNN probe at a given (loss kind,
label ratio α, seed); a cell's headline number is the seed-mean linear-probe
top-1. Every grid silently includes α = 0, the unlabelled baseline. Its
cells and any infonce cell are single-positive
(``TrainConfig.single_positive``), so each seed trains them once and shares
the result (``_work_key``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import RunConfig, with_train
from .pipeline import Dataset, check_dataset_matches, pretrain
from .probes import run_probes


@dataclass(frozen=True)
class CompareCell:
    """Per-seed results of the grid's (loss, alpha) key, in its seed order."""

    linear: tuple[float, ...]  # per-seed linear-probe top-1
    knn: tuple[float, ...]  # per-seed kNN top-1

    @property
    def mean_linear(self) -> float:
        return sum(self.linear) / len(self.linear)

    @property
    def mean_knn(self) -> float:
        return sum(self.knn) / len(self.knn)


@dataclass(frozen=True)
class CompareResult:
    losses: tuple[str, ...]
    alphas: tuple[float, ...]
    seeds: tuple[int, ...]
    cells: dict  # (loss, alpha) -> CompareCell


def _work_key(run_cfg: RunConfig) -> RunConfig:
    """The config whose run gives ``run_cfg``'s probe result: infonce at
    label ratio 0 for a single-positive run (``TrainConfig.single_positive``),
    else ``run_cfg``; the probes read neither the loss nor the label ratio."""
    if run_cfg.train.single_positive:
        return with_train(run_cfg, loss="infonce", label_ratio=0.0)
    return run_cfg


def compare_grid(
    dataset: Dataset,
    cfg: RunConfig,
    losses,
    alphas,
    seeds,
    progress=None,
) -> CompareResult:
    """Run the full cross-product. Each cell's result is ``pretrain`` and
    ``run_probes`` under its work key (``_work_key``), so each seed trains
    and probes the single-positive cells once, whatever the order of
    ``losses``; ``progress`` still sees every cell, in grid order.

    A seed and an alpha are converted by the config's own rules, and a bad
    one raises its ``ConfigError``. A loss or seed given twice is an error
    (it would run its cells again and count its results twice); repeated
    alphas collapse into one column."""
    losses = tuple(losses)
    seeds = tuple(with_train(cfg, seed=s).train.seed for s in seeds)
    if not losses:
        raise ValueError("need at least one loss")
    if not seeds:
        raise ValueError("need at least one seed")
    for noun, values in (("loss", losses), ("seed", seeds)):
        repeated = [str(v) for v, n in Counter(values).items() if n > 1]
        if repeated:
            raise ValueError(f"repeated {noun}: {', '.join(repeated)}")
    # + 0.0 turns -0.0 into 0.0, which would otherwise name the forced column
    alphas = {with_train(cfg, label_ratio=a).train.label_ratio + 0.0 for a in alphas}
    alphas = tuple(sorted(alphas | {0.0}))
    check_dataset_matches(cfg, dataset)
    # every cell's config is built (and so checked) before the first cell runs
    run_cfgs = {
        (kind, alpha, seed): with_train(cfg, loss=kind, label_ratio=alpha, seed=seed)
        for kind in losses
        for alpha in alphas
        for seed in seeds
    }

    done = {}  # work key -> ProbeResult
    cells = {}
    for kind in losses:
        for alpha in alphas:
            lin, knn = [], []
            for seed in seeds:
                key = _work_key(run_cfgs[(kind, alpha, seed)])
                if key not in done:
                    params = pretrain(dataset, key).params_q
                    done[key] = run_probes(params, dataset, key)
                res = done[key]
                lin.append(res.linear_top1)
                knn.append(res.knn_top1)
                if progress is not None:
                    progress(kind, alpha, seed, res)
            cells[(kind, alpha)] = CompareCell(linear=tuple(lin), knn=tuple(knn))
    return CompareResult(losses=losses, alphas=alphas, seeds=seeds, cells=cells)


def compare_to_csv(result: CompareResult) -> str:
    header = "loss," + ",".join(f"alpha_{a:g}" for a in result.alphas)
    lines = [header]
    for kind in result.losses:
        cells = (result.cells[(kind, a)] for a in result.alphas)
        lines.append(kind + "," + ",".join(f"{c.mean_linear:.4f}" for c in cells))
    return "\n".join(lines) + "\n"


def compare_to_text(result: CompareResult) -> str:
    """Aligned table: rows = loss kind, columns = α, cells = mean linear
    top-1 over seeds."""
    name_w = max(len("loss"), max(len(k) for k in result.losses))
    cols = [f"alpha={a:g}" for a in result.alphas]
    col_w = max(8, max(len(c) for c in cols))
    head = f"{'loss':<{name_w}}  " + "  ".join(f"{c:>{col_w}}" for c in cols)
    lines = [head, "-" * len(head)]
    for kind in result.losses:
        vals = [
            f"{result.cells[(kind, a)].mean_linear:>{col_w}.4f}"
            for a in result.alphas
        ]
        lines.append(f"{kind:<{name_w}}  " + "  ".join(vals))
    lines.append(f"seeds: {', '.join(str(s) for s in result.seeds)}")
    return "\n".join(lines)


def compare_to_dict(result: CompareResult) -> dict:
    return {
        "losses": list(result.losses),
        "alphas": list(result.alphas),
        "seeds": list(result.seeds),
        "cells": [
            {
                "loss": kind,
                "alpha": alpha,
                "linear_top1": list(cell.linear),
                "knn_top1": list(cell.knn),
                "mean_linear_top1": cell.mean_linear,
                "mean_knn_top1": cell.mean_knn,
            }
            for (kind, alpha), cell in sorted(result.cells.items())
        ],
    }


__all__ = [
    "CompareCell",
    "CompareResult",
    "compare_grid",
    "compare_to_csv",
    "compare_to_dict",
    "compare_to_text",
]
