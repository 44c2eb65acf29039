"""Sweep orchestration: loss-family × label-ratio × seed comparison grids.

A grid cell is one full pretrain + linear/kNN probe at a given (loss kind,
label ratio α, seed); a cell's headline number is the seed-mean linear-probe
top-1. Every grid silently includes α = 0 — the single-positive column is
the standing regression check that the unified losses degenerate to the
plain single-positive run when no labels are visible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import RunConfig, with_train
from .pipeline import Dataset, pretrain
from .probes import run_probes


@dataclass(frozen=True)
class CompareCell:
    loss: str
    alpha: float
    seeds: tuple[int, ...]
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


def compare_grid(
    dataset: Dataset,
    cfg: RunConfig,
    losses,
    alphas,
    seeds,
    progress=None,
) -> CompareResult:
    """Run the full cross-product. Deterministic: cells depend only on
    (dataset, config, loss, alpha, seed), never on execution order.

    A loss or seed given twice is an error (it would run its cells again and
    count its results twice); repeated alphas collapse into one column."""
    losses = tuple(losses)
    seeds = tuple(int(s) for s in seeds)
    if not losses:
        raise ValueError("need at least one loss")
    if not seeds:
        raise ValueError("need at least one seed")
    for noun, values in (("loss", losses), ("seed", seeds)):
        repeated = [str(v) for v, n in Counter(values).items() if n > 1]
        if repeated:
            raise ValueError(f"repeated {noun}: {', '.join(repeated)}")
    alphas = tuple(sorted({float(a) for a in alphas} | {0.0}))
    # every cell's config is built (and so checked) before the first cell runs
    run_cfgs = {
        (kind, alpha, seed): with_train(cfg, loss=kind, label_ratio=alpha, seed=seed)
        for kind in losses
        for alpha in alphas
        for seed in seeds
    }

    cells = {}
    for kind in losses:
        for alpha in alphas:
            lin, knn = [], []
            for seed in seeds:
                state = pretrain(dataset, run_cfgs[(kind, alpha, seed)])
                res = run_probes(state.params_q, dataset, cfg.probe, seed=seed)
                lin.append(res.linear_top1)
                knn.append(res.knn_top1)
                if progress is not None:
                    progress(kind, alpha, seed, res)
            cells[(kind, alpha)] = CompareCell(
                loss=kind,
                alpha=alpha,
                seeds=seeds,
                linear=tuple(lin),
                knn=tuple(knn),
            )
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
                "loss": cell.loss,
                "alpha": cell.alpha,
                "linear_top1": list(cell.linear),
                "knn_top1": list(cell.knn),
                "mean_linear_top1": cell.mean_linear,
                "mean_knn_top1": cell.mean_knn,
            }
            for key in sorted(result.cells)
            for cell in [result.cells[key]]
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
