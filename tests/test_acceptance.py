"""Acceptance gate: eleven numbered criteria, one test per criterion.

Each test measures its criterion end to end and records a PASS/FAIL line
(with the measured quantities) that the terminal reporter prints under
"acceptance criteria" after the run. The two training grids are
module-scoped fixtures because criteria 9 and 10 share cells, and they train
each run they share once.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque

import numpy as np
import pytest
from conftest import record_acceptance

import conlab.experiments
from conlab.cli import main as cli_main
from conlab.config import RunConfig, config_to_dict, with_train
from conlab.experiments import (
    CompareResult,
    compare_grid,
    compare_to_csv,
    compare_to_dict,
    compare_to_text,
)
from conlab.losscheck import (
    check_grad_fd,
    check_max_bounds,
    check_naive_overflow,
    check_shift_inv,
    check_single_pos,
    check_stability,
    check_triplet,
)
from conlab.losses import LOSS_KINDS, loss_batch
from conlab.numerics import Rng
from conlab.pipeline import generate_dataset, pretrain
from conlab.queues import build_target, init_queue, push_batch

WIDTH = 33  # one paired key + 32 queue entries
SEEDS = (0, 1, 2, 3, 4)
MULTI_POS = ("unicon", "unicon_out", "supcon_out", "supcon_in")


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}: {detail}"
    record_acceptance(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared full-size fixtures (criteria 8-10)


@pytest.fixture(scope="module")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="module")
def default_dataset(default_cfg):
    return generate_dataset(default_cfg.dataset)


@pytest.fixture(scope="module")
def grid_runs():
    """Final state of each run the grid fixtures trained, by work key."""
    return {}


def _compare_sharing_runs(runs, *args, **kwargs):
    """``compare_grid`` with each run that ``runs`` holds, keyed by the
    config ``pretrain`` receives, given back, not trained again: both grids
    hold the α=0 column, which is single-positive and so trains as infonce
    at α=0 whatever the loss."""
    real_pretrain = conlab.experiments.pretrain

    def pretrain_once(dataset, run_cfg):
        if run_cfg not in runs:
            runs[run_cfg] = real_pretrain(dataset, run_cfg)
        return runs[run_cfg]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conlab.experiments, "pretrain", pretrain_once)
        return compare_grid(*args, **kwargs)


@pytest.fixture(scope="module")
def ratio_grid(default_cfg, default_dataset, grid_runs):
    """unicon at alpha in {0, 0.5, 1} x 5 seeds, with per-run wall times."""
    durations: list[float] = []
    last = [time.perf_counter()]

    def tick(kind, alpha, seed, res):
        now = time.perf_counter()
        durations.append(now - last[0])
        last[0] = now

    grid = _compare_sharing_runs(
        grid_runs, default_dataset, default_cfg, ("unicon",), (0.5, 1.0), SEEDS,
        progress=tick,
    )
    return grid, tuple(durations)


@pytest.fixture(scope="module")
def family_grid(default_cfg, default_dataset, grid_runs):
    """supcon_in / supcon_out at alpha=1 (plus the standing alpha=0 column)."""
    return _compare_sharing_runs(
        grid_runs, default_dataset, default_cfg, ("supcon_in", "supcon_out"), (1.0,),
        SEEDS,
    )


# ---------------------------------------------------------------------------
# 1-6. the loss property battery from conlab.losscheck, at fixed seeds


def test_criterion_01_gradient_oracle():
    rng = Rng(101).stream("fd-oracle")
    start = time.perf_counter()
    results = [
        check_grad_fd(kind, rng.stream(kind), 100, WIDTH) for kind in LOSS_KINDS
    ]
    elapsed = time.perf_counter() - start
    worst = max(r.max_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 10.0
    _record(
        1,
        ok,
        f"analytic vs central-difference gradients, 100 rows x width {WIDTH} "
        f"x {len(LOSS_KINDS)} losses: max rel err {worst:.2e} (tol 1e-06) "
        f"in {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_single_positive_collapse():
    results = [
        check_single_pos(kind, Rng(102).stream("collapse"), 1000, WIDTH)
        for kind in MULTI_POS
    ]
    _record(
        2,
        all(r.passed for r in results),
        f"single-positive rows: max |multi-pos loss - single-pos loss| "
        f"{max(r.max_err for r in results):.2e} over 1000 rows x "
        f"{len(MULTI_POS)} kinds (tol 1e-10)",
    )


def test_criterion_03_max_bounds():
    result = check_max_bounds(Rng(103).stream("bounds"), 1000, WIDTH)
    _record(
        3,
        result.passed,
        f"max(0, max gap) <= value <= max(0, max gap) + log(1+|P||N|): "
        f"worst violation {result.max_err:.2e} over 1000 rows (slack 1e-12)",
    )


def test_criterion_04_triplet_relation():
    envelope, identity = check_triplet(Rng(104).stream("triplet"), 1000)
    _record(
        4,
        envelope.passed and identity.passed,
        f"|2*tau*loss - triplet| - 2*tau*log2 <= {envelope.max_err:.2e} (<=0) and "
        f"squared-distance identity err {identity.max_err:.2e} (tol 1e-10), "
        f"1000 tuples",
    )


def test_criterion_05_shift_invariance():
    rng = Rng(105).stream("shift")
    results = [
        check_shift_inv(kind, rng.stream(kind), 1000, WIDTH) for kind in LOSS_KINDS
    ]
    _record(
        5,
        all(r.passed for r in results),
        f"shifts c in {{-100,-1,1,100}}: max relative value change "
        f"{max(r.max_err for r in results):.2e} over 1000 rows x "
        f"{len(LOSS_KINDS)} losses (tol 1e-09)",
    )


def test_criterion_06_large_logit_stability():
    rng = Rng(106).stream("extremes")
    results = [
        check_stability(kind, rng.stream(kind), 32, WIDTH) for kind in LOSS_KINDS
    ]
    naive = check_naive_overflow(WIDTH)
    _record(
        6,
        all(r.passed for r in results) and naive.passed,
        f"values/gradients finite at +-600 logits for all {len(LOSS_KINDS)} "
        f"losses; naive direct-exp evaluation non-finite on the same row "
        f"({'yes' if naive.passed else 'no'})",
    )


# ---------------------------------------------------------------------------
# 7. queue semantics: exact oracle + label-statistics of the target masks


def test_criterion_07_queue_oracle_and_statistics():
    root = Rng(107).stream("queue")

    # exact oracle: 10^4 randomized pushes against a bounded-list model,
    # with the target mask rebuilt by a brute-force double loop each step
    capacity, dim, n_classes = 64, 6, 5
    queue = init_queue(capacity, dim, root.stream("init"))
    ref = deque(
        [(int(l), f.tobytes()) for l, f in zip(queue.labels, queue.features)],
        maxlen=capacity,
    )
    steps = 10_000
    content_ok = True
    mask_ok = True
    for t in range(steps):
        r = root.stream("step", t)
        n = int(r.integers(1, 9))
        keys = r.unit_rows(n, dim)
        cls = r.integers(0, n_classes, size=n)
        labels = np.where(r.random(size=n) < 0.25, -1, cls).astype(np.int64)
        queue = push_batch(queue, keys, labels)
        for lab, key in zip(labels, keys):
            ref.append((int(lab), key.tobytes()))
        got = sorted(
            (int(l), f.tobytes()) for l, f in zip(queue.labels, queue.features)
        )
        if got != sorted(ref):
            content_ok = False
            break
        qcls = r.integers(0, n_classes, size=3)
        qlab = np.where(r.random(size=3) < 0.25, -1, qcls).astype(np.int64)
        mask = build_target(qlab, queue)
        slot_labels = queue.labels.tolist()
        for i, ql in enumerate(int(v) for v in qlab):
            expect = [True] + [ql != -1 and lab == ql for lab in slot_labels]
            if mask[i].tolist() != expect:
                mask_ok = False
                break
        if not mask_ok:
            break

    # positive-count statistic: labeled queries against a queue whose
    # entries carry labels with probability alpha, uniform over C classes
    K, C, batch, samples = 512, 5, 64, 150
    stats = {}
    stats_ok = True
    for ai, alpha in enumerate((0.0, 0.3, 1.0)):
        r = root.stream("stat", ai)
        q2 = init_queue(K, 8, r.stream("init"))
        means = []
        for s in range(samples):
            for b in range(K // batch):  # fully replaces the queue content
                rb = r.stream("push", s * (K // batch) + b)
                cls = rb.integers(0, C, size=batch)
                vis = rb.random(size=batch) < alpha
                labels = np.where(vis, cls, -1).astype(np.int64)
                q2 = push_batch(q2, rb.unit_rows(batch, 8), labels)
            qlab = r.stream("query", s).integers(0, C, size=batch).astype(np.int64)
            means.append(float(build_target(qlab, q2).sum(axis=1).mean()))
        expected = 1.0 + alpha * K / C
        mean = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(samples))
        stats[alpha] = (mean, expected, se)
        if alpha == 0.0:
            stats_ok = stats_ok and mean == expected
        else:
            stats_ok = stats_ok and abs(mean - expected) <= 3.0 * se

    ok = content_ok and mask_ok and stats_ok
    stat_txt = ", ".join(
        f"alpha={a:g}: {m:.3f} vs {e:.3f} (3se={3 * s:.3f})"
        for a, (m, e, s) in stats.items()
    )
    _record(
        7,
        ok,
        f"{steps} pushes match bounded-list model ({'yes' if content_ok else 'no'}), "
        f"masks match brute force ({'yes' if mask_ok else 'no'}); "
        f"mean positives {stat_txt}",
    )


# ---------------------------------------------------------------------------
# 8. alpha=0 training is step-for-step the single-positive objective


def test_criterion_08_alpha_zero_equals_single_positive(
    default_dataset, default_cfg, on_loss
):
    cfg = with_train(default_cfg, loss="unicon", label_ratio=0.0)
    worst = 0.0
    seen = 0

    def check(logits, targets):
        nonlocal worst, seen
        uni, _ = loss_batch("unicon", logits, targets)
        ref, _ = loss_batch("infonce", logits, targets)
        worst = max(worst, float(np.max(np.abs(uni - ref))))
        seen += 1

    on_loss(check)
    rows = []
    pretrain(default_dataset, cfg, step_callback=rows.append)
    expected_steps = cfg.train.epochs * (
        default_dataset.train_x.shape[0] // cfg.train.batch_size
    )
    ok = worst <= 1e-10 and seen == len(rows) == expected_steps
    _record(
        8,
        ok,
        f"full pretrain at alpha=0: max per-row |unified - single-positive| "
        f"{worst:.2e} across {seen} steps (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 9. more visible labels -> better linear probe


def test_criterion_09_label_ratio_trend(ratio_grid):
    grid, durations = ratio_grid
    m0 = grid.cells[("unicon", 0.0)].mean_linear
    m5 = grid.cells[("unicon", 0.5)].mean_linear
    m1 = grid.cells[("unicon", 1.0)].mean_linear
    slowest = max(durations)
    ok = m1 >= m5 >= m0 and (m1 - m0) >= 0.03 and slowest < 600.0
    _record(
        9,
        ok,
        f"5-seed mean linear top-1: alpha=0 {m0:.4f} <= alpha=0.5 {m5:.4f} "
        f"<= alpha=1 {m1:.4f}; gap {100 * (m1 - m0):.2f}pp (>=3pp); "
        f"slowest run {slowest:.0f}s (<600s)",
    )


# ---------------------------------------------------------------------------
# 10. the unified loss keeps up with both supervised-contrastive variants


def test_criterion_10_loss_family_direction(ratio_grid, family_grid, tmp_path_factory):
    grid, _ = ratio_grid
    uni = grid.cells[("unicon", 1.0)]
    s_in = family_grid.cells[("supcon_in", 1.0)]
    s_out = family_grid.cells[("supcon_out", 1.0)]

    report = CompareResult(
        losses=("unicon", "supcon_in", "supcon_out"),
        alphas=(0.0, 1.0),
        seeds=grid.seeds,
        cells={
            ("unicon", 0.0): grid.cells[("unicon", 0.0)],
            ("unicon", 1.0): uni,
            ("supcon_in", 0.0): family_grid.cells[("supcon_in", 0.0)],
            ("supcon_in", 1.0): s_in,
            ("supcon_out", 0.0): family_grid.cells[("supcon_out", 0.0)],
            ("supcon_out", 1.0): s_out,
        },
    )
    out = tmp_path_factory.mktemp("loss-family")
    (out / "compare.csv").write_text(compare_to_csv(report))
    (out / "compare.txt").write_text(compare_to_text(report) + "\n")
    (out / "compare.json").write_text(
        json.dumps(compare_to_dict(report), indent=2, sort_keys=True) + "\n"
    )
    text = (out / "compare.txt").read_text()
    recorded = all(k in text for k in ("unicon", "supcon_in", "supcon_out"))

    ok = (
        uni.mean_linear >= s_in.mean_linear - 0.01
        and uni.mean_linear >= s_out.mean_linear - 0.01
        and recorded
    )
    _record(
        10,
        ok,
        f"alpha=1 5-seed means: unicon {uni.mean_linear:.4f}, "
        f"supcon_in {s_in.mean_linear:.4f}, supcon_out {s_out.mean_linear:.4f} "
        f"(unicon within 1pp of both; report in {out})",
    )


def test_grid_fixtures_train_each_run_once(ratio_grid, family_grid, grid_runs):
    # 15 ratio-grid runs, then 10 family-grid runs at alpha=1: the family
    # grid's alpha=0 column is the ratio grid's
    zero = ratio_grid[0].cells[("unicon", 0.0)]
    assert family_grid.cells[("supcon_in", 0.0)] == zero
    assert family_grid.cells[("supcon_out", 0.0)] == zero
    assert len(grid_runs) == 25


# ---------------------------------------------------------------------------
# 11. bit-identical reruns and exact interrupt/resume


def test_criterion_11_determinism_and_resume(small_cfg, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(config_to_dict(small_cfg)))
    data = tmp_path / "data.umc"
    assert cli_main(["gen-data", "--spec", str(config), "--out", str(data)]) == 0

    for name in ("a", "b"):
        code = cli_main(
            ["pretrain", "--config", str(config), "--data", str(data),
             "--out-dir", str(tmp_path / name)]
        )
        assert code == 0
    rerun_equal = (tmp_path / "a" / "checkpoint.umc").read_bytes() == (
        tmp_path / "b" / "checkpoint.umc"
    ).read_bytes()

    parts = tmp_path / "parts"
    assert cli_main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(parts), "--max-steps", "11"]
    ) == 0
    assert cli_main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(parts), "--resume", str(parts / "checkpoint.umc")]
    ) == 0
    resume_ckpt_equal = (parts / "checkpoint.umc").read_bytes() == (
        tmp_path / "a" / "checkpoint.umc"
    ).read_bytes()
    resume_metrics_equal = (parts / "metrics.csv").read_text() == (
        tmp_path / "a" / "metrics.csv"
    ).read_text()

    ok = rerun_equal and resume_ckpt_equal and resume_metrics_equal
    _record(
        11,
        ok,
        f"rerun checkpoints byte-equal ({'yes' if rerun_equal else 'no'}); "
        f"interrupt at step 11 + resume reproduces checkpoint "
        f"({'yes' if resume_ckpt_equal else 'no'}) and metrics "
        f"({'yes' if resume_metrics_equal else 'no'})",
    )
