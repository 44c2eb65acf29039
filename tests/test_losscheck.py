"""The self-contained loss verification suite (also behind `conlab losscheck`)."""

import tracemalloc

import numpy as np
import pytest

import conlab.losscheck
from conlab.cli import main
from conlab.config import ELEMENT_BUDGET
from conlab.losscheck import (
    SHIFTS,
    CheckResult,
    check_grad_fd,
    format_check_table,
    naive_unicon_values,
    run_losscheck,
)
from conlab.numerics import Rng

CHECKS = [name for name in conlab.losscheck.__all__ if name.startswith("check_")]


@pytest.fixture()
def checks_run(monkeypatch):
    """Replace every check of the battery by a stub that records its name,
    so a size can be tried without allocating it."""
    ran = []

    def stub(name):
        def check(*args):
            ran.append(name)
            row = CheckResult("unicon", name, 1, 0.0, 0.0)
            return (row, row) if name == "check_triplet" else row

        return check

    for name in CHECKS:
        monkeypatch.setattr(conlab.losscheck, name, stub(name))
    return ran


# the largest allowed sizes: a (2 * width, width) finite-difference block of
# one row, and the shift check's stacked (1 + len(SHIFTS)) * trials rows
MAX_WIDTH = 5792
MAX_TRIALS_AT_33 = ELEMENT_BUDGET // ((1 + len(SHIFTS)) * 33)


@pytest.mark.parametrize(
    "argv",
    [
        ["--width", str(MAX_WIDTH + 1)],
        ["--width", "100000000", "--trials", "5"],
        ["--trials", str(MAX_TRIALS_AT_33 + 1), "--width", "33"],
        ["--trials", str(ELEMENT_BUDGET // 33 + 1), "--width", "33"],
    ],
)
def test_losscheck_refuses_a_size_past_the_budget_before_any_check(
    checks_run, capsys, argv
):
    assert main(["losscheck", *argv]) == 2
    assert checks_run == []
    assert f"budget of {ELEMENT_BUDGET} elements" in capsys.readouterr().err


@pytest.mark.parametrize("trials, width", [(1, MAX_WIDTH), (MAX_TRIALS_AT_33, 33)])
def test_losscheck_runs_the_largest_sizes_within_the_budget(checks_run, trials, width):
    run_losscheck(trials=trials, width=width)
    assert set(checks_run) == set(CHECKS)


def test_all_checks_pass_and_cover_every_loss():
    results = run_losscheck(trials=80, width=17, seed=1)
    assert all(r.passed for r in results)
    checked = {(r.loss, r.prop) for r in results}
    for kind in ("infonce", "unicon", "unicon_out", "supcon_out", "supcon_in"):
        assert (kind, "grad_fd") in checked
        assert (kind, "shift_inv") in checked
        assert (kind, "stability_600") in checked
    assert ("unicon", "max_bounds") in checked
    assert ("unicon", "triplet_pair") in checked
    assert ("unicon", "naive_overflow") in checked


def test_results_are_deterministic():
    a = run_losscheck(trials=40, width=9, seed=3)
    b = run_losscheck(trials=40, width=9, seed=3)
    assert [(r.loss, r.prop, r.max_err) for r in a] == [
        (r.loss, r.prop, r.max_err) for r in b
    ]


def test_reported_errors_within_tolerance():
    for r in run_losscheck(trials=40, width=9, seed=5):
        assert r.max_err <= r.tol or r.tol == 0.0


def test_naive_unicon_overflows_where_stable_does_not():
    # the direct log(1 + sum_neg * sum_pos) evaluation overflows at +-600
    logits = np.array([[-600.0, 600.0, 0.5]])
    targets = np.array([[True, False, False]])
    with np.errstate(over="ignore"):
        naive = naive_unicon_values(logits, targets)
    assert not np.all(np.isfinite(naive))
    from conlab.losses import loss_batch

    stable, grads = loss_batch("unicon", logits, targets)
    assert np.all(np.isfinite(stable))
    assert np.all(np.isfinite(grads))


def test_naive_unicon_agrees_in_moderate_range():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(20, 8))
    targets = np.zeros((20, 8), dtype=bool)
    targets[:, :2] = True
    from conlab.losses import loss_batch

    naive = naive_unicon_values(logits, targets)
    stable, _ = loss_batch("unicon", logits, targets)
    assert np.allclose(naive, stable, rtol=1e-12)


def test_format_table_mentions_every_row():
    results = run_losscheck(trials=20, width=9, seed=7)
    table = format_check_table(results)
    assert "grad_fd" in table and "naive_overflow" in table
    assert "0 failed" in table
    assert len(table.splitlines()) >= len(results)


def test_grad_fd_memory_does_not_grow_with_rows_times_width_squared():
    # 200 rows of width 32 make a (rows, 2 * width, width) perturbation
    # tensor of 3.3 MB; one row's share is 16 kB
    rows, width = 200, 32
    check_grad_fd("unicon", Rng(0).stream("warm"), 2, width)  # one-time caches
    tracemalloc.start()
    try:
        result = check_grad_fd("unicon", Rng(0).stream("fd"), rows, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 1_000_000
