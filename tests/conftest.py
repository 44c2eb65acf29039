"""Shared fixtures and the terminal summary (acceptance criteria, suite clocks).

The fast unit tests run on a deliberately tiny problem (`small_cfg`); the
full-size defaults only appear in test_acceptance.py, which records one
PASS/FAIL line per criterion into the terminal summary via the hook below.
"""

from __future__ import annotations

import dataclasses
import resource
import time

import numpy as np
import pytest
from hypothesis import settings

import conlab.experiments
import conlab.pipeline
from conlab import (
    AugConfig,
    DatasetSpec,
    ModelConfig,
    ProbeConfig,
    RunConfig,
    TrainConfig,
    generate_dataset,
)
from conlab.model import EncoderParams, leaves

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def other_threads_s(process_s: float, thread_s: float) -> float:
    """CPU spent outside the calling thread, where a woken BLAS worker runs,
    from the process's and the calling thread's CPU over the same span. The
    two clocks are read one after the other, so when no other thread ran
    their difference can fall a few microseconds below zero: it reads 0."""
    return max(process_s - thread_s, 0.0)


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    """Two parameter trees of the same leaf shapes holding the same bits."""
    shapes = [[leaf.shape for leaf in leaves(tree)] for tree in (a, b)]
    return shapes[0] == shapes[1] and np.array_equal(a.flat, b.flat)


# wall and process CPU clocks when the session starts, then the process's and
# the main thread's rusage CPU: the tests themselves run on the main thread
_START: list[float] = []


def pytest_sessionstart(session):
    _START[:] = [time.perf_counter(), time.process_time()]
    if hasattr(resource, "RUSAGE_THREAD"):
        _START.extend([_cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_THREAD)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    wall = time.perf_counter() - _START[0]
    cpu = time.process_time() - _START[1]
    line = f"suite: wall {wall:.1f} s, process CPU {cpu:.1f} s"
    if len(_START) > 2:
        others = other_threads_s(
            _cpu_s(resource.RUSAGE_SELF) - _START[2],
            _cpu_s(resource.RUSAGE_THREAD) - _START[3],
        )
        line += f", off the main thread {others:.1f} s"
    terminalreporter.write_line(line)


@pytest.fixture()
def thread_cpu():
    """``measure(fn)`` calls ``fn()`` and returns the CPU seconds spent on
    the calling thread and on all other threads of the process meanwhile."""

    def measure(fn):
        time.sleep(0.5)  # a worker woken by an earlier test goes back to sleep
        process, thread = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_THREAD)
        fn()
        thread = _cpu_s(resource.RUSAGE_THREAD) - thread
        return thread, other_threads_s(_cpu_s(resource.RUSAGE_SELF) - process, thread)

    return measure


@pytest.fixture(scope="session")
def small_cfg() -> RunConfig:
    """A few seconds of end-to-end training instead of minutes."""
    return RunConfig(
        dataset=DatasetSpec(
            n_classes=3,
            input_dim=8,
            n_train=240,
            n_test=90,
            cluster_spread=0.6,
            mean_radius=3.0,
            seed=7,
        ),
        model=ModelConfig(trunk=(16, 12), proj_hidden=None, embed_dim=8),
        train=TrainConfig(
            tau=0.2,
            momentum_m=0.99,
            queue_size=48,
            label_ratio=1.0,
            batch_size=24,
            epochs=3,
            lr=0.05,
            sgd_momentum=0.9,
            weight_decay=5e-4,
            aug=AugConfig(noise_std=0.15, dropout_p=0.0),
            loss="unicon",
            seed=3,
        ),
        probe=ProbeConfig(epochs=8, lr=0.5, batch_size=64, knn_k=5),
    )


@pytest.fixture(scope="session")
def small_dataset(small_cfg):
    return generate_dataset(small_cfg.dataset)


@pytest.fixture(params=[120, 480], ids=["cut", "doubled"])
def misshapen_dataset(request, small_dataset):
    """``small_dataset`` with its 240 training rows cut to 120, or doubled to
    480, while its spec still says 240."""
    idx = np.arange(request.param) % small_dataset.train_y.size
    return dataclasses.replace(
        small_dataset,
        train_x=small_dataset.train_x[idx],
        train_y=small_dataset.train_y[idx],
    )


# one value per rule a dataset array can break, as (array, index, value):
# labels outside [0, n_classes) and non-finite floats
BROKEN_VALUES = {
    "train_y_n_classes": ("train_y", 0, 3),
    "train_y_negative": ("train_y", 5, -1),
    "test_y_n_classes": ("test_y", 0, 3),
    "test_y_negative": ("test_y", 5, -1),
    **{
        f"{name}_{value}": (name, (1, 2), value)
        for name in ("means", "train_x", "test_x")
        for value in (np.nan, np.inf)
    },
}


@pytest.fixture(params=sorted(BROKEN_VALUES) + ["train_y_list"])
def broken_dataset(request, small_dataset):
    """``small_dataset`` with one value its array's rule forbids, and the one
    message that names it. In the ``train_y_list`` case the labels are a
    plain list holding a label equal to n_classes."""
    as_list = request.param == "train_y_list"
    case = "train_y_n_classes" if as_list else request.param
    name, index, value = BROKEN_VALUES[case]
    arr = getattr(small_dataset, name).copy()
    arr[index] = value
    if as_list:
        arr = arr.tolist()
    rule = "labels outside [0, 3)" if name.endswith("_y") else "non-finite values"
    message = f"dataset array {name!r} holds {rule}"
    return dataclasses.replace(small_dataset, **{name: arr}), message


@pytest.fixture()
def pretrain_calls(monkeypatch):
    """The (loss, label ratio, seed) of each training a grid starts, in
    order. Cells that share a run add one entry, not one per cell."""
    calls = []
    real_pretrain = conlab.experiments.pretrain

    def counting_pretrain(dataset, cfg):
        calls.append((cfg.train.loss, cfg.train.label_ratio, cfg.train.seed))
        return real_pretrain(dataset, cfg)

    monkeypatch.setattr(conlab.experiments, "pretrain", counting_pretrain)
    return calls


@pytest.fixture()
def on_loss(monkeypatch):
    """``install(fn)`` calls ``fn(logits, targets)`` before every loss that
    ``train_step`` computes, by wrapping ``conlab.pipeline.loss_batch``, the
    name it looks up. ``fn`` should check each step as it arrives: a full
    run sees thousands of logit matrices."""

    def install(fn):
        real = conlab.pipeline.loss_batch

        def wrapped(kind, logits, targets):
            fn(logits, targets)
            return real(kind, logits, targets)

        monkeypatch.setattr(conlab.pipeline, "loss_batch", wrapped)

    return install
