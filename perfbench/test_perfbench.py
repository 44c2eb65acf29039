"""Tests of the benchmark itself, on a tiny dataset.

Run from the root of a conlab checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _attributes(conlab):
    return {
        (t.owner, t.attr): vars(t.owner)[t.attr]
        for t in tracing.layer_targets(conlab)
    }


@pytest.fixture(scope="module")
def conlab():
    return run.import_conlab()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(conlab, workload, trace):
    before = _attributes(conlab)
    result, bench = run.run_benchmark(workload, 3, 0.1, trace, tiny=True)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    # Tracing must leave the program's results and attributes untouched.
    assert all(bench.restored)
    assert _attributes(conlab) == before
    untraced = [o for o in bench.outputs if not o["traced"]]
    traced = [o for o in bench.outputs if o["traced"]]
    assert len(untraced) >= (1 if trace else 2)
    assert len(traced) == (len(untraced) if trace else 0)
    for out in untraced[1:] + traced:
        assert out == {**untraced[0], "traced": out["traced"]}


def test_pretrain_trace_counts(conlab):
    result, bench = run.run_benchmark("pretrain_unicon_a1", 5, 0.1, True, tiny=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    steps = bench.steps
    assert m["pipeline.train_step.calls"] == steps
    assert m["losses.loss_batch.calls"] == steps
    assert m["model.forward.calls"] == 2 * steps
    assert m["model.map_leaves.calls"] == 2 * steps + 1  # + init_state's copy
    assert m["numerics.Rng.stream.calls"] >= 3 * steps
    assert m["queues.push_batch.useful_copy_frac"] == 64 / 512
    assert m["losses.loss_batch.logit_bytes"] == 64 * 513 * 8
    assert m["storage.MetricsWriter.write.calls"] == steps
    assert m["experiments.compare_grid.calls"] == 0


def test_failed_check_counts_instead_of_aborting(conlab, monkeypatch):
    digests = iter(range(1000))
    monkeypatch.setattr(run, "sha256", lambda path: str(next(digests)))
    result, _ = run.run_benchmark("pretrain_infonce_a0", 1, 0.1, False, tiny=True)
    assert not result["correct"]
    assert result["failed"] >= 2  # every gen-data and pretrain after the first
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_full_size_runs_hold_probes_to_the_accuracy_floor(conlab):
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        for workload in run.WORKLOADS:
            bench = run.Bench(conlab, workload, 1, False, work)
            floor = run.ACCURACY_FLOOR[workload]
            assert bench.floor == floor > bench.chance
            assert bench.check_accuracy((floor + 0.01, floor + 0.01), floor) is None
            assert bench.check_accuracy((floor + 0.01, floor), floor)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()


def test_push_copy_bytes_follow_the_returned_queue():
    """A push that returns new arrays copies the whole queue; one that writes
    in place copies only the batch."""
    queue = types.SimpleNamespace(features=np.zeros((512, 16)),
                                  labels=np.zeros(512, dtype=np.int64))
    keys = np.ones((64, 16))

    def fresh(q, k, y):
        return types.SimpleNamespace(features=q.features.copy(),
                                     labels=q.labels.copy())

    def in_place(q, k, y):
        q.features[:64] = k
        q.labels[:64] = y
        return types.SimpleNamespace(features=q.features, labels=q.labels)

    ns = types.SimpleNamespace(fresh=fresh, in_place=in_place)
    push = tracing._push_extra
    t = tracing.Tracer([tracing.Target(ns, "fresh", "fresh", push),
                        tracing.Target(ns, "in_place", "in_place", push)])
    with t:
        ns.fresh(queue, keys, np.ones(64))
        ns.in_place(queue, keys, np.ones(64))
    whole, rows = 512 * (16 * 8 + 8), 64 * (16 * 8 + 8)
    assert t.stats["fresh"].extra == {"copy_bytes": whole, "batch_bytes": rows}
    assert t.stats["in_place"].extra == {"copy_bytes": rows, "batch_bytes": rows}


def test_unpublished_layer_fails_the_coverage_check(conlab, monkeypatch):
    """A traced layer left out of the published metrics leaves a command's
    wall time uncovered, and the run must say so."""
    layers = dict(run.LAYERS)
    del layers["losses.loss_batch"]
    monkeypatch.setattr(run, "LAYERS", layers)
    monkeypatch.setattr(run, "per_layer_units", lambda: {})
    result, _ = run.run_benchmark("pretrain_unicon_a1", 2, 0.1, True, tiny=True)
    assert not result["correct"]
    assert result["failed"] == 1  # the pretrain command only


def test_self_times_add_up_and_attributes_return():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    def broken(x):
        raise ValueError(x)

    ns = types.SimpleNamespace(inner=inner, outer=outer, broken=broken)
    t = tracing.Tracer(
        [tracing.Target(ns, "inner", "m.inner"),
         tracing.Target(ns, "outer", "m.outer"),
         tracing.Target(ns, "broken", "m.broken")],
    )
    with t:
        assert ns.outer(1) == 4
        with pytest.raises(ValueError):
            ns.broken(0)
    assert t.restored()
    assert (ns.inner, ns.outer, ns.broken) == (inner, outer, broken)
    out, inn = t.stats["m.outer"], t.stats["m.inner"]
    assert (out.calls, inn.calls, t.stats["m.broken"].calls) == (1, 1, 1)
    assert out.self_ns + inn.self_ns == out.incl_ns
    assert t.self_ns(["m.outer", "m.inner"]) == out.incl_ns


def test_fails_without_program_sources():
    """In a directory holding only the benchmark it must exit non-zero
    without printing a result."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", run.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
